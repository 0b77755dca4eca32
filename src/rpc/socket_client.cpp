#include "rpc/socket_client.hpp"

#include <cstring>
#include <utility>
#include <vector>

#include "net/fault.hpp"
#include "rpc/buffers.hpp"
#include "trace/trace.hpp"

namespace rpcoib::rpc {

namespace {
// Connection header written once per connection, like Hadoop's
// "hrpc" + version preamble.
constexpr net::Byte kRpcMagic[] = {'h', 'r', 'p', 'c', 4};
// Version-5 preamble announces a durable session: the magic is followed
// by the client's 64-bit session id. Only sent with sessions enabled, so
// the default handshake stays byte-identical to version 4.
constexpr net::Byte kRpcMagicSession[] = {'h', 'r', 'p', 'c', 5};
}  // namespace

SocketRpcClient::SocketRpcClient(cluster::Host& host, net::SocketTable& sockets,
                                 net::Transport transport)
    : host_(host), sockets_(sockets), transport_(transport) {}

SocketRpcClient::~SocketRpcClient() { close_connections(); }

void SocketRpcClient::close_connections() {
  for (auto& [addr, conn] : connections_) {
    // Cancel before closing: the receiver may be suspended mid-read and
    // resume after this client is gone — it must observe `cancelled` and
    // bail instead of touching half-destroyed state. Pending batch flush
    // timers stand down the same way.
    conn->cancelled = true;
    if (conn->sock) conn->sock->close();
    fail_all(*conn, "client shutdown");
  }
  connections_.clear();
}

void SocketRpcClient::fail_all(Connection& conn, const std::string& why) {
  conn.broken = true;
  conn.recovery = Recovery::kTornDown;
  for (auto& [id, pc] : conn.pending) {
    pc->error = true;
    pc->error_msg = why;
    pc->done.set();
  }
  conn.pending.clear();
}

sim::Co<SocketRpcClient::ConnectionPtr> SocketRpcClient::get_connection(net::Address addr) {
  for (;;) {
    auto it = connections_.find(addr);
    if (it == connections_.end()) break;
    ConnectionPtr conn = it->second;
    if (conn->broken) {
      connections_.erase(it);
      break;
    }
    co_await conn->ready.wait();  // another caller may still be handshaking
    if (!conn->broken) co_return conn;
    // Woke up on a broken connection. While we were suspended another
    // waiter may already have replaced the map entry with a fresh
    // connection; blindly erasing and reconnecting here would orphan that
    // replacement's receiver and strand its pending calls. Erase only if
    // the map still points at *our* broken connection, then loop: the
    // retry adopts any replacement instead of clobbering it.
    auto it2 = connections_.find(addr);
    if (it2 != connections_.end() && it2->second == conn) connections_.erase(it2);
  }

  auto raw = std::make_shared<Connection>(host_.sched(), batch_);
  connections_[addr] = raw;
  try {
    raw->sock = co_await sockets_.connect(host_, addr, transport_);
    if (const std::uint64_t sid = session_id(host_); sid != 0) {
      // Session handshake: v5 magic + the durable session id. The server
      // keys retry-cache state by it, so dedup survives this connection.
      net::Bytes pre(sizeof(kRpcMagicSession) + sizeof(sid));
      std::memcpy(pre.data(), kRpcMagicSession, sizeof(kRpcMagicSession));
      std::memcpy(pre.data() + sizeof(kRpcMagicSession), &sid, sizeof(sid));
      co_await raw->sock->write(pre);
    } else {
      co_await raw->sock->write(net::ByteSpan(kRpcMagic, sizeof(kRpcMagic)));
    }
  } catch (const net::SocketError& e) {
    raw->ready.set();
    fail_all(*raw, e.what());
    // Drop our corpse unless a concurrent caller already replaced it.
    auto it = connections_.find(addr);
    if (it != connections_.end() && it->second == raw) connections_.erase(it);
    throw RpcTransportError(e.what());
  }
  raw->receiver = host_.sched().spawn(receive_loop(raw));
  raw->ready.set();
  raw->recovery = Recovery::kHealthy;
  ++stats_.connections_opened;
  co_return raw;
}

void SocketRpcClient::note_reconnect(ReconnectCause cause) {
  // Reconnect accounting rides the session knob: with sessions off the
  // counters stay zero, the report grows no rows, and seeded sessionless
  // runs stay byte-identical to a build without the session layer.
  if (!session_.enabled) return;
  switch (cause) {
    case ReconnectCause::kPeerClosed: ++stats_.reconnects_peer_closed; break;
    case ReconnectCause::kQpError: ++stats_.reconnects_qp_error; break;
    case ReconnectCause::kIdleEvicted: ++stats_.reconnects_idle_evicted; break;
    case ReconnectCause::kFaultInjected: ++stats_.reconnects_fault_injected; break;
  }
  if (trace::TraceCollector* tr = trace::active(host_.tracer()); tr != nullptr) {
    const sim::Time now = host_.sched().now();
    tr->add_complete(std::string("reconnect.") + reconnect_cause_name(cause),
                     trace::Kind::kClient, trace::Category::kSession, {}, host_.id(),
                     now, now);
  }
}

void SocketRpcClient::kill_connection(const ConnectionPtr& conn, net::Address addr) {
  // FaultPlan connection kill: forced close with the request already on
  // the wire — the server may still execute and respond into the void,
  // which is exactly the duplicate-execution window the session-keyed
  // retry cache must close. Cancel first so the receiver stands down
  // instead of double-failing the pending map.
  conn->cancelled = true;
  if (conn->sock) conn->sock->close();
  fail_all(*conn, "connection killed (injected fault)");
  note_reconnect(ReconnectCause::kFaultInjected);
  auto it = connections_.find(addr);
  if (it != connections_.end() && it->second == conn) connections_.erase(it);
}

sim::Co<void> SocketRpcClient::deliver_one(cluster::Host& host, Connection& conn,
                                           net::ByteSpan payload) {
  const cluster::CostModel& cm = host.cost();
  DataInputBuffer in(cm, payload);
  const std::uint64_t id = in.read_u64();
  const std::uint8_t status = in.read_u8();
  auto it = conn.pending.find(id);
  if (it == conn.pending.end()) co_return;  // call raced a timeout; drop
  PendingCall* pc = it->second;
  conn.pending.erase(it);
  if (status != static_cast<std::uint8_t>(RpcStatus::kSuccess)) {
    pc->error = true;
    pc->busy = status == static_cast<std::uint8_t>(RpcStatus::kBusy);
    pc->session_expired = status == static_cast<std::uint8_t>(RpcStatus::kSessionExpired);
    pc->error_msg = in.read_text();
  } else {
    pc->value.assign(payload.begin() + static_cast<std::ptrdiff_t>(in.position()),
                     payload.end());
  }
  co_await host.compute(in.take_accrued() + cm.thread_wakeup() + cm.rpc_framework());
  pc->done.set();
}

sim::Task SocketRpcClient::receive_loop(ConnectionPtr conn) {
  // Hoisted: this loop may outlive the client object; after the first
  // suspension it only touches the host and the shared connection.
  cluster::Host& host = host_;
  const cluster::CostModel& cm = host.cost();
  try {
    for (;;) {
      // Listing 2's client twin: 4-byte length buffer, then a fresh heap
      // buffer per response, with the native->heap copy.
      net::Bytes len_buf(4);
      co_await conn->sock->read_full(len_buf);
      if (conn->cancelled) co_return;
      co_await host.compute(2 * cm.syscall() + cm.heap_alloc(4));
      DataInputBuffer len_in(cm, len_buf);
      const std::uint32_t len = len_in.read_u32();

      net::Bytes data(len);
      co_await host.compute(cm.heap_alloc(len));
      co_await conn->sock->read_full(data);
      if (conn->cancelled) co_return;
      co_await host.compute(cm.native_copy(len));
      if (conn->cancelled) co_return;

      // A response frame whose first word carries kWireBatchFlag is a
      // server-coalesced batch; each sub-message is laid out exactly like
      // a standalone response payload. Batches are always understood —
      // the local config only gates what *we* emit.
      DataInputBuffer peek(cm, data);
      const std::uint64_t first = peek.read_u64();
      if ((first & trace::kWireBatchFlag) != 0) {
        const std::size_t count = first & kWireBatchCountMask;
        std::vector<std::uint32_t> lens(count);
        for (std::size_t i = 0; i < count; ++i) lens[i] = peek.read_u32();
        std::size_t off = peek.position();
        co_await host.compute(peek.take_accrued());
        for (std::size_t i = 0; i < count; ++i) {
          if (conn->cancelled) co_return;
          co_await deliver_one(host, *conn, net::ByteSpan(data).subspan(off, lens[i]));
          off += lens[i];
        }
      } else {
        co_await deliver_one(host, *conn, net::ByteSpan(data));
      }
    }
  } catch (const net::SocketError& e) {
    // EOF / reset from the remote end. `cancelled` doubles as a liveness
    // guard for the client object: close_connections() (also run by the
    // destructor) sets it before this loop can resume, so touching the
    // client's stats here is safe when it is still false.
    if (!conn->cancelled) {
      fail_all(*conn, e.what());
      note_reconnect(ReconnectCause::kPeerClosed);
    }
  }
}

sim::Co<void> SocketRpcClient::append_to_batch(ConnectionPtr conn, net::Bytes payload,
                                               const trace::TraceContext& ctx) {
  CallBatcher& b = conn->batcher;
  const bool was_empty = b.empty();
  if (was_empty && ctx.valid()) conn->batch_ctx = ctx;
  b.append(std::move(payload), host_.sched().now());
  ++stats_.batched_calls;
  if (b.full()) {
    ++stats_.batch_flush_full;
    co_await flush_batch(conn);
  } else if (was_empty) {
    host_.sched().spawn(batch_timer(conn, b.epoch(), b.adaptive_linger()));
  }
}

sim::Task SocketRpcClient::batch_timer(ConnectionPtr conn, std::uint64_t epoch,
                                       sim::Dur linger) {
  // A zero linger still suspends one scheduler tick, so same-timestamp
  // arrivals coalesce while a lone caller's flush happens "now".
  sim::Scheduler& sched = host_.sched();
  co_await sim::delay(sched, linger);
  if (conn->cancelled || conn->broken) co_return;
  const CallBatcher& b = conn->batcher;
  if (b.empty() || b.epoch() != epoch) co_return;  // a full() flush beat us
  if (linger > 0) {
    ++stats_.batch_flush_linger;
  } else {
    ++stats_.batch_flush_immediate;
  }
  co_await flush_batch(conn);
}

sim::Co<void> SocketRpcClient::flush_batch(ConnectionPtr conn) {
  CallBatcher& b = conn->batcher;
  if (b.empty()) co_return;
  // Hoisted for the same reason as receive_loop: the send mutex wait
  // below may outlive the client.
  cluster::Host& host = host_;
  const cluster::CostModel& cm = host.cost();
  trace::TraceCollector* tr = trace::active(host.tracer());
  const trace::TraceContext ctx = std::exchange(conn->batch_ctx, {});
  const sim::Time t0 = host.sched().now();

  std::vector<net::Bytes> items = b.take();
  std::size_t payload_bytes = 0;
  for (const net::Bytes& m : items) payload_bytes += m.size();
  // [u32 total][u64 kWireBatchFlag|count][u32 len_i x count][payload_i...]
  BufferedOutputStream out(cm);
  const std::size_t total = 8 + 4 * items.size() + payload_bytes;
  out.write_u32(static_cast<std::uint32_t>(total));
  out.write_u64(trace::kWireBatchFlag | static_cast<std::uint64_t>(items.size()));
  for (const net::Bytes& m : items) out.write_u32(static_cast<std::uint32_t>(m.size()));
  for (const net::Bytes& m : items) out.write_payload(net::ByteSpan(m));
  out.flush();
  const sim::Dur encode_cost = out.take_accrued();
  net::Bytes wire = out.take_pending();

  co_await conn->send_mu.lock();
  sim::SimLockGuard guard(conn->send_mu);
  // Client gone or connection failed while we waited: the batched calls'
  // pending entries were already completed with errors by fail_all.
  if (conn->cancelled || conn->broken) co_return;
  co_await host.compute(encode_cost);
  if (conn->cancelled || conn->broken) co_return;
  try {
    co_await conn->sock->write(wire);
  } catch (const net::SocketError& e) {
    if (!conn->cancelled) fail_all(*conn, e.what());
    co_return;
  }
  if (conn->cancelled) co_return;
  ++stats_.batches_sent;
  if (tr != nullptr && ctx.valid()) {
    tr->add_complete("batch.flush", trace::Kind::kClient, trace::Category::kSend, ctx,
                     host.id(), t0, host.sched().now());
  }
}

sim::Co<void> SocketRpcClient::call_attempt(net::Address addr, const MethodKey& key,
                                            const Writable& param, Writable* response,
                                            std::uint64_t call_id, bool retried) {
  // Consume the ambient trace parent before the first suspension point
  // (see trace.hpp's propagation discipline).
  trace::TraceCollector* tr = trace::active(host_.tracer());
  const trace::TraceContext t_parent =
      tr != nullptr ? tr->take_ambient() : trace::TraceContext{};
  const cluster::CostModel& cm = host_.cost();
  const sim::Time t_start = host_.sched().now();
  trace::SpanScope rpc(tr, "rpc:", key.method, trace::Kind::kClient,
                       trace::Category::kWire, t_parent, host_.id());
  const trace::TraceContext ctx = rpc.context();
  ConnectionPtr conn = co_await get_connection(addr);
  // Shared Hadoop RPC framework cost (call table, synchronization).
  co_await host_.compute(cm.rpc_framework());

  // --- Serialization (Listing 1, lines 2-7) ---------------------------
  const sim::Time t_ser_start = host_.sched().now();
  DataOutputBuffer d(cm, kClientInitialBuffer);
  const std::uint64_t id = call_id;
  // Absolute deadline on the shared virtual clock: a conservative lower
  // bound on when this attempt gives up (the timeout wait starts after
  // the send completes). Only stamped when a call timeout is configured,
  // so the default wire format is byte-identical to the seed.
  const sim::Time deadline =
      retry_.call_timeout > 0 ? host_.sched().now() + retry_.call_timeout : 0;
  std::uint64_t wire_id = id;
  if (ctx.valid()) wire_id |= trace::kWireTraceFlag;
  if (deadline != 0) wire_id |= trace::kWireDeadlineFlag;
  // Retried attempts are marked only under the session layer: the server
  // uses the flag to bounce a retry whose session lease expired instead
  // of silently re-executing it. Sessionless wire stays byte-identical.
  if (retried && session_.enabled) wire_id |= trace::kWireRetryFlag;
  d.write_u64(wire_id);
  if (ctx.valid()) {
    // Flagged id announces two extra context words; untraced calls keep
    // the seed wire format byte-for-byte.
    d.write_u64(ctx.trace_id);
    d.write_u64(ctx.span_id);
  }
  if (deadline != 0) d.write_u64(deadline);
  d.write_text(key.protocol);
  d.write_text(key.method);
  param.write(d);
  co_await host_.compute(d.take_accrued());
  const sim::Time t_serialized = host_.sched().now();
  if (ctx.valid()) {
    tr->add_complete("serialize", trace::Kind::kInternal,
                     trace::Category::kSerialization, ctx, host_.id(), t_ser_start,
                     t_serialized);
  }

  PendingCall pc(host_.sched());
  if (!batch_.batchable(d.length())) {
    // --- Sending (Listing 1, lines 9-13) ------------------------------
    BufferedOutputStream out(cm);
    out.write_u32(static_cast<std::uint32_t>(d.length()));
    out.write_payload(d.data());
    out.flush();
    co_await host_.compute(out.take_accrued());

    conn->pending[id] = &pc;
    {
      co_await conn->send_mu.lock();
      sim::SimLockGuard guard(conn->send_mu);
      if (conn->broken) throw RpcTransportError("connection broken");
      const net::Bytes wire = out.take_pending();
      co_await conn->sock->write(wire);
    }
  } else {
    // Coalescing path: buffer the payload (one heap copy) and let the
    // batcher decide when the connection's next multi-call frame goes out.
    if (conn->broken) throw RpcTransportError("connection broken");
    conn->pending[id] = &pc;
    net::Bytes payload(d.data().begin(), d.data().end());
    co_await host_.compute(cm.heap_copy(d.length()));
    co_await append_to_batch(conn, std::move(payload), ctx);
  }
  const sim::Time t_sent = host_.sched().now();
  if (ctx.valid()) {
    tr->add_complete("send", trace::Kind::kInternal, trace::Category::kSend, ctx,
                     host_.id(), t_serialized, t_sent);
  }

  // Connection-kill fault hook: the request is on the wire, so the server
  // side may execute it — the retry that follows the teardown is the
  // exactly-once case the durable session dedup covers.
  if (net::FaultPlan* plan = sockets_.fabric().fault_plan();
      plan != nullptr && plan->kills_enabled() && !conn->broken &&
      plan->take_kill(host_.id(), addr.host, host_.sched().now())) {
    kill_connection(conn, addr);
  }

  // --- Profiling (Table I / Fig. 3 feeds) ------------------------------
  MethodProfile& prof = stats_.method(key);
  prof.mem_adjustments.add(static_cast<double>(d.stats().mem_adjustments));
  prof.serialize_us.add(sim::to_us(t_serialized - t_start));
  prof.send_us.add(sim::to_us(t_sent - t_serialized));
  prof.msg_bytes.add(static_cast<double>(d.length()));
  stats_.record_size(prof, static_cast<std::uint32_t>(d.length()));
  ++stats_.calls_sent;

  if (const sim::Dur deadline = retry_.call_timeout; deadline > 0) {
    const bool completed = co_await pc.done.wait_for(deadline);
    if (!completed) {
      // Unregister so a late reply is dropped by the receive loop instead
      // of touching this (about to be destroyed) PendingCall.
      conn->pending.erase(id);
      throw RpcTimeoutError("call timed out after " +
                            std::to_string(sim::to_ms(deadline)) + " ms");
    }
  } else {
    co_await pc.done.wait();
  }
  if (pc.error) {
    conn->pending.erase(id);
    // A session-expired verdict outranks a later connection failure: the
    // server has ruled the logical call undedupable, so it must surface
    // terminally, not as a retryable transport error.
    if (pc.session_expired) throw SessionExpiredException(pc.error_msg);
    if (conn->broken) throw RpcTransportError(pc.error_msg);
    if (pc.busy) throw ServerBusyException(pc.error_msg);
    throw RemoteException(pc.error_msg);
  }
  if (response != nullptr) {
    const sim::Time t_deser = host_.sched().now();
    DataInputBuffer in(cm, pc.value);
    response->read_fields(in);
    co_await host_.compute(in.take_accrued());
    if (ctx.valid()) {
      tr->add_complete("deserialize", trace::Kind::kInternal,
                       trace::Category::kSerialization, ctx, host_.id(), t_deser,
                       host_.sched().now());
    }
  }
  prof.total_us.add(sim::to_us(host_.sched().now() - t_start));
  rpc.end();
}

}  // namespace rpcoib::rpc
