#include "rpcoib/rdma_client.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "net/fault.hpp"
#include "rpcoib/onesided.hpp"
#include "trace/trace.hpp"

namespace rpcoib::oib {

namespace {

/// wr_id carries the pooled buffer pointer (0 = no buffer attached).
std::uint64_t wr_of(NativeBuffer* b) { return reinterpret_cast<std::uint64_t>(b); }
NativeBuffer* buf_of(std::uint64_t wr) { return reinterpret_cast<NativeBuffer*>(wr); }

/// Fixed-layout control frame, trivially destructible (safe as a co_await
/// temporary) and copied by post_send at post time.
struct ControlFrame {
  net::Byte bytes[17];
  std::size_t len = 0;

  static ControlFrame make(FrameType t, std::uint32_t rkey, std::uint64_t off,
                           std::uint32_t payload_len) {
    ControlFrame f;
    f.bytes[0] = static_cast<net::Byte>(t);
    std::memcpy(f.bytes + 1, &rkey, 4);
    std::memcpy(f.bytes + 5, &off, 8);
    std::memcpy(f.bytes + 13, &payload_len, 4);
    f.len = 17;
    return f;
  }
  static ControlFrame ack(std::uint32_t rkey) {
    ControlFrame f;
    f.bytes[0] = static_cast<net::Byte>(FrameType::kAck);
    std::memcpy(f.bytes + 1, &rkey, 4);
    f.len = 5;
    return f;
  }
  net::ByteSpan span() const { return net::ByteSpan(bytes, len); }
};

void parse_control(net::ByteSpan frame, std::uint32_t& rkey, std::uint64_t& off,
                   std::uint32_t& len) {
  std::memcpy(&rkey, frame.data() + 1, 4);
  std::memcpy(&off, frame.data() + 5, 8);
  std::memcpy(&len, frame.data() + 13, 4);
}

/// kUdCall wrapper: [u8 type][u64 session] before the inner frame.
inline constexpr std::size_t kUdHeaderBytes = 9;

}  // namespace

RdmaRpcClient::RdmaRpcClient(cluster::Host& host, net::SocketTable& sockets,
                             verbs::VerbsStack& stack, RdmaClientConfig cfg)
    : host_(host),
      sockets_(sockets),
      stack_(stack),
      cm_(stack, sockets),
      cfg_(cfg),
      native_(host, stack, cfg.pool),
      shadow_(native_),
      pool_ready_(host.sched()) {
  // Pre-posted receive buffers must hold any eager frame plus headers.
  cfg_.recv_buf_size = std::max(cfg_.recv_buf_size, cfg_.eager_threshold + 512);
  // Register the pool at construction ("library load" in the paper) so
  // the cost is off every call's critical path.
  host_.sched().spawn(init_pool_task());
}

sim::Task RdmaRpcClient::init_pool_task() {
  co_await native_.initialize();
  pool_ready_.set();
}

RdmaRpcClient::~RdmaRpcClient() { close_connections(); }

void RdmaRpcClient::close_connections() {
  for (auto& [addr, conn] : connections_) {
    // Cancel before tearing anything down: loops suspended mid-completion
    // resume later and must bail instead of touching the dead client/pool.
    conn->cancelled = true;
    if (conn->qp) {
      // Pre-posted receive slots still hold pooled buffers; reclaim them
      // before the QP goes away or the pool leaks a slot per recv.
      for (std::uint64_t wr : conn->qp->drain_posted_recvs()) {
        if (NativeBuffer* b = buf_of(wr); b != nullptr) native_.release(b);
      }
      conn->qp->disconnect();
    }
    conn->cq.close();
    fail_all(*conn, "client shutdown");
  }
  connections_.clear();
  if (ud_) {
    ud_->cancelled = true;
    if (ud_->ep) {
      // Posted ring slots hold pooled buffers; reclaim before the
      // endpoint dies or the pool leaks one slot per posted recv.
      for (std::uint64_t wr : ud_->ep->drain_posted_recvs()) {
        if (NativeBuffer* b = buf_of(wr); b != nullptr) native_.release(b);
      }
    }
    ud_->cq.close();
    for (auto& [id, pc] : ud_->pending) {
      pc->transport_error = true;
      pc->error_msg = "client shutdown";
      pc->done.set();
    }
    ud_->pending.clear();
    ud_.reset();
  }
  ud_dests_.clear();
  fallback_addrs_.clear();
  if (fallback_) fallback_->close_connections();
}

void RdmaRpcClient::release_rendezvous(PendingCall& pc) {
  if (pc.rendezvous_buf != nullptr) {
    native_.release(pc.rendezvous_buf);
    pc.rendezvous_buf = nullptr;
  }
}

void RdmaRpcClient::fail_all(Connection& conn, const std::string& why) {
  conn.broken = true;
  conn.recovery = Recovery::kTornDown;
  for (auto& [id, pc] : conn.pending) {
    // Return in-flight rendezvous sources to the pool before waking the
    // caller: a drained scheduler may never resume the call coroutine, so
    // the release cannot be left to it.
    release_rendezvous(*pc);
    pc->transport_error = true;
    pc->error_msg = why;
    pc->done.set();
  }
  conn.pending.clear();
}

sim::Co<RdmaRpcClient::ConnectionPtr> RdmaRpcClient::get_connection(net::Address addr) {
  co_await pool_ready_.wait();
  for (;;) {
    auto it = connections_.find(addr);
    if (it == connections_.end()) break;
    ConnectionPtr conn = it->second;
    if (conn->broken) {
      connections_.erase(it);
      break;
    }
    co_await conn->ready.wait();
    if (!conn->broken && conn->qp && !conn->qp->connected()) {
      // The server tore the QP down under us (idle-connection eviction):
      // reclaim the pre-posted receive buffers, close the CQ so the old
      // receive loop exits, fail anything still parked on the connection,
      // and fall through to bootstrap a fresh one transparently.
      conn->cancelled = true;
      for (std::uint64_t wr : conn->qp->drain_posted_recvs()) {
        if (NativeBuffer* b = buf_of(wr); b != nullptr) native_.release(b);
      }
      conn->cq.close();
      fail_all(*conn, "QP closed by peer");
      note_reconnect(rpc::ReconnectCause::kIdleEvicted);
    }
    if (!conn->broken) co_return conn;
    // Woke up on a broken connection. Another waiter may already have
    // installed a replacement while we were suspended; clobbering it
    // would orphan its receive loop and strand its pending calls. Erase
    // only if the map still points at *our* broken connection, then loop:
    // the retry adopts any replacement instead.
    auto it2 = connections_.find(addr);
    if (it2 != connections_.end() && it2->second == conn) connections_.erase(it2);
  }

  auto raw = std::make_shared<Connection>(host_.sched(), batch_);
  connections_[addr] = raw;
  try {
    // Bootstrap over the server's socket address (Section III-D),
    // exchanging eager thresholds in the endpoint-info blob, then
    // pre-post pooled receive buffers for eager traffic.
    // The durable session id (0 when sessions are off) rides the same
    // endpoint-info blob, so a reconnect re-announces it for free.
    std::uint64_t peer_threshold = 0;
    raw->qp = co_await cm_.connect(host_, addr, raw->cq, raw->cq,
                                   net::Transport::kIPoIB,
                                   static_cast<std::uint64_t>(cfg_.eager_threshold),
                                   &peer_threshold, session_id(host_));
    // min(local, peer): an eager SEND must fit buffers sized by *either*
    // end's knob. Peer 0 means "not advertised" (legacy bootstrap).
    raw->eager_threshold =
        peer_threshold == 0
            ? cfg_.eager_threshold
            : std::min(cfg_.eager_threshold, static_cast<std::size_t>(peer_threshold));
    if (peer_threshold != 0 && peer_threshold != cfg_.eager_threshold) {
      ++stats_.threshold_mismatches;
    }
    // Ring sizing from the *negotiated* handshake, not the construction
    // clamp (which only saw the local knob): a peer that advertised a
    // larger threshold can send eager frames up to its own advertisement
    // when our side reads as "not advertised" (threshold 0), so every
    // pre-posted buffer must cover the larger of the two advertisements
    // or an oversized eager response overruns the ring.
    const std::size_t ring_buf = std::max(
        cfg_.recv_buf_size,
        std::max(raw->eager_threshold, static_cast<std::size_t>(peer_threshold)) + 512);
    for (int i = 0; i < cfg_.recv_depth; ++i) {
      NativeBuffer* rb = native_.acquire(ring_buf);
      raw->qp->post_recv(wr_of(rb), rb->span);
    }
  } catch (const verbs::VerbsError& e) {
    // A verbs-level bootstrap failure (exchange went wrong, not a dead
    // server): surface it unchanged so call_attempt can fall back to
    // socket mode.
    raw->ready.set();
    fail_all(*raw, e.what());
    auto it = connections_.find(addr);
    if (it != connections_.end() && it->second == raw) connections_.erase(it);
    throw;
  } catch (const std::exception& e) {
    raw->ready.set();
    fail_all(*raw, e.what());
    auto it = connections_.find(addr);
    if (it != connections_.end() && it->second == raw) connections_.erase(it);
    throw rpc::RpcTransportError(e.what());
  }
  host_.sched().spawn(receive_loop(raw));
  raw->recovery = Recovery::kHealthy;
  raw->ready.set();
  ++stats_.connections_opened;
  co_return raw;
}

void RdmaRpcClient::note_reconnect(rpc::ReconnectCause cause) {
  // Reconnect accounting rides the session knob: with sessions off the
  // counters stay zero, the report grows no rows, and seeded sessionless
  // runs stay byte-identical to a build without the session layer.
  if (!session_.enabled) return;
  switch (cause) {
    case rpc::ReconnectCause::kPeerClosed: ++stats_.reconnects_peer_closed; break;
    case rpc::ReconnectCause::kQpError: ++stats_.reconnects_qp_error; break;
    case rpc::ReconnectCause::kIdleEvicted: ++stats_.reconnects_idle_evicted; break;
    case rpc::ReconnectCause::kFaultInjected: ++stats_.reconnects_fault_injected; break;
  }
  if (trace::TraceCollector* tr = trace::active(host_.tracer()); tr != nullptr) {
    const sim::Time now = host_.sched().now();
    tr->add_complete(std::string("reconnect.") + rpc::reconnect_cause_name(cause),
                     trace::Kind::kClient, trace::Category::kSession, {}, host_.id(),
                     now, now);
  }
}

void RdmaRpcClient::teardown_connection(const ConnectionPtr& conn, net::Address addr,
                                        rpc::ReconnectCause cause, const std::string& why) {
  if (conn->qp) {
    // Still-posted receive slots hold pooled buffers; reclaim them before
    // the QP breaks or the pool leaks a slot per pre-posted recv.
    for (std::uint64_t wr : conn->qp->drain_posted_recvs()) {
      if (NativeBuffer* b = buf_of(wr); b != nullptr) native_.release(b);
    }
    conn->qp->disconnect();
  }
  // NOT cancelled and the CQ stays open: completions already scheduled
  // (the in-flight kSend, READ completions, stale responses) still land,
  // and the still-running receive loop recycles their pooled buffers —
  // the pool balance survives the teardown. The loop parks harmlessly on
  // the open CQ afterwards.
  fail_all(*conn, why);
  note_reconnect(cause);
  auto it = connections_.find(addr);
  if (it != connections_.end() && it->second == conn) connections_.erase(it);
}

void RdmaRpcClient::repost_recv(const ConnectionPtr& conn, NativeBuffer* buf) {
  if (conn->broken || !conn->qp->connected()) {
    native_.release(buf);
    return;
  }
  conn->qp->post_recv(wr_of(buf), buf->span);
}

void RdmaRpcClient::deliver_response(const ConnectionPtr& conn, net::ByteSpan frame,
                                     NativeBuffer* buf, bool is_recv_slot) {
  // frame = [u8 kResp][u64 id][u8 status][...]
  std::uint64_t id = 0;
  for (int i = 0; i < 8; ++i) id = (id << 8) | frame[1 + static_cast<std::size_t>(i)];
  auto it = conn->pending.find(id);
  if (it == conn->pending.end()) {
    // Stale response; recycle the buffer.
    if (is_recv_slot) {
      repost_recv(conn, buf);
    } else {
      native_.release(buf);
    }
    return;
  }
  PendingCall* pc = it->second;
  conn->pending.erase(it);
  pc->resp = frame;
  pc->resp_buf = buf;
  pc->resp_is_recv_slot = is_recv_slot;
  pc->done.set();
}

sim::Task RdmaRpcClient::fetch_response(ConnectionPtr conn, std::uint32_t rkey,
                                        std::uint64_t off, std::uint32_t len) {
  NativeBuffer* dst = shadow_.acquire_sized(len);
  const std::uint64_t token = (conn->next_read_token++ << 1) | 1;
  sim::SimEvent read_done(host_.sched());
  conn->read_waiters[token] = &read_done;
  try {
    net::MutByteSpan into(dst->span.data(), len);
    co_await conn->qp->post_rdma_read(token, into, verbs::RemoteBuffer{rkey, off, len});
    co_await read_done.wait();  // receive_loop routes the completion here
    conn->read_waiters.erase(token);
    // Client torn down while the READ was in flight: the pool died with
    // it, so the lease cannot be returned — just stop.
    if (conn->cancelled) co_return;
    const ControlFrame ack = ControlFrame::ack(rkey);
    co_await conn->qp->post_send(wr_of(nullptr), ack.span());
    if (conn->cancelled) co_return;
    deliver_response(conn, net::ByteSpan(dst->span.data(), len), dst, /*is_recv_slot=*/false);
  } catch (const std::exception& e) {
    conn->read_waiters.erase(token);
    if (conn->cancelled) co_return;
    native_.release(dst);
    fail_all(*conn, e.what());
  }
}

sim::Task RdmaRpcClient::receive_loop(ConnectionPtr conn) {
  // Hoisted: this loop may outlive the client object; after a suspension
  // it re-checks conn->cancelled before touching client members.
  cluster::Host& host = host_;
  const cluster::CostModel& cm = host.cost();
  try {
    for (;;) {
      verbs::WorkCompletion wc = co_await conn->cq.wait();
      if (conn->cancelled) co_return;
      switch (wc.opcode) {
        case verbs::Opcode::kSend: {
          // Eager frame is on the wire; pooled source (if any) is reusable.
          if (NativeBuffer* b = buf_of(wc.wr_id); b != nullptr) native_.release(b);
          break;
        }
        case verbs::Opcode::kRdmaRead: {
          auto it = conn->read_waiters.find(wc.wr_id);
          if (it != conn->read_waiters.end()) {
            if (wc.status != 0) conn->read_errors.insert(wc.wr_id);
            it->second->set();
          }
          break;
        }
        case verbs::Opcode::kRecv: {
          NativeBuffer* rb = buf_of(wc.wr_id);
          net::ByteSpan frame(rb->span.data(), wc.byte_len);
          co_await host.compute(cm.cq_poll() + cm.thread_wakeup() + cm.rpc_framework());
          if (conn->cancelled) co_return;
          const auto type = static_cast<FrameType>(frame[0]);
          if (type == FrameType::kResp) {
            deliver_response(conn, frame, rb, /*is_recv_slot=*/true);
            // NOTE: reposted by the caller after deserialization.
          } else if (type == FrameType::kBatch) {
            // Server-coalesced eager responses: split into pooled copies
            // (each sub-response owns its buffer like a fetched response),
            // then recycle the receive slot. One copy charge covers the
            // whole frame.
            std::uint32_t count = 0;
            std::memcpy(&count, frame.data() + 1, 4);
            co_await host.compute(cm.direct_copy(wc.byte_len));
            if (conn->cancelled) co_return;
            std::size_t off = 5 + 4 * static_cast<std::size_t>(count);
            for (std::uint32_t i = 0; i < count; ++i) {
              std::uint32_t sub_len = 0;
              std::memcpy(&sub_len, frame.data() + 5 + 4 * static_cast<std::size_t>(i), 4);
              NativeBuffer* sub = shadow_.acquire_sized(sub_len);
              std::memcpy(sub->span.data(), frame.data() + off, sub_len);
              off += sub_len;
              deliver_response(conn, net::ByteSpan(sub->span.data(), sub_len), sub,
                               /*is_recv_slot=*/false);
            }
            repost_recv(conn, rb);
          } else if (type == FrameType::kCtrlResp) {
            std::uint32_t rkey = 0, len = 0;
            std::uint64_t off = 0;
            parse_control(frame, rkey, off, len);
            host_.sched().spawn(fetch_response(conn, rkey, off, len));
            repost_recv(conn, rb);
          } else if (type == FrameType::kNack) {
            // The server refused to RDMA-READ our rendezvous source (its
            // pool hit the demand-allocation cap). Wake the call, which
            // retries over the socket path.
            std::uint32_t rkey = 0;
            std::memcpy(&rkey, frame.data() + 1, 4);
            for (auto it = conn->pending.begin(); it != conn->pending.end(); ++it) {
              PendingCall* pc = it->second;
              if (pc->rendezvous_buf != nullptr && pc->rendezvous_buf->mr.rkey == rkey) {
                conn->pending.erase(it);
                pc->nacked = true;
                pc->done.set();
                break;
              }
            }
            repost_recv(conn, rb);
          } else {
            repost_recv(conn, rb);  // unknown frame; drop
          }
          break;
        }
        default:
          break;
      }
    }
  } catch (const sim::ChannelClosed&) {
    // Shutdown path.
  } catch (const verbs::VerbsError& e) {
    const bool was_broken = conn->broken;
    fail_all(*conn, e.what());
    if (!conn->cancelled && !was_broken) {
      note_reconnect(rpc::ReconnectCause::kQpError);
    }
  }
}

sim::Co<void> RdmaRpcClient::append_to_batch(ConnectionPtr conn, net::Bytes payload,
                                             const trace::TraceContext& ctx) {
  rpc::CallBatcher& b = conn->batcher;
  // Batch frames ride the eager path, so the whole frame must fit the
  // peer's pre-posted receive buffers: clamp the byte limit to the
  // negotiated threshold.
  const std::size_t limit = std::min(batch_.max_bytes, conn->eager_threshold);
  if (b.would_overflow(payload.size(), limit)) {
    ++stats_.batch_flush_full;
    co_await flush_batch(conn);
    if (conn->cancelled || conn->broken) co_return;
  }
  const bool was_empty = b.empty();
  if (was_empty && ctx.valid()) conn->batch_ctx = ctx;
  b.append(std::move(payload), host_.sched().now());
  ++stats_.batched_calls;
  if (b.full() || b.bytes() >= limit) {
    ++stats_.batch_flush_full;
    co_await flush_batch(conn);
  } else if (was_empty) {
    host_.sched().spawn(batch_timer(conn, b.epoch(), b.adaptive_linger()));
  }
}

sim::Task RdmaRpcClient::batch_timer(ConnectionPtr conn, std::uint64_t epoch,
                                     sim::Dur linger) {
  // A zero linger still suspends one scheduler tick, so same-timestamp
  // arrivals coalesce while a lone caller's flush happens "now".
  sim::Scheduler& sched = host_.sched();
  co_await sim::delay(sched, linger);
  if (conn->cancelled || conn->broken) co_return;
  const rpc::CallBatcher& b = conn->batcher;
  if (b.empty() || b.epoch() != epoch) co_return;  // a full() flush beat us
  if (linger > 0) {
    ++stats_.batch_flush_linger;
  } else {
    ++stats_.batch_flush_immediate;
  }
  co_await flush_batch(conn);
}

sim::Co<void> RdmaRpcClient::flush_batch(ConnectionPtr conn) {
  rpc::CallBatcher& b = conn->batcher;
  if (b.empty()) co_return;
  // Hoisted like receive_loop: the computes below may outlive the client.
  cluster::Host& host = host_;
  const cluster::CostModel& cm = host.cost();
  trace::TraceCollector* tr = trace::active(host.tracer());
  const trace::TraceContext ctx = std::exchange(conn->batch_ctx, {});
  const sim::Time t0 = host.sched().now();

  // Take the items before any suspension so a concurrent limit-flush
  // can't double-send them.
  std::vector<net::Bytes> items = b.take();
  std::size_t payload_bytes = 0;
  for (const net::Bytes& m : items) payload_bytes += m.size();
  // [u8 kBatch][u32 count][u32 len_i x count][kCall sub-frames...] encoded
  // straight into a pooled registered buffer — one doorbell for the lot.
  const std::size_t total = 5 + 4 * items.size() + payload_bytes;
  NativeBuffer* fb = shadow_.acquire_sized(total);
  net::Byte* p = fb->span.data();
  p[0] = static_cast<net::Byte>(FrameType::kBatch);
  const std::uint32_t count = static_cast<std::uint32_t>(items.size());
  std::memcpy(p + 1, &count, 4);
  std::size_t off = 5 + 4 * items.size();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::uint32_t len = static_cast<std::uint32_t>(items[i].size());
    std::memcpy(p + 5 + 4 * i, &len, 4);
    std::memcpy(p + off, items[i].data(), items[i].size());
    off += items[i].size();
  }
  const sim::Dur encode_cost = cm.direct_copy(total) + cm.jni_call();
  co_await host.compute(encode_cost);
  // Client torn down while we computed: the pool died with it, so the
  // lease cannot be returned — just stop.
  if (conn->cancelled) co_return;
  if (conn->broken) {
    native_.release(fb);
    co_return;
  }
  try {
    const net::ByteSpan wire(fb->span.data(), total);
    co_await conn->qp->post_send(wr_of(fb), wire);
    // fb is released by receive_loop at the kSend completion.
  } catch (const std::exception& e) {
    if (conn->cancelled) co_return;
    native_.release(fb);
    fail_all(*conn, e.what());
    co_return;
  }
  if (conn->cancelled) co_return;
  ++stats_.batches_sent;
  if (tr != nullptr && ctx.valid()) {
    tr->add_complete("batch.flush", trace::Kind::kClient, trace::Category::kSend, ctx,
                     host.id(), t0, host.sched().now());
  }
}

std::size_t RdmaRpcClient::ud_budget() const {
  // A datagram must fit the path MTU; eager semantics additionally cap
  // the inner frame at the local threshold (no handshake exists on the
  // connectionless path to negotiate one — server UD rings are sized for
  // a full MTU, so the MTU is the only hard wire limit).
  return std::min(cfg_.eager_threshold + kUdHeaderBytes, verbs::UdEndpoint::kMtu);
}

verbs::AddressHandle RdmaRpcClient::ud_target(const verbs::UdService& svc,
                                              std::uint64_t sid,
                                              std::uint64_t call_id) const {
  const std::size_t i = static_cast<std::size_t>((sid ^ call_id) % svc.qpns.size());
  return verbs::AddressHandle{svc.host, svc.qpns[i]};
}

RdmaRpcClient::UdStatePtr RdmaRpcClient::ud_state() {
  if (!ud_) {
    ud_ = std::make_shared<UdState>(host_.sched());
    ud_->ep = std::make_unique<verbs::UdEndpoint>(stack_, host_, ud_->cq, ud_->cq);
    // Ring buffers hold a GRH-prefixed full-MTU datagram each; the depth
    // bounds the client's registered-memory cost per the flat-state goal.
    const std::size_t ring_buf = verbs::UdEndpoint::kGrhBytes + verbs::UdEndpoint::kMtu;
    for (int i = 0; i < cfg_.ud.client_recv_depth; ++i) {
      NativeBuffer* rb = native_.acquire(ring_buf);
      ud_->ep->post_recv(wr_of(rb), rb->span);
    }
    host_.sched().spawn(ud_receive_loop(ud_));
  }
  return ud_;
}

sim::Task RdmaRpcClient::ud_receive_loop(UdStatePtr ud) {
  // Hoisted like receive_loop: the loop may outlive the client object and
  // re-checks ud->cancelled after every resumption.
  cluster::Host& host = host_;
  const cluster::CostModel& cm = host.cost();
  try {
    for (;;) {
      verbs::WorkCompletion wc = co_await ud->cq.wait();
      if (ud->cancelled) co_return;
      if (wc.opcode == verbs::Opcode::kSend) {
        if (NativeBuffer* b = buf_of(wc.wr_id); b != nullptr) native_.release(b);
        continue;
      }
      if (wc.opcode != verbs::Opcode::kRecv) continue;
      NativeBuffer* rb = buf_of(wc.wr_id);
      // Charge the poll + the copy out of the ring slot up front so the
      // demux below runs without a suspension between lookup and wakeup.
      co_await host.compute(cm.cq_poll() + cm.thread_wakeup() + cm.rpc_framework() +
                            cm.direct_copy(wc.byte_len));
      if (ud->cancelled) co_return;
      const std::size_t grh = verbs::UdEndpoint::kGrhBytes;
      if (wc.byte_len > grh + 9) {
        net::ByteSpan frame(rb->span.data() + grh, wc.byte_len - grh);
        if (static_cast<FrameType>(frame[0]) == FrameType::kResp) {
          std::uint64_t id = 0;
          for (int i = 0; i < 8; ++i) {
            id = (id << 8) | frame[1 + static_cast<std::size_t>(i)];
          }
          auto it = ud->pending.find(id);
          if (it != ud->pending.end()) {
            PendingCall* pc = it->second;
            ud->pending.erase(it);
            // Copy into a pooled buffer so the ring slot reposts
            // immediately; the caller releases the copy after
            // deserialization (never a recv slot on the UD path).
            NativeBuffer* copy = shadow_.acquire_sized(frame.size());
            std::memcpy(copy->span.data(), frame.data(), frame.size());
            pc->resp = net::ByteSpan(copy->span.data(), frame.size());
            pc->resp_buf = copy;
            pc->resp_is_recv_slot = false;
            pc->done.set();
            ++stats_.ud_responses_received;
          }
          // else: a late duplicate (the retry already completed) — drop;
          // server-side dedup guarantees it carries the same payload.
        }
      }
      if (!ud->cancelled && ud->ep) {
        ud->ep->post_recv(wr_of(rb), rb->span);
      } else {
        native_.release(rb);
      }
    }
  } catch (const sim::ChannelClosed&) {
    // Shutdown path.
  }
}

sim::Co<void> RdmaRpcClient::ud_append_to_batch(UdStatePtr ud, net::Address addr,
                                                net::Bytes payload,
                                                const trace::TraceContext& ctx) {
  auto it = ud_dests_.find(addr);
  if (it == ud_dests_.end()) {
    it = ud_dests_.emplace(addr, std::make_unique<UdDest>(batch_)).first;
  }
  UdDest& dest = *it->second;
  rpc::CallBatcher& b = dest.batcher;
  // The whole kUdCall datagram must fit the MTU: clamp the byte limit so
  // wrapper + batch headers (9 + 5 + 4*count) always fit in the slack.
  const std::size_t limit = std::min(
      batch_.max_bytes, std::min(cfg_.eager_threshold, verbs::UdEndpoint::kMtu - 512));
  if (b.would_overflow(payload.size(), limit)) {
    ++stats_.batch_flush_full;
    co_await ud_flush_batch(ud, addr);
    if (ud->cancelled) co_return;
  }
  const bool was_empty = b.empty();
  if (was_empty && ctx.valid()) dest.batch_ctx = ctx;
  b.append(std::move(payload), host_.sched().now());
  ++stats_.batched_calls;
  if (b.full() || b.bytes() >= limit) {
    ++stats_.batch_flush_full;
    co_await ud_flush_batch(ud, addr);
  } else if (was_empty) {
    host_.sched().spawn(ud_batch_timer(ud, addr, b.epoch(), b.adaptive_linger()));
  }
}

sim::Task RdmaRpcClient::ud_batch_timer(UdStatePtr ud, net::Address addr,
                                        std::uint64_t epoch, sim::Dur linger) {
  sim::Scheduler& sched = host_.sched();
  co_await sim::delay(sched, linger);
  if (ud->cancelled) co_return;
  auto it = ud_dests_.find(addr);
  if (it == ud_dests_.end()) co_return;
  const rpc::CallBatcher& b = it->second->batcher;
  if (b.empty() || b.epoch() != epoch) co_return;  // a full() flush beat us
  if (linger > 0) {
    ++stats_.batch_flush_linger;
  } else {
    ++stats_.batch_flush_immediate;
  }
  co_await ud_flush_batch(ud, addr);
}

sim::Co<void> RdmaRpcClient::ud_flush_batch(UdStatePtr ud, net::Address addr) {
  auto dit = ud_dests_.find(addr);
  if (dit == ud_dests_.end()) co_return;
  UdDest& dest = *dit->second;
  rpc::CallBatcher& b = dest.batcher;
  if (b.empty()) co_return;
  cluster::Host& host = host_;
  const cluster::CostModel& cm = host.cost();
  trace::TraceCollector* tr = trace::active(host.tracer());
  const trace::TraceContext ctx = std::exchange(dest.batch_ctx, {});
  const sim::Time t0 = host.sched().now();

  std::vector<net::Bytes> items = b.take();
  std::size_t payload_bytes = 0;
  for (const net::Bytes& m : items) payload_bytes += m.size();
  // [u8 kUdCall][u64 session][u8 kBatch][u32 count][u32 len_i][sub-frames]
  // — one datagram, one doorbell for the lot.
  const std::uint64_t sid = session_id(host_);
  const std::size_t total = kUdHeaderBytes + 5 + 4 * items.size() + payload_bytes;
  NativeBuffer* fb = shadow_.acquire_sized(total);
  net::Byte* p = fb->span.data();
  p[0] = static_cast<net::Byte>(FrameType::kUdCall);
  for (int i = 0; i < 8; ++i) {
    p[1 + i] = static_cast<net::Byte>((sid >> (8 * (7 - i))) & 0xff);
  }
  p[9] = static_cast<net::Byte>(FrameType::kBatch);
  const std::uint32_t count = static_cast<std::uint32_t>(items.size());
  std::memcpy(p + 10, &count, 4);
  std::size_t off = kUdHeaderBytes + 5 + 4 * items.size();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::uint32_t len = static_cast<std::uint32_t>(items[i].size());
    std::memcpy(p + 14 + 4 * i, &len, 4);
    std::memcpy(p + off, items[i].data(), items[i].size());
    off += items[i].size();
  }
  co_await host.compute(cm.direct_copy(total) + cm.jni_call());
  if (ud->cancelled) co_return;
  const verbs::UdService* svc = stack_.ud_service(addr);
  if (svc == nullptr || svc->qpns.empty() || !ud->ep) {
    // Service withdrawn (server stopped): the datagrams are "lost"; the
    // callers time out and their retries take the RC or socket path.
    native_.release(fb);
    co_return;
  }
  try {
    const net::ByteSpan wire(fb->span.data(), total);
    co_await ud->ep->post_send(wr_of(fb), ud_target(*svc, sid, b.epoch()), wire);
    // fb is released by ud_receive_loop at the kSend completion.
  } catch (const std::exception&) {
    if (ud->cancelled) co_return;
    // A failed post is indistinguishable from a lost datagram: drop it
    // and let the per-call timeouts drive the retries.
    native_.release(fb);
    co_return;
  }
  if (ud->cancelled) co_return;
  ++stats_.batches_sent;
  ++stats_.ud_datagrams_sent;
  if (tr != nullptr && ctx.valid()) {
    tr->add_complete("batch.flush", trace::Kind::kClient, trace::Category::kSend, ctx,
                     host.id(), t0, host.sched().now());
  }
}

sim::Co<bool> RdmaRpcClient::call_attempt_ud(net::Address addr, const verbs::UdService& svc,
                                             const rpc::MethodKey& key,
                                             const rpc::Writable& param,
                                             rpc::Writable* response,
                                             std::uint64_t call_id, bool retried,
                                             trace::TraceCollector* tr,
                                             const trace::TraceContext& t_parent) {
  co_await pool_ready_.wait();
  const cluster::CostModel& cm = host_.cost();
  const sim::Time t_start = host_.sched().now();
  trace::SpanScope rpc(tr, "rpc.ud:", key.method, trace::Kind::kClient,
                       trace::Category::kWire, t_parent, host_.id());
  const trace::TraceContext ctx = rpc.context();
  co_await host_.compute(cm.rpc_framework());

  // --- Serialize the whole datagram: wrapper + a complete kCall frame ---
  const std::uint64_t sid = session_id(host_);
  const sim::Time t_ser_start = host_.sched().now();
  RDMAOutputStream out(cm, shadow_, key);
  const std::uint64_t id = call_id;
  const sim::Time deadline =
      retry_.call_timeout > 0 ? host_.sched().now() + retry_.call_timeout : 0;
  try {
    out.write_u8(static_cast<std::uint8_t>(FrameType::kUdCall));
    out.write_u64(sid);
    out.write_u8(static_cast<std::uint8_t>(FrameType::kCall));
    std::uint64_t wire_id = id;
    if (ctx.valid()) wire_id |= trace::kWireTraceFlag;
    if (deadline != 0) wire_id |= trace::kWireDeadlineFlag;
    if (retried && session_.enabled) wire_id |= trace::kWireRetryFlag;
    out.write_u64(wire_id);
    if (ctx.valid()) {
      out.write_u64(ctx.trace_id);
      out.write_u64(ctx.span_id);
    }
    if (deadline != 0) out.write_u64(deadline);
    out.write_text(key.protocol);
    out.write_text(key.method);
    param.write(out);
  } catch (const PoolExhaustedError&) {
    // Let the RC path re-serialize and run its pool-exhaustion degrade
    // (socket fallback); the stream destructor returns the partial lease.
    rpc.end();
    co_return false;
  }
  co_await host_.compute(out.take_accrued());
  const sim::Time t_serialized = host_.sched().now();

  const std::uint64_t regets = out.regets();
  const std::size_t dg_len = out.length();
  const std::size_t msg_len = dg_len - kUdHeaderBytes;  // inner frame
  if (dg_len > ud_budget()) {
    // Too big for one datagram: release the lease and let the RC path
    // take it (eager-over-RC or rendezvous).
    native_.release(out.take_buffer());
    rpc.end();
    co_return false;
  }
  if (ctx.valid()) {
    tr->add_complete("serialize", trace::Kind::kInternal,
                     trace::Category::kSerialization, ctx, host_.id(), t_ser_start,
                     t_serialized);
  }
  const net::ByteSpan dg = out.data();
  NativeBuffer* buf = out.take_buffer();
  shadow_.update_history(key, dg_len);

  UdStatePtr ud = ud_state();
  PendingCall pc(host_.sched());
  ud->pending[id] = &pc;

  // --- Send: coalesced when small, else one datagram ---------------------
  const std::size_t batch_limit = std::min(
      batch_.max_bytes, std::min(cfg_.eager_threshold, verbs::UdEndpoint::kMtu - 512));
  const bool batchable = batch_.batchable(msg_len) && msg_len <= batch_limit;
  try {
    if (batchable) {
      // Append the *inner* frame: the flush re-wraps the batch in one
      // kUdCall header carrying the shared session id.
      net::Bytes payload(dg.begin() + kUdHeaderBytes, dg.end());
      native_.release(buf);
      buf = nullptr;
      co_await host_.compute(cm.direct_copy(msg_len));
      co_await ud_append_to_batch(ud, addr, std::move(payload), ctx);
    } else {
      co_await host_.compute(cm.jni_call());  // one JNI crossing per post
      co_await ud->ep->post_send(wr_of(buf), ud_target(svc, sid, id), dg);
      buf = nullptr;  // released by ud_receive_loop at the kSend completion
      ++stats_.ud_datagrams_sent;
    }
  } catch (const std::exception& e) {
    ud->pending.erase(id);
    if (buf != nullptr) native_.release(buf);
    throw rpc::RpcTransportError(e.what());
  }
  const sim::Time t_sent = host_.sched().now();
  if (ctx.valid()) {
    const trace::SpanId send = tr->add_complete(
        "send", trace::Kind::kInternal, trace::Category::kSend, ctx, host_.id(),
        t_serialized, t_sent);
    tr->annotate(send, "path", batchable ? "ud-batched" : "ud");
  }

  rpc::MethodProfile& prof = stats_.method(key);
  prof.mem_adjustments.add(static_cast<double>(regets));
  prof.serialize_us.add(sim::to_us(t_serialized - t_start));
  prof.send_us.add(sim::to_us(t_sent - t_serialized));
  prof.msg_bytes.add(static_cast<double>(msg_len));
  stats_.record_size(prof, static_cast<std::uint32_t>(msg_len));
  ++stats_.calls_sent;

  // --- Wait. A lost datagram (either direction) is pure silence: the
  // per-attempt timeout fires and the outer retry loop retransmits with
  // the retry flag set; the server's session-keyed retry cache makes the
  // re-execution window exactly-once. ------------------------------------
  if (const sim::Dur dl = retry_.call_timeout; dl > 0) {
    const bool completed = co_await pc.done.wait_for(dl);
    if (!completed) {
      // Unregister so a late response is dropped by the receive loop.
      ud->pending.erase(id);
      throw rpc::RpcTimeoutError("call timed out after " +
                                 std::to_string(sim::to_ms(dl)) + " ms");
    }
  } else {
    co_await pc.done.wait();
  }
  if (pc.transport_error) throw rpc::RpcTransportError(pc.error_msg);

  // --- Deserialize from the pooled copy ---------------------------------
  const sim::Time t_deser = host_.sched().now();
  RDMAInputStream in(cm, pc.resp.subspan(9));  // skip [type][id]
  const std::uint8_t status = in.read_u8();
  const bool is_error = status != static_cast<std::uint8_t>(rpc::RpcStatus::kSuccess);
  std::string error_msg;
  if (is_error) {
    error_msg = in.read_text();
  } else if (response != nullptr) {
    response->read_fields(in);
  }
  co_await host_.compute(in.take_accrued());
  if (ctx.valid()) {
    tr->add_complete("deserialize", trace::Kind::kInternal,
                     trace::Category::kSerialization, ctx, host_.id(), t_deser,
                     host_.sched().now());
  }
  native_.release(pc.resp_buf);
  if (status == static_cast<std::uint8_t>(rpc::RpcStatus::kSessionExpired)) {
    throw rpc::SessionExpiredException(error_msg);
  }
  if (status == static_cast<std::uint8_t>(rpc::RpcStatus::kBusy)) {
    throw rpc::ServerBusyException(error_msg);
  }
  if (is_error) throw rpc::RemoteException(error_msg);
  prof.total_us.add(sim::to_us(host_.sched().now() - t_start));
  rpc.end();
  co_return true;
}

sim::Co<void> RdmaRpcClient::call_via_fallback(net::Address addr, const rpc::MethodKey& key,
                                               const rpc::Writable& param,
                                               rpc::Writable* response) {
  if (!fallback_) {
    fallback_ = std::make_unique<rpc::SocketRpcClient>(host_, sockets_,
                                                       net::Transport::kIPoIB);
    // The fallback client enforces only the per-attempt deadline; retries
    // and backoff stay with this client's outer retry loop.
    rpc::RpcRetryPolicy attempt_only;
    attempt_only.call_timeout = retry_.call_timeout;
    fallback_->set_retry_policy(attempt_only);
    fallback_->set_batch(batch_);
    // The fallback endpoint is its own client and mints its own durable
    // session id; it only needs the same knob so its calls stay dedupable.
    fallback_->set_session(session_);
  }
  const net::Address companion{addr.host,
                               static_cast<std::uint16_t>(addr.port + kSocketFallbackPortOffset)};
  co_await fallback_->call(companion, key, param, response);
}

sim::Co<bool> RdmaRpcClient::call_attempt_onesided(net::Address addr,
                                                   const rpc::MethodKey& key,
                                                   const rpc::Writable& param,
                                                   rpc::Writable* response,
                                                   trace::TraceCollector* tr,
                                                   const trace::TraceContext& t_parent) {
  const std::optional<std::string> entity = param.onesided_key(key.protocol, key.method);
  if (!entity) co_return false;
  auto cached = onesided_cache_.find(addr);
  if (cached == onesided_cache_.end()) {
    const verbs::OneSidedService* adv = stack_.onesided_service(addr);
    if (adv == nullptr) co_return false;  // server exports no region
    cached = onesided_cache_.emplace(addr, *adv).first;
  }
  verbs::OneSidedService svc = cached->second;
  constexpr std::size_t kMeta =
      OneSidedRegion::kHeaderBytes + OneSidedRegion::kTrailerBytes;
  if (svc.slots == 0 || svc.slot_bytes <= kMeta) co_return false;
  ConnectionPtr conn;
  try {
    conn = co_await get_connection(addr);
  } catch (const verbs::VerbsError&) {
    co_return false;  // the RPC path owns bootstrap-failure fallback
  }
  // Connection-kill fault hook (mirrors the RPC send path): a scheduled
  // kill fires on the first attempt that touches the link, one-sided
  // READs included. The fallback RPC re-bootstraps and carries the call
  // through the session/retry machinery.
  if (net::FaultPlan* plan = stack_.fabric().fault_plan();
      plan != nullptr && plan->kills_enabled() && !conn->broken &&
      plan->take_kill(host_.id(), addr.host, host_.sched().now())) {
    teardown_connection(conn, addr, rpc::ReconnectCause::kFaultInjected,
                        "connection killed (injected fault)");
    ++stats_.onesided_fallbacks;
    co_return false;
  }
  const cluster::CostModel& cm = host_.cost();
  const sim::Time t_start = host_.sched().now();
  const std::uint64_t h =
      OneSidedRegion::hash_key(rpc::onesided_entry_key(key.protocol, key.method, *entity));

  NativeBuffer* dst = shadow_.try_acquire_sized(svc.slot_bytes);
  if (dst == nullptr) {
    ++stats_.onesided_fallbacks;  // capped pool refused the staging lease
    co_return false;
  }
  // Fallback ladder: seqlock conflict (bounded retries) -> stale
  // generation (one advertisement refresh) -> miss -> RPC. Every exit
  // below releases `dst` exactly once; a cancelled client is the one
  // exception — the pool died with it (same rule as fetch_response).
  bool refreshed = false;
  int conflicts = 0;
  for (;;) {
    const std::size_t slot = static_cast<std::size_t>(h % svc.slots);
    const std::uint64_t token = (conn->next_read_token++ << 1) | 1;
    sim::SimEvent read_done(host_.sched());
    conn->read_waiters[token] = &read_done;
    bool read_failed = false;
    try {
      co_await host_.compute(cm.jni_call());  // one JNI crossing per post
      net::MutByteSpan into(dst->span.data(), svc.slot_bytes);
      co_await conn->qp->post_rdma_read(
          token, into,
          verbs::RemoteBuffer{svc.rkey,
                              static_cast<std::uint64_t>(slot) * svc.slot_bytes,
                              svc.slot_bytes});
      co_await read_done.wait();  // receive_loop routes the completion here
      conn->read_waiters.erase(token);
      if (conn->cancelled) {
        throw rpc::RpcTransportError("client closed during one-sided read");
      }
      read_failed = conn->read_errors.erase(token) > 0;
    } catch (const rpc::RpcTransportError&) {
      throw;
    } catch (const std::exception&) {
      // QP dead (kill/teardown raced the post): let the RPC path
      // re-bootstrap and carry the call.
      conn->read_waiters.erase(token);
      if (!conn->cancelled) {
        native_.release(dst);
        ++stats_.onesided_fallbacks;
        co_return false;
      }
      throw rpc::RpcTransportError("client closed during one-sided read");
    }
    if (read_failed) break;  // remote region gone at the verbs layer
    const net::Byte* s = dst->span.data();
    std::uint64_t v1 = 0, gen = 0, slot_hash = 0, v2 = 0;
    std::uint32_t len = 0;
    std::memcpy(&v1, s, 8);
    std::memcpy(&gen, s + 8, 8);
    std::memcpy(&slot_hash, s + 16, 8);
    std::memcpy(&len, s + 24, 4);
    std::memcpy(&v2, s + svc.slot_bytes - 8, 8);
    if (v1 != v2 || (v1 & 1) != 0) {
      // Seqlock write window observed: retry within the budget, then
      // degrade — a write-hot entry must not spin.
      if (++conflicts > cfg_.onesided.max_version_retries) {
        ++stats_.onesided_conflict_fallbacks;
        break;
      }
      continue;
    }
    if (gen != svc.generation) {
      // Stale advertisement (the server re-exported; retired slots carry
      // generation 0) — refresh once, then degrade.
      const verbs::OneSidedService* fresh = stack_.onesided_service(addr);
      if (!refreshed && fresh != nullptr && fresh->generation != svc.generation &&
          fresh->slots != 0 && fresh->slot_bytes > kMeta) {
        refreshed = true;
        ++stats_.onesided_stale_refreshes;
        onesided_cache_[addr] = *fresh;
        svc = *fresh;
        if (svc.slot_bytes > dst->span.size()) {
          native_.release(dst);
          dst = shadow_.try_acquire_sized(svc.slot_bytes);
          if (dst == nullptr) {
            ++stats_.onesided_fallbacks;
            co_return false;
          }
        }
        continue;
      }
      break;
    }
    if (slot_hash != h || len == 0 ||
        len > svc.slot_bytes - kMeta) {
      // Empty slot, tombstone, or a direct-map collision with another key:
      // the entry is not published — fall back.
      ++stats_.onesided_misses;
      break;
    }
    // Consistent snapshot: deserialize the published response in place.
    ++stats_.onesided_reads;
    RDMAInputStream in(cm, net::ByteSpan(s + OneSidedRegion::kHeaderBytes, len));
    if (response != nullptr) response->read_fields(in);
    co_await host_.compute(in.take_accrued());
    native_.release(dst);
    if (tr != nullptr) {
      tr->add_complete("onesided:" + key.method, trace::Kind::kClient,
                       trace::Category::kOneSided, t_parent, host_.id(), t_start,
                       host_.sched().now());
    }
    co_return true;
  }
  native_.release(dst);
  ++stats_.onesided_fallbacks;
  if (tr != nullptr) {
    tr->add_complete("onesided.fallback:" + key.method, trace::Kind::kClient,
                     trace::Category::kOneSided, t_parent, host_.id(), t_start,
                     host_.sched().now());
  }
  co_return false;
}

sim::Co<void> RdmaRpcClient::call_attempt(net::Address addr, const rpc::MethodKey& key,
                                          const rpc::Writable& param,
                                          rpc::Writable* response, std::uint64_t call_id,
                                          bool retried) {
  // Consume the ambient trace parent before the first suspension point
  // (see trace.hpp's propagation discipline).
  trace::TraceCollector* tr = trace::active(host_.tracer());
  const trace::TraceContext t_parent =
      tr != nullptr ? tr->take_ambient() : trace::TraceContext{};
  if (fallback_addrs_.count(addr) != 0) {
    trace::activate(tr, t_parent);
    co_await call_via_fallback(addr, key, param, response);
    co_return;
  }
  // One-sided fast path (onesided.enabled): eligible read-mostly lookups
  // resolve against the server's exported seqlock region with a single
  // RDMA READ, bypassing its admission/handler chain entirely. A false
  // return (miss, conflict budget spent, stale generation, staging lease
  // refused) degrades to the normal RPC path below.
  if (cfg_.onesided.enabled) {
    const bool handled =
        co_await call_attempt_onesided(addr, key, param, response, tr, t_parent);
    if (handled) co_return;
  }
  // UD eager path (ud.enabled): sub-MTU calls ride connectionless
  // datagrams to the server's advertised UD endpoint pool — no RC
  // bootstrap, no per-connection server state. A false return means the
  // call did not fit the datagram budget (or the pool refused the lease)
  // and falls through to the RC path below.
  if (cfg_.ud.enabled) {
    if (const verbs::UdService* svc = stack_.ud_service(addr);
        svc != nullptr && !svc->qpns.empty()) {
      const bool handled = co_await call_attempt_ud(addr, *svc, key, param, response,
                                                    call_id, retried, tr, t_parent);
      if (handled) co_return;
      ++stats_.ud_rc_fallbacks;
    }
  }
  const cluster::CostModel& cm = host_.cost();
  const sim::Time t_start = host_.sched().now();
  trace::SpanScope rpc(tr, "rpc:", key.method, trace::Kind::kClient,
                       trace::Category::kWire, t_parent, host_.id());
  const trace::TraceContext ctx = rpc.context();
  ConnectionPtr conn;
  bool bootstrap_failed = false;  // co_await is not allowed inside a handler
  try {
    conn = co_await get_connection(addr);
  } catch (const verbs::VerbsError& e) {
    if (!cfg_.fallback_to_socket) throw rpc::RpcTransportError(e.what());
    // Bootstrap exchange failed at the verbs layer: this address drops to
    // socket mode for the rest of the session (Section III-D's escape
    // hatch), starting with this very call.
    fallback_addrs_.insert(addr);
    ++stats_.socket_fallbacks;
    if (tr != nullptr) {
      tr->add_complete("fault.bootstrap:" + key.method, trace::Kind::kClient,
                       trace::Category::kFault, ctx, host_.id(), t_start,
                       host_.sched().now());
    }
    bootstrap_failed = true;
  }
  if (bootstrap_failed) {
    rpc.end();
    trace::activate(tr, t_parent);
    co_await call_via_fallback(addr, key, param, response);
    co_return;
  }
  // Shared Hadoop RPC framework cost (call table, synchronization) — the
  // same charge the socket path pays; RPCoIB only removes buffer and
  // transport overheads, not the framework around them.
  co_await host_.compute(cm.rpc_framework());

  // --- Serialization: directly into a pooled, registered buffer ---------
  const sim::Time t_ser_start = host_.sched().now();
  RDMAOutputStream out(cm, shadow_, key);
  const std::uint64_t id = call_id;
  // Same deadline stamping as the socket client: only with a configured
  // call timeout, so the default wire format stays byte-identical.
  const sim::Time deadline =
      retry_.call_timeout > 0 ? host_.sched().now() + retry_.call_timeout : 0;
  bool pool_exhausted = false;
  try {
    out.write_u8(static_cast<std::uint8_t>(FrameType::kCall));
    std::uint64_t wire_id = id;
    if (ctx.valid()) wire_id |= trace::kWireTraceFlag;
    if (deadline != 0) wire_id |= trace::kWireDeadlineFlag;
    // Mark retried attempts so the server can refuse them (instead of
    // re-executing) when the session that held the dedup state is gone.
    if (retried && session_.enabled) wire_id |= trace::kWireRetryFlag;
    out.write_u64(wire_id);
    if (ctx.valid()) {
      // Flagged id announces two extra context words; untraced calls keep
      // the seed wire format byte-for-byte.
      out.write_u64(ctx.trace_id);
      out.write_u64(ctx.span_id);
    }
    if (deadline != 0) out.write_u64(deadline);
    out.write_text(key.protocol);
    out.write_text(key.method);
    param.write(out);
  } catch (const PoolExhaustedError&) {
    // A mid-serialization re-get was refused by the capped pool: degrade
    // to the socket path for this one call, exactly like a rendezvous
    // NACK (non-sticky — the next call tries RDMA again). The stream's
    // destructor returns the partial buffer.
    pool_exhausted = true;
  }
  if (pool_exhausted) {
    ++stats_.nack_fallbacks;
    if (tr != nullptr) {
      tr->add_complete("overload.pool:" + key.method, trace::Kind::kClient,
                       trace::Category::kOverload, ctx, host_.id(), t_ser_start,
                       host_.sched().now());
    }
    rpc.end();
    if (!cfg_.fallback_to_socket) {
      throw rpc::ServerBusyException("client buffer pool exhausted");
    }
    trace::activate(tr, t_parent);
    co_await call_via_fallback(addr, key, param, response);
    co_return;
  }
  co_await host_.compute(out.take_accrued());
  const sim::Time t_serialized = host_.sched().now();
  if (ctx.valid()) {
    const trace::SpanId ser = tr->add_complete(
        "serialize", trace::Kind::kInternal, trace::Category::kSerialization, ctx,
        host_.id(), t_ser_start, t_serialized);
    // Pool acquire (initial lease + one re-get per size-history miss) is
    // the RPCoIB replacement for heap allocation; carve it out of the
    // serialization window so the report shows it separately.
    sim::Dur acq = sim::from_us(RDMAOutputStream::kAcquireUs) * (1 + out.regets());
    acq = std::min<sim::Dur>(acq, t_serialized - t_ser_start);
    tr->add_complete("pool.acquire", trace::Kind::kInternal, trace::Category::kBuffer,
                     tr->context_of(ser), host_.id(), t_ser_start, t_ser_start + acq);
  }

  const std::uint64_t regets = out.regets();
  const std::size_t msg_len = out.length();
  const net::ByteSpan msg = out.data();
  NativeBuffer* buf = out.take_buffer();
  shadow_.update_history(key, msg_len);

  PendingCall pc(host_.sched());
  conn->pending[id] = &pc;

  // --- Hybrid send: coalesced when small, eager below the negotiated
  // threshold, rendezvous above ------------------------------------------
  const std::size_t batch_limit = std::min(batch_.max_bytes, conn->eager_threshold);
  const bool batchable = batch_.batchable(msg_len) && msg_len <= batch_limit;
  try {
    if (batchable) {
      if (conn->broken) throw rpc::RpcTransportError("connection broken");
      // Coalescing copies the serialized frame out of the pooled buffer so
      // the lease returns immediately; the batch amortizes the per-call
      // doorbell + JNI crossing that the copy replaces.
      net::Bytes payload(msg.begin(), msg.end());
      native_.release(buf);
      buf = nullptr;
      co_await host_.compute(cm.direct_copy(msg_len));
      co_await append_to_batch(conn, std::move(payload), ctx);
    } else if (msg_len <= conn->eager_threshold) {
      co_await host_.compute(cm.jni_call());  // one JNI crossing per post
      co_await conn->qp->post_send(wr_of(buf), msg);
      buf = nullptr;  // released by receive_loop at the kSend completion
    } else {
      co_await host_.compute(cm.jni_call());  // one JNI crossing per post
      // Track the leased source on the pending call (not just this frame)
      // so fail_all() can return it to the pool if the connection dies
      // while the rendezvous is in flight.
      pc.rendezvous_buf = buf;
      buf = nullptr;
      const ControlFrame ctrl = ControlFrame::make(
          FrameType::kCtrlCall, pc.rendezvous_buf->mr.rkey,
          static_cast<std::uint64_t>(msg.data() - pc.rendezvous_buf->mr.addr),
          static_cast<std::uint32_t>(msg_len));
      co_await conn->qp->post_send(wr_of(nullptr), ctrl.span());
      // The lease holds until the response arrives (implicit ack).
    }
  } catch (const std::exception& e) {
    conn->pending.erase(id);
    if (buf != nullptr) native_.release(buf);
    release_rendezvous(pc);
    if (session_.enabled && !conn->cancelled && !conn->broken) {
      // The post failed with the QP in error state mid-call: tear the
      // connection down now so the retry re-bootstraps instead of landing
      // on the dead QP again. (Sessionless builds keep the lazy detection
      // at the next get_connection, byte-identical to the old behavior.)
      teardown_connection(conn, addr, rpc::ReconnectCause::kQpError, e.what());
    }
    throw rpc::RpcTransportError(e.what());
  }
  // Connection-kill fault hook: the request is on the wire, so the server
  // side may execute it — the retry that follows this teardown is exactly
  // the duplicate-execution window the session-keyed retry cache closes.
  if (net::FaultPlan* plan = stack_.fabric().fault_plan();
      plan != nullptr && plan->kills_enabled() && !conn->broken &&
      plan->take_kill(host_.id(), addr.host, host_.sched().now())) {
    teardown_connection(conn, addr, rpc::ReconnectCause::kFaultInjected,
                        "connection killed (injected fault)");
  }
  const sim::Time t_sent = host_.sched().now();
  if (ctx.valid()) {
    const trace::SpanId send = tr->add_complete(
        "send", trace::Kind::kInternal, trace::Category::kSend, ctx, host_.id(),
        t_serialized, t_sent);
    tr->annotate(send, "path",
                 batchable ? "batched"
                           : (msg_len <= conn->eager_threshold ? "eager" : "rendezvous"));
  }

  rpc::MethodProfile& prof = stats_.method(key);
  prof.mem_adjustments.add(static_cast<double>(regets));
  prof.serialize_us.add(sim::to_us(t_serialized - t_start));
  prof.send_us.add(sim::to_us(t_sent - t_serialized));
  prof.msg_bytes.add(static_cast<double>(msg_len));
  stats_.record_size(prof, static_cast<std::uint32_t>(msg_len));
  ++stats_.calls_sent;

  if (const sim::Dur deadline = retry_.call_timeout; deadline > 0) {
    const bool completed = co_await pc.done.wait_for(deadline);
    if (!completed) {
      // Unregister so a late response is recycled by the receive loop, and
      // reclaim the rendezvous source: the peer's READ window is gone.
      conn->pending.erase(id);
      release_rendezvous(pc);
      throw rpc::RpcTimeoutError("call timed out after " +
                                 std::to_string(sim::to_ms(deadline)) + " ms");
    }
  } else {
    co_await pc.done.wait();
  }
  release_rendezvous(pc);  // rendezvous source: response doubles as the ack
  if (pc.nacked) {
    // Graceful degradation: the server's registered-buffer pool is capped
    // out, so this call transparently reroutes to the companion socket
    // listener (non-sticky — the next call tries RDMA again).
    ++stats_.nack_fallbacks;
    if (tr != nullptr) {
      tr->add_complete("overload.nack:" + key.method, trace::Kind::kClient,
                       trace::Category::kOverload, ctx, host_.id(), t_sent,
                       host_.sched().now());
    }
    rpc.end();
    if (!cfg_.fallback_to_socket) {
      throw rpc::ServerBusyException("rendezvous NACK: server buffer pool exhausted");
    }
    trace::activate(tr, t_parent);
    co_await call_via_fallback(addr, key, param, response);
    co_return;
  }
  if (pc.transport_error) throw rpc::RpcTransportError(pc.error_msg);

  // --- Deserialize in place from the registered buffer ------------------
  const sim::Time t_deser = host_.sched().now();
  RDMAInputStream in(cm, pc.resp.subspan(9));  // skip [type][id]
  const std::uint8_t status = in.read_u8();
  const bool is_error = status != static_cast<std::uint8_t>(rpc::RpcStatus::kSuccess);
  std::string error_msg;
  if (is_error) {
    error_msg = in.read_text();
  } else if (response != nullptr) {
    response->read_fields(in);
  }
  co_await host_.compute(in.take_accrued());
  if (ctx.valid()) {
    tr->add_complete("deserialize", trace::Kind::kInternal,
                     trace::Category::kSerialization, ctx, host_.id(), t_deser,
                     host_.sched().now());
  }
  if (pc.resp_is_recv_slot) {
    repost_recv(conn, pc.resp_buf);
  } else {
    native_.release(pc.resp_buf);
  }
  if (status == static_cast<std::uint8_t>(rpc::RpcStatus::kSessionExpired)) {
    // Terminal: the server could not prove the first attempt never
    // executed, so the retry loop must not re-send this logical call.
    throw rpc::SessionExpiredException(error_msg);
  }
  if (status == static_cast<std::uint8_t>(rpc::RpcStatus::kBusy)) {
    throw rpc::ServerBusyException(error_msg);
  }
  if (is_error) throw rpc::RemoteException(error_msg);
  prof.total_us.add(sim::to_us(host_.sched().now() - t_start));
  rpc.end();
}

}  // namespace rpcoib::oib
