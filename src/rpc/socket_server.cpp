#include "rpc/socket_server.hpp"

#include <cstring>
#include <utility>

#include "rpc/buffers.hpp"
#include "trace/trace.hpp"

namespace rpcoib::rpc {

namespace {
/// Releases a Reader slot on scope exit (including exceptional exits).
class ReaderSlotGuard {
 public:
  explicit ReaderSlotGuard(sim::Semaphore& sem) : sem_(sem) {}
  ReaderSlotGuard(const ReaderSlotGuard&) = delete;
  ReaderSlotGuard& operator=(const ReaderSlotGuard&) = delete;
  ~ReaderSlotGuard() { sem_.release(); }

 private:
  sim::Semaphore& sem_;
};
}  // namespace

SocketRpcServer::SocketRpcServer(cluster::Host& host, net::SocketTable& sockets,
                                 net::Address addr, int num_handlers, int num_readers,
                                 int num_shards)
    : host_(host),
      sockets_(sockets),
      addr_(addr),
      num_handlers_(num_handlers),
      num_readers_(num_readers),
      num_shards_(num_shards < 1 ? 1 : num_shards) {}

SocketRpcServer::~SocketRpcServer() { stop(); }

void SocketRpcServer::start() {
  if (running_) return;
  running_ = true;
  retire_shards(shards_, retired_shards_);
  for (int i = 0; i < num_shards_; ++i) {
    shards_.push_back(std::make_unique<Shard>(host_, static_cast<std::uint32_t>(i), overload_,
                                              num_readers_, session_));
  }
  listener_ = &sockets_.listen(addr_);
  host_.sched().spawn(listener_loop());
  // Handlers split across shards (every shard keeps at least one); with
  // one shard the ids and spawn order are exactly the unsharded server's.
  int handler_id = 0;
  for (int i = 0; i < num_shards_; ++i) {
    int mine = num_handlers_ / num_shards_ + (i < num_handlers_ % num_shards_ ? 1 : 0);
    if (mine < 1) mine = 1;
    for (int h = 0; h < mine; ++h) {
      host_.sched().spawn(handler_loop(*shards_[static_cast<std::size_t>(i)], handler_id++));
    }
    host_.sched().spawn(responder_loop(*shards_[static_cast<std::size_t>(i)]));
  }
}

void SocketRpcServer::stop() {
  if (!running_) return;
  running_ = false;
  sockets_.unlisten(addr_);
  listener_ = nullptr;
  // Queued-but-unexecuted calls must not vanish silently: every shard
  // drains with accounting. Their callers observe a transport error when
  // the connections close below, so every dropped call is surfaced.
  for (auto& sh : shards_) {
    (void)sh->pipeline.drain();
    sh->pipeline.close();
  }
  for (auto& sh : shards_) {
    for (net::SocketPtr& c : sh->conns) c->close();
    sh->conns.clear();
  }
  // Accepted connections still parked on the preamble (sessions route to
  // a shard only after the handshake) live in no shard's list yet; close
  // them too so their reader tasks unwind instead of pending forever.
  for (net::SocketPtr& c : pending_conns_) c->close();
  pending_conns_.clear();
  // Executed-but-unsent responses are equally accounted: the handler ran,
  // but the responder never wrote the frame (callers see the closed
  // connection as a transport error and may retry via the retry cache).
  for (auto& sh : shards_) {
    Response resp;
    while (sh->response_queue.try_recv(resp)) {
      ++sh->pipeline.stats().responses_dropped_on_stop;
    }
    sh->response_queue.close();
  }
}

RpcStats& SocketRpcServer::stats() {
  fold_shard_stats(shards_, stats_);
  return stats_;
}

const RpcStats& SocketRpcServer::stats() const {
  return const_cast<SocketRpcServer*>(this)->stats();
}

sim::Task SocketRpcServer::listener_loop() {
  net::Listener* l = listener_;
  try {
    for (;;) {
      net::SocketPtr conn = co_await l->accept();
      const std::uint64_t conn_id = ++conn_seq_;
      // Stable affinity: a connection's shard is a pure function of its
      // dense id, so reconnects and seeded replays land deterministically.
      // With sessions enabled the shard is instead a function of the
      // session id carried in the preamble, so the reader picks it after
      // the handshake — a reconnecting client must land on the shard that
      // holds its session lease and retry-cache entries.
      Shard* home = nullptr;
      if (!session_.enabled) {
        home = shards_[(conn_id - 1) % shards_.size()].get();
        ++home->pipeline.counters().conns_assigned;
        home->conns.push_back(conn);
      } else {
        // Until the preamble names the session (and thus the shard), park
        // the socket where stop() can still find and close it.
        pending_conns_.push_back(conn);
      }
      host_.sched().spawn(reader_loop(std::move(conn), conn_id, home));
    }
  } catch (const sim::ChannelClosed&) {
    // stop() shut the listener down.
  }
}

net::Bytes SocketRpcServer::status_frame(std::uint64_t id, RpcStatus status,
                                         const std::string& msg) {
  const cluster::CostModel& cm = host_.cost();
  BufferedOutputStream frame(cm);
  DataOutputBuffer hdr(cm, kClientInitialBuffer);
  hdr.write_u64(id);
  hdr.write_u8(static_cast<std::uint8_t>(status));
  hdr.write_text(msg);
  frame.write_u32(static_cast<std::uint32_t>(hdr.length()));
  frame.write_payload(hdr.data());
  frame.flush();
  // Shedding is meant to be cheap: no CPU is modeled for the tiny frame.
  (void)hdr.take_accrued();
  (void)frame.take_accrued();
  return frame.take_pending();
}

sim::Co<void> SocketRpcServer::shed(Shard& shard, ServerCall call) {
  shard.pipeline.note_shed();
  if (call.head.ctx.valid()) {
    if (trace::TraceCollector* tr = trace::active(host_.tracer())) {
      tr->add_complete("overload.shed:" + call.head.key.method, trace::Kind::kServer,
                       trace::Category::kOverload, call.head.ctx, host_.id(),
                       call.enqueued != 0 ? call.enqueued : call.recv_start,
                       host_.sched().now());
    }
  }
  shard.response_queue.push(Response{
      call.conn, status_frame(call.head.id, RpcStatus::kBusy, "server busy: call queue full")});
  co_return;
}

void SocketRpcServer::unpend(const net::SocketPtr& conn) {
  for (auto it = pending_conns_.begin(); it != pending_conns_.end(); ++it) {
    if (*it == conn) {
      pending_conns_.erase(it);
      return;
    }
  }
}

sim::Task SocketRpcServer::reader_loop(net::SocketPtr conn, std::uint64_t conn_id,
                                       Shard* home) {
  const cluster::CostModel& cm = host_.cost();
  try {
    // The connection's receive CPU is paid inside the Reader critical
    // section below, as on a real selector-driven Reader thread.
    conn->set_deferred_rx_charge(true);
    // Connection preamble ("hrpc" + version). Version 5 appends the
    // client's 64-bit durable session id; version 4 is sessionless.
    net::Bytes magic(5);
    co_await conn->read_full(magic);
    std::uint64_t session_id = 0;
    if (magic[4] == net::Byte{5}) {
      net::Bytes sid_buf(8);
      co_await conn->read_full(sid_buf);
      std::memcpy(&session_id, sid_buf.data(), sizeof(session_id));
    }
    // Ignore an advertised session when the feature is off locally: the
    // call path stays byte-identical to a sessionless build.
    if (!session_.enabled) session_id = 0;
    if (home == nullptr) {
      // Session-affine shard choice (sessionless connections keep the
      // dense-id mapping, so mixed workloads stay deterministic).
      const std::size_t pick = session_id != 0
                                   ? static_cast<std::size_t>(session_id % shards_.size())
                                   : static_cast<std::size_t>((conn_id - 1) % shards_.size());
      home = shards_[pick].get();
      ++home->pipeline.counters().conns_assigned;
      home->conns.push_back(conn);
      unpend(conn);  // homed: the shard's conns list owns closing it now
    }
    Shard& shard = *home;

    for (;;) {
      // Listing 2, lines 3-5: 4-byte length buffer. Waiting for the call
      // to start arriving is idle time; once readable, the connection's
      // processing serializes through the shard's Reader thread pool
      // (default 1, Hadoop's selector model) — the socket server's
      // throughput cap, and the contention point sharding splits.
      net::Bytes len_buf(4);
      co_await conn->read_full(len_buf);
      co_await shard.reader_slots.acquire();
      // From here to release() any exception must free the Reader slot.
      ReaderSlotGuard slot_guard(shard.reader_slots);
      const sim::Time t_recv_start = host_.sched().now();
      sim::Dur alloc_cost = cm.heap_alloc(4);
      co_await host_.compute(conn->take_rx_charge() + cm.selector() + 2 * cm.syscall() +
                              cm.heap_alloc(4));
      DataInputBuffer len_in(cm, len_buf);
      const std::uint32_t len = len_in.read_u32();

      // Listing 2, lines 6-8: fresh per-call data buffer + full read +
      // native->heap copy.
      net::Bytes frame(len);
      alloc_cost += cm.heap_alloc(len);
      co_await host_.compute(cm.heap_alloc(len));
      co_await conn->read_full(frame);
      co_await host_.compute(conn->take_rx_charge() + cm.native_copy(len));

      // A first word carrying kWireBatchFlag marks a client-coalesced
      // multi-call frame; split it and run every sub-call through the
      // same admission/enqueue path as a standalone frame. The whole
      // batch paid the selector + syscall cost once above — the win the
      // coalescing exists for. Batch frames are always understood; the
      // local config only gates what this server *emits*.
      DataInputBuffer peek(cm, frame);
      const std::uint64_t first = peek.read_u64();
      if ((first & trace::kWireBatchFlag) != 0) {
        ++shard.pipeline.stats().batches_received;
        const std::size_t count = first & kWireBatchCountMask;
        std::vector<std::uint32_t> lens(count);
        for (std::size_t i = 0; i < count; ++i) lens[i] = peek.read_u32();
        std::size_t off = peek.position();
        co_await host_.compute(peek.take_accrued());
        trace::TraceContext first_ctx{};
        for (std::size_t i = 0; i < count; ++i) {
          net::Bytes sub(frame.begin() + static_cast<std::ptrdiff_t>(off),
                         frame.begin() + static_cast<std::ptrdiff_t>(off + lens[i]));
          off += lens[i];
          ++shard.pipeline.stats().batched_calls_received;
          const sim::Dur sub_alloc = cm.heap_alloc(lens[i]);
          co_await host_.compute(sub_alloc);
          const trace::TraceContext ctx =
              co_await process_frame(conn, conn_id, session_id, shard, std::move(sub),
                                     t_recv_start, alloc_cost + sub_alloc);
          if (!first_ctx.valid()) first_ctx = ctx;
        }
        if (first_ctx.valid()) {
          if (trace::TraceCollector* tr = trace::active(host_.tracer())) {
            tr->add_complete("batch.parse", trace::Kind::kServer, trace::Category::kRecv,
                             first_ctx, host_.id(), t_recv_start, host_.sched().now());
          }
        }
      } else {
        co_await process_frame(conn, conn_id, session_id, shard, std::move(frame),
                               t_recv_start, alloc_cost);
      }
    }
  } catch (const net::SocketError&) {
    // Peer went away; connection reader exits. A conn that died during
    // the preamble is still on the pending list — drop it (no-op once
    // homed).
    unpend(conn);
  } catch (const sim::ChannelClosed&) {
    unpend(conn);
  }
}

sim::Co<trace::TraceContext> SocketRpcServer::process_frame(
    net::SocketPtr conn, std::uint64_t conn_id, std::uint64_t session_id, Shard& shard,
    net::Bytes frame, sim::Time t_recv_start, sim::Dur alloc_cost) {
  const cluster::CostModel& cm = host_.cost();
  // Parse the call header; param bytes stay in place in `frame`.
  DataInputBuffer in(cm, frame);
  ServerCall call;
  call.recv_start = t_recv_start;
  call.recv_alloc = alloc_cost;
  call.head = read_call_head(in);
  call.param_off = in.position();
  co_await host_.compute(in.take_accrued());
  const trace::TraceContext ctx = call.head.ctx;
  if (ctx.valid()) {
    if (trace::TraceCollector* tr = trace::active(host_.tracer())) {
      tr->add_complete("recv:" + call.head.key.method, trace::Kind::kServer,
                       trace::Category::kRecv, ctx, host_.id(), t_recv_start,
                       host_.sched().now());
    }
  }
  call.conn = std::move(conn);
  call.head.session_id = session_id;
  call.head.owner = session_id != 0 ? session_id : conn_id;
  call.frame = std::move(frame);
  shard.touch_session(session_id, call.head.retried, call.head.id, host_.sched().now());
  sim::Co<void> admitted = shard.pipeline.admit(
      std::move(call),
      [this, &shard](ServerCall busy) { return shed(shard, std::move(busy)); });
  co_await admitted;
  co_return ctx;
}

sim::Task SocketRpcServer::handler_loop(Shard& shard, int /*handler_id*/) {
  const cluster::CostModel& cm = host_.cost();
  try {
    for (;;) {
      ServerCall call = co_await shard.pipeline.queue().recv();
      shard.pipeline.note_dequeued(call);
      const CallHead& head = call.head;
      const sim::Time t_dequeue = host_.sched().now();
      trace::TraceCollector* tr = head.ctx.valid() ? trace::active(host_.tracer()) : nullptr;
      const Screen screen = shard.screen(head, call.enqueued, t_dequeue, t_dequeue, tr);
      if (screen.verdict == Verdict::kSessionRejected) {
        shard.response_queue.push(
            Response{call.conn, status_frame(head.id, RpcStatus::kSessionExpired,
                                             "session expired: retry cannot be deduplicated")});
      } else if (screen.verdict == Verdict::kReplay) {
        shard.response_queue.push(Response{call.conn, *screen.replay});
      }
      if (screen.verdict != Verdict::kExecute) continue;

      trace::SpanScope handle(tr, "handle:", head.key.method, trace::Kind::kServer,
                              trace::Category::kHandler, head.ctx, host_.id());
      co_await host_.compute(cm.thread_wakeup() + cm.rpc_framework());

      // Deserialize the param and invoke the method; the server-side
      // output buffer starts at 10 KB (Section II-A).
      DataInputBuffer in(cm, net::ByteSpan(call.frame).subspan(call.param_off));
      in.trace_context = handle.context();
      DataOutputBuffer out(cm, kServerInitialBuffer);
      bool error = false;
      std::string error_msg;
      const MethodHandler* handler = dispatcher_.find(head.key);
      if (handler == nullptr) {
        error = true;
        error_msg = "unknown method " + head.key.to_string();
      } else {
        try {
          co_await (*handler)(in, out);
        } catch (const std::exception& e) {
          error = true;
          error_msg = e.what();
        }
      }
      co_await host_.compute(in.take_accrued() + out.take_accrued());

      // The receive path per Listing 2 runs through deserialization;
      // Fig. 1 compares its allocation share to its total duration.
      shard.pipeline.stats().recv_alloc_us.add(
          sim::to_us(call.recv_alloc + in.take_alloc_accrued()));
      shard.pipeline.stats().recv_total_us.add(
          sim::to_us(host_.sched().now() - call.recv_start));

      // Frame the response: [len][id][status][value|error text].
      BufferedOutputStream frame(cm);
      DataOutputBuffer hdr(cm, kClientInitialBuffer);
      hdr.write_u64(head.id);
      hdr.write_u8(error ? 1 : 0);
      if (error) hdr.write_text(error_msg);
      const std::uint32_t total =
          static_cast<std::uint32_t>(hdr.length() + (error ? 0 : out.length()));
      frame.write_u32(total);
      frame.write_payload(hdr.data());
      if (!error) frame.write_payload(out.data());
      frame.flush();
      co_await host_.compute(hdr.take_accrued() + frame.take_accrued() + cm.rpc_framework());

      handle.end();
      net::Bytes wire = frame.take_pending();
      // Executed past the caller's deadline: the response would be ignored,
      // so don't spend the Responder + wire on it.
      if (shard.record(head, Outcome::kAnswered, wire, host_.sched().now(), tr)) {
        shard.response_queue.push(Response{call.conn, std::move(wire)});
      }
      ++shard.pipeline.stats().calls_handled;
    }
  } catch (const sim::ChannelClosed&) {
  }
}

sim::Co<void> SocketRpcServer::write_response_batch(Shard& shard, net::SocketPtr conn,
                                                    const std::vector<Response*>& group,
                                                    std::size_t begin, std::size_t end) {
  const cluster::CostModel& cm = host_.cost();
  const std::size_t n = end - begin;
  // Each queued frame is [u32 len][payload]; the batch strips the per-frame
  // length prefix and re-frames as one wire write.
  std::size_t payload_bytes = 0;
  for (std::size_t k = begin; k < end; ++k) payload_bytes += group[k]->data.size() - 4;
  BufferedOutputStream out(cm);
  out.write_u32(static_cast<std::uint32_t>(8 + 4 * n + payload_bytes));
  out.write_u64(trace::kWireBatchFlag | static_cast<std::uint64_t>(n));
  for (std::size_t k = begin; k < end; ++k) {
    out.write_u32(static_cast<std::uint32_t>(group[k]->data.size() - 4));
  }
  for (std::size_t k = begin; k < end; ++k) {
    out.write_payload(net::ByteSpan(group[k]->data).subspan(4));
  }
  out.flush();
  co_await host_.compute(out.take_accrued());
  net::Bytes wire = out.take_pending();
  ++shard.pipeline.stats().response_batches;
  shard.pipeline.stats().batched_responses += n;
  try {
    co_await conn->write(wire);
  } catch (const net::SocketError&) {
    // Client vanished between handling and responding; drop it.
  }
}

sim::Task SocketRpcServer::responder_loop(Shard& shard) {
  try {
    for (;;) {
      Response r = co_await shard.response_queue.recv();
      if (!batch_.enabled) {
        try {
          co_await r.conn->write(r.data);
        } catch (const net::SocketError&) {
          // Client vanished between handling and responding; drop it.
        }
        continue;
      }
      // Coalescing: every response already queued behind `r` joins this
      // round, grouped per connection in first-seen order (deterministic —
      // never keyed on pointer order). Handler completions land a few
      // microseconds apart (core-semaphore stagger), so under a dense
      // completion pattern the Responder lingers briefly before draining —
      // that is what turns a burst of handler finishes into one wire write
      // per connection, and what keeps the callers on a shared connection
      // waking in sync (sustaining client-side call coalescing). Sparse
      // completions skip the wait entirely. Connections never migrate
      // between shards, so a connection's responses always coalesce within
      // its home shard's Responder — never across shards.
      shard.resp_gaps.note(host_.sched().now());
      const sim::Dur resp_linger = shard.resp_gaps.linger(batch_.linger / 4);
      if (resp_linger > 0) co_await sim::delay(host_.sched(), resp_linger);
      std::vector<Response> round;
      round.push_back(std::move(r));
      {
        Response more;
        while (shard.response_queue.try_recv(more)) round.push_back(std::move(more));
      }
      std::vector<net::SocketPtr> order;
      for (const Response& resp : round) {
        bool seen = false;
        for (const net::SocketPtr& c : order) {
          if (c == resp.conn) {
            seen = true;
            break;
          }
        }
        if (!seen) order.push_back(resp.conn);
      }
      for (const net::SocketPtr& conn : order) {
        std::vector<Response*> mine;
        for (Response& resp : round) {
          if (resp.conn == conn) mine.push_back(&resp);
        }
        // Consecutive runs of >=2 small responses become one batch frame
        // (bounded by the config limits); everything else keeps its own
        // byte-identical frame.
        const auto is_small = [this](const Response& resp) {
          return resp.data.size() >= 4 &&
                 resp.data.size() - 4 <= batch_.small_threshold;
        };
        std::size_t i = 0;
        while (i < mine.size()) {
          std::size_t j = i;
          std::size_t run_bytes = 0;
          while (j < mine.size() && is_small(*mine[j]) && (j - i) < batch_.max_calls &&
                 run_bytes + mine[j]->data.size() - 4 <= batch_.max_bytes) {
            run_bytes += mine[j]->data.size() - 4;
            ++j;
          }
          if (j - i >= 2) {
            co_await write_response_batch(shard, conn, mine, i, j);
            i = j;
          } else {
            try {
              co_await conn->write(mine[i]->data);
            } catch (const net::SocketError&) {
              // Client vanished between handling and responding; drop it.
            }
            ++i;
          }
        }
      }
    }
  } catch (const sim::ChannelClosed&) {
  }
}

}  // namespace rpcoib::rpc
