#include "rpcoib/rdma_server.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <utility>

#include "trace/trace.hpp"

namespace rpcoib::oib {

namespace {

/// Header of a kCall frame read on the side — at admission (so the gate
/// can shed with a well-formed busy response before a handler sees the
/// call) and for the batch.parse span. Bookkeeping only: no cost is
/// charged for this pass. Empty for a garbage header (a client reused a
/// rendezvous source after timing out).
std::optional<rpc::CallHead> peek_call_head(const cluster::CostModel& cm,
                                            net::ByteSpan frame) {
  RDMAInputStream in(cm, frame);
  try {
    (void)in.read_u8();  // frame type
    return rpc::read_call_head(in);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

// Pool-history keys of the server's own status responses.
const rpc::MethodKey kBusyKey{"__overload", "busy"};
const rpc::MethodKey kSessionRejectedKey{"__session", "rejected"};
const rpc::MethodKey kUdOversizeKey{"__ud", "oversize"};

/// The one builder of status responses: [u8 kResp][u64 id][u8 status][text].
void write_status(RDMAOutputStream& out, std::uint64_t id, rpc::RpcStatus status,
                  const std::string& msg) {
  out.write_u8(static_cast<std::uint8_t>(FrameType::kResp));
  out.write_u64(id);
  out.write_u8(static_cast<std::uint8_t>(status));
  out.write_text(msg);
}

}  // namespace

RdmaRpcServer::RdmaRpcServer(cluster::Host& host, net::SocketTable& sockets,
                             verbs::VerbsStack& stack, net::Address addr,
                             RdmaServerConfig cfg)
    : host_(host),
      sockets_(sockets),
      stack_(stack),
      cm_(stack, sockets),
      addr_(addr),
      cfg_(cfg),
      native_(host, stack, cfg.pool),
      shadow_(native_) {
  // Pre-posted receive buffers must hold any eager frame plus headers.
  cfg_.recv_buf_size = std::max(cfg_.recv_buf_size, cfg_.eager_threshold + 512);
  if (cfg_.shards < 1) cfg_.shards = 1;
}

RdmaRpcServer::~RdmaRpcServer() { stop(); }

void RdmaRpcServer::start() {
  if (running_) return;
  running_ = true;
  alive_ = std::make_shared<bool>(true);
  rpc::retire_shards(shards_, retired_shards_);
  const int n = cfg_.shards;
  for (int i = 0; i < n; ++i) {
    auto shard =
        std::make_unique<Shard>(host_, static_cast<std::uint32_t>(i), overload_, session_);
    shard->alive = alive_;
    if (cfg_.pool.srq_depth > 0) {
      // Stripe the shared ring: each shard owns srq_depth / n slots (the
      // remainder spread over the low shards, never below one) and refills
      // at a proportionally scaled watermark. One shard keeps the exact
      // configured geometry.
      if (n == 1) {
        shard->srq_depth = cfg_.pool.srq_depth;
        shard->srq_low_watermark = cfg_.pool.srq_low_watermark;
      } else {
        const std::size_t ui = static_cast<std::size_t>(i);
        shard->srq_depth = std::max<std::size_t>(
            1, cfg_.pool.srq_depth / n + (ui < cfg_.pool.srq_depth % n ? 1 : 0));
        shard->srq_low_watermark = std::min(
            shard->srq_depth,
            std::max<std::size_t>(1, cfg_.pool.srq_low_watermark / n +
                                         (ui < cfg_.pool.srq_low_watermark % n ? 1 : 0)));
      }
      shard->srq = std::make_unique<verbs::SharedReceiveQueue>(host_.sched());
      shard->srq->set_stall_counter(&shard->pipeline.stats().srq_rnr_stalls);
    }
    shards_.push_back(std::move(shard));
    if (shards_.back()->srq) host_.sched().spawn(srq_refill_loop(*shards_.back()));
  }
  if (cfg_.srq_idle_evict > 0) host_.sched().spawn(idle_evict_loop());
  if (cfg_.ud.enabled) {
    // Rebuild the fixed UD endpoint pool. Endpoints from a previous run
    // fold their drop counts into the base first so ud_rx_dropped stays
    // monotonic across restarts.
    for (const auto& ep : ud_eps_) {
      if (ep) ud_rx_dropped_base_ += ep->rx_dropped();
    }
    ud_eps_.clear();
    if (ud_cq_) retired_ud_cqs_.push_back(std::move(ud_cq_));
    ud_cq_ = std::make_unique<verbs::CompletionQueue>(host_.sched());
    verbs::UdService svc;
    svc.host = host_.id();
    const int n_eps = std::max(1, cfg_.ud.server_endpoints);
    for (int i = 0; i < n_eps; ++i) {
      auto ep = std::make_unique<verbs::UdEndpoint>(stack_, host_, *ud_cq_, *ud_cq_);
      // kRecv completions name the endpoint, so the responder can reply
      // from the QPN the client targeted.
      ep->set_context(static_cast<std::uint64_t>(i));
      svc.qpns.push_back(ep->qpn());
      ud_eps_.push_back(std::move(ep));
    }
    // Fill the rings BEFORE advertising: UD has no bootstrap handshake to
    // order a client's first datagram after the server's buffer setup (RC
    // rings hide behind accept()), so an advertise-first start would race
    // the listener's pool registration and silently drop early calls. The
    // rings are the datagram analogue of the SRQ stripes: a fixed
    // pre-registered footprint that never grows with client count. An
    // arrival overrunning the ring drops silently (no RNR on UD); the
    // client's session/retry layer re-sends it.
    const std::size_t slot = verbs::UdEndpoint::kGrhBytes + verbs::UdEndpoint::kMtu;
    for (auto& ep : ud_eps_) {
      for (int i = 0; i < cfg_.ud.recv_depth; ++i) {
        NativeBuffer* b = native_.acquire(slot);
        ep->post_recv(reinterpret_cast<std::uint64_t>(b), b->span);
        ud_ring_bytes_ += b->span.size();
      }
    }
    if (ud_ring_bytes_ > ud_ring_bytes_peak_) ud_ring_bytes_peak_ = ud_ring_bytes_;
    stack_.ud_advertise(addr_, std::move(svc));
    host_.sched().spawn(ud_reader_loop());
  }
  if (cfg_.onesided.enabled) {
    // The region (and everything published into it) survives restarts;
    // only the advertisement is withdrawn at stop() and renewed here.
    if (!onesided_region_) {
      onesided_region_ = std::make_unique<OneSidedRegion>(stack_, native_.pd(), addr_,
                                                          cfg_.onesided);
    }
    onesided_region_->advertise();
  }
  listener_ = &sockets_.listen(addr_);
  host_.sched().spawn(listener_loop());
  for (auto& shard : shards_) host_.sched().spawn(reader_loop(*shard));
  // Handlers split across shards (every shard keeps at least one); with
  // one shard the ids and spawn order are exactly the unsharded server's.
  int handler_id = 0;
  for (int i = 0; i < n; ++i) {
    int mine = cfg_.num_handlers / n + (i < cfg_.num_handlers % n ? 1 : 0);
    if (mine < 1) mine = 1;
    for (int h = 0; h < mine; ++h) {
      host_.sched().spawn(handler_loop(*shards_[static_cast<std::size_t>(i)], handler_id++));
    }
  }
  if (cfg_.socket_fallback) {
    if (!fallback_) {
      fallback_ = std::make_unique<rpc::SocketRpcServer>(
          host_, sockets_,
          net::Address{addr_.host,
                       static_cast<std::uint16_t>(addr_.port + kSocketFallbackPortOffset)},
          cfg_.num_handlers, 1, cfg_.shards);
    }
    // Mirror the dispatcher, including methods registered since the last run.
    for (const auto& [key, handler] : dispatcher_.all()) {
      if (fallback_->dispatcher().find(key) == nullptr) {
        fallback_->dispatcher().register_method(key.protocol, key.method, handler);
      }
    }
    // The fallback path must shed under the same policy as the RDMA path,
    // or overload would simply migrate to the companion listener.
    fallback_->set_overload(overload_);
    fallback_->set_batch(batch_);
    fallback_->set_session(session_);
    fallback_->start();
  }
}

void RdmaRpcServer::stop() {
  if (!running_) return;
  running_ = false;
  if (alive_) *alive_ = false;  // detached flush timers stand down
  sockets_.unlisten(addr_);
  listener_ = nullptr;
  // Return every pooled buffer the data path still holds — queued call
  // frames, unacked rendezvous response sources, and pre-posted receive
  // slots — so acquires and releases balance across a stop. The dropped
  // calls' clients observe a transport error when the QPs disconnect.
  for (auto& shard : shards_) {
    for (ServerCall& call : shard->pipeline.drain()) native_.release(call.buf);
  }
  for (auto& shard : shards_) {
    for (auto& [rkey, buf] : shard->pending_resp) native_.release(buf);
    shard->pending_resp.clear();
  }
  for (auto& shard : shards_) {
    if (shard->srq) {
      for (std::uint64_t wr : shard->srq->drain_posted_recvs()) {
        native_.release(reinterpret_cast<NativeBuffer*>(wr));
      }
      shard->srq->close();  // wakes the refill loop into its ChannelClosed exit
    }
  }
  for (auto& [id, c] : conns_) {
    if (c->batcher && !c->batcher->empty()) {
      // Finished responses still lingering in the coalescer die with the
      // server; account for them so teardown losses are never silent.
      shard_of(*c).pipeline.stats().responses_dropped_on_stop +=
          c->batcher->take().items.size();
    }
    if (c->qp) {
      for (std::uint64_t wr : c->qp->drain_posted_recvs()) {
        native_.release(reinterpret_cast<NativeBuffer*>(wr));  // legacy rings
      }
      c->qp->set_srq(nullptr);
      c->qp->disconnect();
    }
  }
  for (auto& shard : shards_) shard->ring_bytes = 0;
  if (ud_cq_) {
    stack_.ud_withdraw(addr_);
    for (auto& ep : ud_eps_) {
      for (std::uint64_t wr : ep->drain_posted_recvs()) {
        native_.release(reinterpret_cast<NativeBuffer*>(wr));
      }
    }
    ud_ring_bytes_ = 0;
    // Close but keep the CQ and endpoints alive (like the fallback
    // listener): kSend completions for datagrams already in flight still
    // land here when they fire, on a closed-but-live queue.
    ud_cq_->close();
  }
  if (onesided_region_) onesided_region_->withdraw();
  for (auto& shard : shards_) {
    if (shard->cq) shard->cq->close();
  }
  for (auto& shard : shards_) shard->pipeline.close();
  if (fallback_) fallback_->stop();
}

rpc::RpcStats& RdmaRpcServer::stats() {
  rpc::fold_shard_stats(shards_, stats_);
  std::uint64_t ud_rx = ud_rx_dropped_base_;
  for (const auto& ep : ud_eps_) {
    if (ep) ud_rx += ep->rx_dropped();
  }
  stats_.ud_rx_dropped = ud_rx;
  // Region counters are assignments (not +=) so repeated syncs stay
  // idempotent like the shard-sourced fields.
  stats_.onesided_published = onesided_region_ ? onesided_region_->published() : 0;
  stats_.onesided_reexports = onesided_region_ ? onesided_region_->reexports() : 0;
  // The stripes post independently, so the server-wide registered-memory
  // footprint is the sum of the per-stripe peaks (exact at one shard).
  // The UD rings are one more fixed stripe on top.
  std::uint64_t ring_peak_sum = 0;
  for (const auto& shard : shards_) ring_peak_sum += shard->pipeline.stats().recv_ring_bytes_peak;
  stats_.recv_ring_bytes_peak = ring_peak_sum + ud_ring_bytes_peak_;
  return stats_;
}

const rpc::RpcStats& RdmaRpcServer::stats() const {
  return const_cast<RdmaRpcServer*>(this)->stats();
}

void RdmaRpcServer::note_ring_bytes(Shard& shard, std::size_t n) {
  shard.ring_bytes += n;
  if (shard.ring_bytes > shard.pipeline.stats().recv_ring_bytes_peak) {
    shard.pipeline.stats().recv_ring_bytes_peak = shard.ring_bytes;
  }
}

void RdmaRpcServer::post_recv_buffer(Shard& shard, ConnState* conn, NativeBuffer* buf) {
  if (shard.srq) {
    shard.srq->post_recv(reinterpret_cast<std::uint64_t>(buf), buf->span);
    ++shard.pipeline.stats().srq_posted;
  } else {
    conn->qp->post_recv(reinterpret_cast<std::uint64_t>(buf), buf->span);
  }
  note_ring_bytes(shard, buf->span.size());
}

void RdmaRpcServer::recycle_recv_buffer(Shard& shard, ConnState* conn, NativeBuffer* buf) {
  if (shard.srq) {
    // The shared stripe tops back up here on the hot path; the refill loop
    // only covers buffers consumed by calls still in flight.
    if (shard.srq->posted() < shard.srq_depth) {
      post_recv_buffer(shard, nullptr, buf);
    } else {
      native_.release(buf);
    }
  } else if (conn != nullptr && conn->qp && conn->qp->connected()) {
    post_recv_buffer(shard, conn, buf);
  } else {
    native_.release(buf);
  }
}

sim::Task RdmaRpcServer::srq_refill_loop(Shard& shard) {
  const std::shared_ptr<bool> alive = alive_;
  verbs::SharedReceiveQueue* srq = shard.srq.get();
  try {
    for (;;) {
      co_await srq->wait_limit();
      if (!*alive) co_return;
      ++shard.pipeline.stats().srq_refills;
      while (srq->posted() < shard.srq_depth) {
        post_recv_buffer(shard, nullptr, native_.acquire(cfg_.recv_buf_size));
      }
      srq->arm_limit(shard.srq_low_watermark);
    }
  } catch (const sim::ChannelClosed&) {
  }
}

sim::Task RdmaRpcServer::idle_evict_loop() {
  const std::shared_ptr<bool> alive = alive_;
  const sim::Dur idle = cfg_.srq_idle_evict;
  const sim::Dur sweep = std::max<sim::Dur>(idle / 2, 1);
  try {
    for (;;) {
      co_await sim::delay(host_.sched(), sweep);
      if (!*alive) co_return;
      std::vector<std::uint64_t> victims;
      const sim::Time now = host_.sched().now();
      for (const auto& [id, c] : conns_) {
        // Evict only quiet, fully-flushed connections; anything with a
        // pending response batch is mid-conversation by definition.
        if (now - c->last_recv < idle) continue;
        if (c->batcher && !c->batcher->empty()) continue;
        if (!c->qp || !c->qp->connected()) continue;
        victims.push_back(id);
      }
      for (std::uint64_t id : victims) {
        auto it = conns_.find(id);
        if (it == conns_.end()) continue;
        ConnPtr c = it->second;
        Shard& shard = shard_of(*c);
        for (std::uint64_t wr : c->qp->drain_posted_recvs()) {  // legacy ring
          auto* b = reinterpret_cast<NativeBuffer*>(wr);
          shard.ring_bytes -= std::min(shard.ring_bytes, b->span.size());
          native_.release(b);
        }
        // Disconnect expires the client QP's peer immediately: the client
        // observes !connected() on its next call and re-bootstraps.
        c->qp->set_srq(nullptr);
        c->qp->disconnect();
        conns_.erase(it);
        ++shard.pipeline.stats().srq_evictions;
      }
    }
  } catch (const sim::ChannelClosed&) {
  }
}

sim::Task RdmaRpcServer::listener_loop() {
  net::Listener* l = listener_;
  const std::shared_ptr<bool> alive = alive_;
  try {
    // Library-load-time pool registration (amortized across all calls). In
    // SRQ mode every stripe's buffers are provisioned here too, so the
    // fills below are pure freelist pops, not demand allocations.
    std::size_t total_srq = 0;
    for (const auto& shard : shards_) total_srq += shard->srq_depth;
    co_await native_.initialize(total_srq > 0 ? cfg_.recv_buf_size : 0, total_srq);
    // Stopped while registering: the listener was freed with no acceptor
    // parked on it, and shards_ may already belong to the next run.
    if (!*alive) co_return;
    for (auto& shard : shards_) {
      if (!shard->srq) continue;
      // One pre-registered receive stripe per shard, filled once: from
      // here on, registered receive memory is a function of srq_depth
      // (load), not of how many connections accept() creates.
      for (std::size_t i = 0; i < shard->srq_depth; ++i) {
        post_recv_buffer(*shard, nullptr, native_.acquire(cfg_.recv_buf_size));
      }
      shard->srq->arm_limit(shard->srq_low_watermark);
    }
    for (;;) {
      net::SocketPtr boot = co_await l->accept();
      // Two-phase handshake: read the client's blob first, so the home
      // shard — and the CQ the QP completes into — can be chosen from the
      // durable session id it carries. A reconnecting session must land on
      // the shard that holds its lease and retry-cache state; sessionless
      // connections keep the dense-id round-robin, operation-for-operation
      // the pre-session behavior.
      verbs::QueuePairPtr qp;
      verbs::ConnectionManager::BootstrapInfo info;
      Shard* shard_p = nullptr;
      try {
        info = co_await cm_.read_bootstrap(boot);
        const std::uint64_t sid = session_.enabled ? info.session_id : 0;
        shard_p = sid != 0 ? shards_[sid % shards_.size()].get()
                           : shards_[conn_seq_ % shards_.size()].get();
        qp = co_await cm_.accept(boot, info, *shard_p->cq, *shard_p->cq,
                                 static_cast<std::uint64_t>(cfg_.eager_threshold));
      } catch (const verbs::VerbsError&) {
        continue;  // malformed bootstrap (e.g. a socket client); drop it
      } catch (const net::SocketError&) {
        continue;
      }
      Shard& shard = *shard_p;
      const std::uint64_t peer_threshold = info.peer_eager_threshold;
      auto conn = std::make_shared<ConnState>();
      conn->qp = std::move(qp);
      conn->id = ++conn_seq_;
      conn->session_id = session_.enabled ? info.session_id : 0;
      conn->owner = conn->session_id != 0 ? conn->session_id : conn->id;
      conn->shard = shard.index;
      ++shard.pipeline.counters().conns_assigned;
      conn->last_recv = host_.sched().now();
      // min(local, peer): an eager SEND must fit buffers sized by *either*
      // end's knob. Peer 0 means "not advertised" (legacy bootstrap).
      conn->eager_threshold =
          peer_threshold == 0
              ? cfg_.eager_threshold
              : std::min(cfg_.eager_threshold, static_cast<std::size_t>(peer_threshold));
      // Ring sizing must follow the *larger* advertised threshold, not the
      // negotiated min: when our advertisement reads as "not advertised"
      // (threshold 0 in the legacy blob), the peer falls back to its own
      // local knob and may legally send eager frames up to that size.
      conn->recv_buf_size = std::max(
          cfg_.recv_buf_size,
          std::max(conn->eager_threshold, static_cast<std::size_t>(peer_threshold)) + 512);
      if (peer_threshold != 0 && peer_threshold != cfg_.eager_threshold) {
        ++stats_.threshold_mismatches;
      }
      if (batch_.enabled) {
        conn->batcher = std::make_unique<rpc::CallBatcher>(host_.sched(), batch_);
      }
      // kRecv completions carry the connection id as qp_context — with a
      // shared ring the wr_id names only the buffer, not the sender.
      conn->qp->set_context(conn->id);
      ConnState* raw = conn.get();
      conns_[conn->id] = std::move(conn);
      if (shard.srq) {
        raw->qp->set_srq(shard.srq.get());
      } else {
        for (int i = 0; i < cfg_.recv_depth; ++i) {
          post_recv_buffer(shard, raw, native_.acquire(raw->recv_buf_size));
        }
      }
    }
  } catch (const sim::ChannelClosed&) {
  } catch (const net::SocketError&) {
  }
}

sim::Task RdmaRpcServer::fetch_call(ConnPtr conn, std::uint32_t rkey, std::uint64_t off,
                                    std::uint32_t len) {
  Shard& shard = shard_of(*conn);
  const sim::Time recv_start = host_.sched().now();
  // Graceful degradation: when the registered pool is dry and the demand-
  // allocation cap is reached, refuse the rendezvous instead of growing
  // native memory without bound. The NACK names the client's rkey; the
  // client resubmits the call over the socket fallback path.
  NativeBuffer* dst = shadow_.try_acquire_sized(len);
  if (dst == nullptr) {
    // The call's trace context is inside the frame we refused to fetch;
    // the client records the overload.nack span with full context.
    ++shard.pipeline.stats().pool_nacks;
    // Rendezvous refusal: [u8 kNack][u32 rkey of the refused source].
    const ControlFrame nack = ControlFrame::of_rkey(FrameType::kNack, rkey);
    try {
      co_await conn->qp->post_send(0, nack.span());
    } catch (const verbs::VerbsError&) {
    }
    co_return;
  }
  const std::uint64_t token = (shard.next_read_token++ << 1) | 1;
  sim::SimEvent read_done(host_.sched());
  shard.read_waiters[token] = &read_done;
  try {
    net::MutByteSpan into(dst->span.data(), len);
    co_await conn->qp->post_rdma_read(token, into, verbs::RemoteBuffer{rkey, off, len});
    co_await read_done.wait();
    shard.read_waiters.erase(token);
    ServerCall call;
    call.conn = conn;
    call.buf = dst;
    call.frame_len = len;
    call.recv_start = recv_start;
    co_await enqueue_call(std::move(call));
  } catch (const std::exception&) {
    shard.read_waiters.erase(token);
    native_.release(dst);
  }
}

sim::Task RdmaRpcServer::reader_loop(Shard& shard) {
  const cluster::CostModel& cm = host_.cost();
  try {
    for (;;) {
      verbs::WorkCompletion wc = co_await shard.cq->wait();
      switch (wc.opcode) {
        case verbs::Opcode::kSend: {
          // Eager response on the wire: pooled source is reusable.
          if (auto* b = reinterpret_cast<NativeBuffer*>(wc.wr_id); b != nullptr &&
              (wc.wr_id & 1) == 0) {
            native_.release(b);
          }
          break;
        }
        case verbs::Opcode::kRdmaRead: {
          auto it = shard.read_waiters.find(wc.wr_id);
          if (it != shard.read_waiters.end()) it->second->set();
          break;
        }
        case verbs::Opcode::kRecv: {
          auto* rb = reinterpret_cast<NativeBuffer*>(wc.wr_id);
          shard.ring_bytes -= std::min(shard.ring_bytes, rb->span.size());
          auto cit = conns_.find(wc.qp_context);
          if (cit == conns_.end()) {
            // Completion raced an eviction: the frame has no connection to
            // answer on anymore; just recycle the shared buffer.
            recycle_recv_buffer(shard, nullptr, rb);
            break;
          }
          ConnPtr conn = cit->second;
          conn->last_recv = host_.sched().now();
          net::ByteSpan frame(rb->span.data(), wc.byte_len);
          co_await host_.compute(cm.cq_poll() + cm.thread_wakeup());
          const auto type = static_cast<FrameType>(frame[0]);
          if (type == FrameType::kCall) {
            // Hand the pooled buffer to the call; the ring replaces it
            // (SRQ: the low-watermark refill; legacy: an immediate post).
            ServerCall call;
            call.conn = conn;
            call.buf = rb;
            call.frame_len = wc.byte_len;
            call.recv_start = host_.sched().now();
            co_await enqueue_call(std::move(call));
            if (!shard.srq) {
              post_recv_buffer(shard, conn.get(), native_.acquire(conn->recv_buf_size));
            }
          } else if (type == FrameType::kBatch) {
            ServerCall proto;
            proto.conn = conn;
            co_await split_batch(proto, frame);
            recycle_recv_buffer(shard, conn.get(), rb);  // frame fully copied out
          } else if (type == FrameType::kCtrlCall) {
            std::uint32_t rkey = 0, len = 0;
            std::uint64_t off = 0;
            parse_control(frame, rkey, off, len);
            host_.sched().spawn(fetch_call(conn, rkey, off, len));
            recycle_recv_buffer(shard, conn.get(), rb);
          } else if (type == FrameType::kAck) {
            const std::uint32_t rkey = parse_rkey(frame);
            auto it = shard.pending_resp.find(rkey);
            if (it != shard.pending_resp.end()) {
              native_.release(it->second);
              shard.pending_resp.erase(it);
            }
            recycle_recv_buffer(shard, conn.get(), rb);
          } else {
            recycle_recv_buffer(shard, conn.get(), rb);
          }
          break;
        }
        default:
          break;
      }
    }
  } catch (const sim::ChannelClosed&) {
  }
}

sim::Task RdmaRpcServer::ud_reader_loop() {
  const cluster::CostModel& cm = host_.cost();
  verbs::CompletionQueue* cq = ud_cq_.get();
  try {
    for (;;) {
      verbs::WorkCompletion wc = co_await cq->wait();
      if (wc.opcode == verbs::Opcode::kSend) {
        // Response datagram on the wire: pooled source is reusable.
        if (auto* b = reinterpret_cast<NativeBuffer*>(wc.wr_id);
            b != nullptr && (wc.wr_id & 1) == 0) {
          native_.release(b);
        }
        continue;
      }
      if (wc.opcode != verbs::Opcode::kRecv) continue;
      auto* rb = reinterpret_cast<NativeBuffer*>(wc.wr_id);
      const std::size_t ep_index = static_cast<std::size_t>(wc.qp_context);
      constexpr std::size_t grh = verbs::UdEndpoint::kGrhBytes;
      if (running_ && wc.byte_len > grh + kUdHeaderBytes &&
          static_cast<FrameType>(rb->span.data()[grh]) == FrameType::kUdCall) {
        const net::ByteSpan frame(rb->span.data() + grh, wc.byte_len - grh);
        co_await host_.compute(cm.cq_poll() + cm.thread_wakeup());
        std::uint32_t src_host = 0, src_qpn = 0;
        std::memcpy(&src_host, rb->span.data(), 4);
        std::memcpy(&src_qpn, rb->span.data() + 4, 4);
        const std::uint64_t sid = session_.enabled ? frame_word(frame) : 0;
        // One pseudo-connection per datagram: the handler pipeline keys
        // sessions, fences, dedup and the response path off the ConnState,
        // and UD keeps none per client — so each datagram carries its own,
        // never entered into conns_. Owner and shard homing follow the
        // session id exactly like a reconnecting RC client, so a retry
        // that switches transport still deduplicates on the home shard.
        auto conn = std::make_shared<ConnState>();
        conn->session_id = sid;
        conn->owner = sid != 0 ? sid : ((std::uint64_t{1} << 62) | src_host);
        conn->shard = static_cast<std::uint32_t>(
            sid != 0 ? sid % shards_.size() : src_host % shards_.size());
        conn->eager_threshold = cfg_.eager_threshold;
        conn->last_recv = host_.sched().now();
        const verbs::AddressHandle peer{static_cast<cluster::HostId>(src_host), src_qpn};
        Shard& shard = shard_of(*conn);
        const net::ByteSpan inner(frame.data() + kUdHeaderBytes,
                                  frame.size() - kUdHeaderBytes);
        const auto itype = static_cast<FrameType>(inner[0]);
        ServerCall proto;
        proto.conn = conn;
        proto.via_ud = true;
        proto.ud_peer = peer;
        proto.ud_ep = ep_index;
        if (itype == FrameType::kCall) {
          co_await host_.compute(cm.direct_copy(inner.size()));
          NativeBuffer* sub = shadow_.acquire_sized(inner.size());
          std::memcpy(sub->span.data(), inner.data(), inner.size());
          ++shard.pipeline.stats().ud_calls_received;
          ServerCall call = proto;
          call.buf = sub;
          call.frame_len = static_cast<std::uint32_t>(inner.size());
          call.recv_start = host_.sched().now();
          co_await enqueue_call(std::move(call));
        } else if (itype == FrameType::kBatch) {
          // Split per sub-call BEFORE any session logic: each sub-call of
          // a batched frame meets the lease/fence/dedup checks on its own
          // id, so a mid-flight session expiry bounces the affected
          // sub-calls individually (kSessionExpired) instead of failing
          // the frame as one retryable unit.
          co_await split_batch(proto, inner);
        }
      }
      // The ring slot is fully copied out (or the datagram was garbage):
      // repost it immediately so the fixed footprint holds. The CQ identity
      // check keeps a retired run's loop (draining its last completions
      // across a restart) from injecting its buffer into the new pool's
      // rings.
      if (running_ && cq == ud_cq_.get() && ep_index < ud_eps_.size() &&
          ud_eps_[ep_index]) {
        ud_eps_[ep_index]->post_recv(wc.wr_id, rb->span);
      } else {
        native_.release(rb);
      }
    }
  } catch (const sim::ChannelClosed&) {
  }
}

sim::Co<void> RdmaRpcServer::ud_respond(ServerCall& call, NativeBuffer* buf,
                                        net::ByteSpan msg) {
  Shard& shard = shard_of(*call.conn);
  if (!running_ || call.ud_ep >= ud_eps_.size() || !ud_eps_[call.ud_ep]) {
    native_.release(buf);
    co_return;
  }
  if (msg.size() > verbs::UdEndpoint::kMtu) {
    // A datagram cannot fragment: bounce with an error frame naming the
    // limit instead of throwing at the HCA. Responses this size belong on
    // the RC path (the client's budget keeps *requests* off UD, but a
    // small request may still produce a huge response).
    ++shard.pipeline.stats().ud_resp_oversize;
    const std::uint64_t id = frame_word(msg);
    native_.release(buf);
    RDMAOutputStream err(host_.cost(), shadow_, kUdOversizeKey);
    write_status(err, id, rpc::RpcStatus::kError, "response exceeds the UD datagram MTU");
    co_await host_.compute(err.take_accrued());
    msg = err.data();
    buf = err.take_buffer();
  }
  try {
    co_await ud_eps_[call.ud_ep]->post_send(reinterpret_cast<std::uint64_t>(buf),
                                            call.ud_peer, msg);
    // Released by ud_reader_loop at the kSend completion (even wr_id).
    ++shard.pipeline.stats().ud_responses_sent;
  } catch (const verbs::VerbsError&) {
    native_.release(buf);
  }
}

sim::Co<void> RdmaRpcServer::split_batch(const ServerCall& proto, net::ByteSpan frame) {
  // [u8 kBatch][u32 count][u32 len_i x count][kCall sub-frames...]. Each
  // sub-call owns a pooled copy like a fetched call, so admission,
  // deadlines, sessions and tracing all stay per call. One copy charge
  // covers the whole frame; the caller recycles the receive slot after the
  // split (its contents are stable until reposted).
  const cluster::CostModel& cm = host_.cost();
  Shard& shard = shard_of(*proto.conn);
  ++shard.pipeline.stats().batches_received;
  std::uint32_t count = 0;
  std::memcpy(&count, frame.data() + 1, 4);
  co_await host_.compute(cm.direct_copy(frame.size()));
  const sim::Time recv_start = host_.sched().now();
  trace::TraceContext bctx;
  std::size_t off = 5 + 4 * static_cast<std::size_t>(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t sub_len = 0;
    std::memcpy(&sub_len, frame.data() + 5 + 4 * static_cast<std::size_t>(i), 4);
    NativeBuffer* sub = shadow_.acquire_sized(sub_len);
    std::memcpy(sub->span.data(), frame.data() + off, sub_len);
    off += sub_len;
    ++shard.pipeline.stats().batched_calls_received;
    if (proto.via_ud) ++shard.pipeline.stats().ud_calls_received;
    if (!bctx.valid()) {
      const std::optional<rpc::CallHead> h =
          peek_call_head(cm, net::ByteSpan(sub->span.data(), sub_len));
      if (h) bctx = h->ctx;
    }
    ServerCall call = proto;
    call.buf = sub;
    call.frame_len = sub_len;
    call.recv_start = recv_start;
    co_await enqueue_call(std::move(call));
  }
  if (bctx.valid()) {
    if (trace::TraceCollector* tr = trace::active(host_.tracer())) {
      tr->add_complete("batch.parse", trace::Kind::kServer, trace::Category::kRecv, bctx,
                       host_.id(), recv_start, host_.sched().now());
    }
  }
}

sim::Co<void> RdmaRpcServer::enqueue_call(ServerCall call) {
  Shard& shard = shard_of(*call.conn);
  if (shard.pipeline.admission_enabled()) {
    std::optional<rpc::CallHead> head = peek_call_head(
        host_.cost(), net::ByteSpan(call.buf->span.data(), call.frame_len));
    if (!head) {
      // Garbage header: the client reused the source after timing out.
      native_.release(call.buf);
      co_return;
    }
    call.admit_protocol = std::move(head->key.protocol);
  }
  sim::Co<void> admitted = shard.pipeline.admit(
      std::move(call), [this](ServerCall busy) { return shed_call(std::move(busy)); });
  co_await admitted;
}

sim::Co<void> RdmaRpcServer::shed_call(ServerCall call) {
  // Only admitted or header-checked calls reach the gate, so the header
  // parses.
  const rpc::CallHead head =
      *peek_call_head(host_.cost(), net::ByteSpan(call.buf->span.data(), call.frame_len));
  Shard& shard = shard_of(*call.conn);
  shard.pipeline.note_shed();
  if (head.ctx.valid()) {
    if (trace::TraceCollector* tr = trace::active(host_.tracer())) {
      tr->add_complete("overload.shed:" + head.key.method, trace::Kind::kServer,
                       trace::Category::kOverload, head.ctx, host_.id(),
                       call.enqueued != 0 ? call.enqueued : call.recv_start,
                       host_.sched().now());
    }
  }
  try {
    RDMAOutputStream busy(host_.cost(), shadow_, kBusyKey);
    write_status(busy, head.id, rpc::RpcStatus::kBusy, "server busy: call queue full");
    co_await respond(shard, call, busy);
  } catch (const verbs::VerbsError&) {
    // Client already gone; nothing to tell it.
  }
  native_.release(call.buf);
}

sim::Task RdmaRpcServer::handler_loop(Shard& shard, int /*handler_id*/) {
  const cluster::CostModel& cm = host_.cost();
  try {
    for (;;) {
      ServerCall call = co_await shard.pipeline.queue().recv();
      shard.pipeline.note_dequeued(call);
      const sim::Time t_dequeue = host_.sched().now();
      co_await host_.compute(cm.thread_wakeup() + cm.rpc_framework());

      // Deserialize in place from the registered buffer: no per-call heap
      // buffer, no native->heap copy (Section III-B).
      RDMAInputStream in(cm, net::ByteSpan(call.buf->span.data(), call.frame_len));
      rpc::CallHead head;
      try {
        (void)in.read_u8();  // frame type
        head = rpc::read_call_head(in);
      } catch (const std::exception&) {
        // Garbage header: a timed-out client may have released (and reused)
        // the rendezvous source before our RDMA-READ fetched it. Drop the
        // frame — the client already gave up on this call.
        native_.release(call.buf);
        continue;
      }
      head.session_id = call.conn->session_id;
      head.owner = call.conn->owner;
      trace::TraceCollector* tr = head.ctx.valid() ? trace::active(host_.tracer()) : nullptr;
      if (tr != nullptr) {
        // The id was only parsed here, so the receive interval is recorded
        // retroactively now that the context is known.
        tr->add_complete("recv:" + head.key.method, trace::Kind::kServer,
                         trace::Category::kRecv, head.ctx, host_.id(), call.recv_start,
                         call.enqueued);
      }
      const rpc::Screen screen =
          shard.screen(head, call.enqueued, t_dequeue, host_.sched().now(), tr);
      if (screen.verdict == rpc::Verdict::kSessionRejected) {
        try {
          RDMAOutputStream expired(cm, shadow_, kSessionRejectedKey);
          write_status(expired, head.id, rpc::RpcStatus::kSessionExpired,
                       "session expired: retry cannot be deduplicated");
          co_await respond(shard, call, expired);
        } catch (const verbs::VerbsError&) {
          // Client already gone; nothing to tell it.
        }
      } else if (screen.verdict == rpc::Verdict::kReplay) {
        try {
          co_await respond_frame(call, *screen.replay);
        } catch (const verbs::VerbsError&) {
        }
      }
      if (screen.verdict != rpc::Verdict::kExecute) {
        native_.release(call.buf);
        continue;
      }
      trace::SpanScope handle(tr, "handle:", head.key.method, trace::Kind::kServer,
                              trace::Category::kHandler, head.ctx, host_.id());
      in.trace_context = handle.context();

      bool error = false;
      bool pool_busy = false;
      std::string error_msg;
      RDMAOutputStream out(cm, shadow_, head.key);
      out.write_u8(static_cast<std::uint8_t>(FrameType::kResp));
      out.write_u64(head.id);
      out.write_u8(0);  // status placeholder; rewritten below on error

      const rpc::MethodHandler* handler = dispatcher_.find(head.key);
      if (handler == nullptr) {
        error = true;
        error_msg = "unknown method " + head.key.to_string();
      } else {
        try {
          co_await (*handler)(in, out);
        } catch (const PoolExhaustedError& e) {
          // The response outgrew a capped-out pool mid-serialization: shed
          // with a retryable busy status instead of a hard RemoteException,
          // mirroring the rendezvous NACK's graceful degradation.
          pool_busy = true;
          error_msg = e.what();
        } catch (const std::exception& e) {
          error = true;
          error_msg = e.what();
        }
      }

      shard.pipeline.stats().recv_alloc_us.add(sim::to_us(in.take_alloc_accrued()) +
                                               RDMAOutputStream::kAcquireUs);
      shard.pipeline.stats().recv_total_us.add(
          sim::to_us(host_.sched().now() - call.recv_start));

      // The deadline may also pass *during* execution; then record() says
      // the response is not worth sending.
      const sim::Time now = host_.sched().now();
      try {
        if (pool_busy) {
          const bool send = shard.record(head, rpc::Outcome::kPoolBusy, {}, now, tr);
          RDMAOutputStream busy(cm, shadow_, kBusyKey);
          write_status(busy, head.id, rpc::RpcStatus::kBusy, "server busy: " + error_msg);
          if (send) co_await respond(shard, call, busy);
        } else if (error) {
          RDMAOutputStream err(cm, shadow_, head.key);
          write_status(err, head.id, rpc::RpcStatus::kError, error_msg);
          const bool send = shard.record(head, rpc::Outcome::kAnswered, err.data(), now, tr);
          // Unsent, the stream destructor returns the pooled buffer.
          if (send) co_await respond(shard, call, err);
        } else {
          const bool send = shard.record(head, rpc::Outcome::kAnswered, out.data(), now, tr);
          if (send) co_await respond(shard, call, out);
        }
      } catch (const verbs::VerbsError&) {
        // Client disconnected between handling and responding; drop it.
      }
      co_await host_.compute(in.take_accrued());
      handle.end();
      native_.release(call.buf);  // the kCall frame's buffer
      ++shard.pipeline.stats().calls_handled;
    }
  } catch (const sim::ChannelClosed&) {
  }
}

sim::Co<void> RdmaRpcServer::respond(Shard& shard, ServerCall& call, RDMAOutputStream& out) {
  const cluster::CostModel& cm = host_.cost();
  ConnPtr conn = call.conn;
  // Batch frames ride the eager path, so the whole frame must fit the
  // client's pre-posted receive buffers: clamp it to the negotiated
  // threshold. Responses only need to cover handler-completion stagger,
  // not caller phase alignment: cap the linger at a quarter of the
  // configured one (mirrors the socket Responder). A UD pseudo-connection
  // has no batcher.
  const rpc::CoalesceLimits limits{std::min(batch_.max_bytes, conn->eager_threshold),
                                   batch_.linger / 4};
  if (conn->batcher != nullptr && batch_.batchable(out.length()) &&
      out.length() <= limits.frame_bytes) {
    // Coalesced path: copy the frame out so the stream's pooled buffer
    // returns immediately (via its destructor) and skip the per-response
    // doorbell — the flush pays one JNI crossing for the whole batch.
    const std::shared_ptr<bool> alive = shard.alive;
    const sim::Dur cost =
        out.take_accrued() + cm.rpc_framework() + cm.direct_copy(out.length());
    co_await host_.compute(cost);
    shadow_.update_history(out.key(), out.length());
    if (!*alive) {
      // stop() already emptied the coalescer; nothing would flush this.
      ++shard.pipeline.stats().responses_dropped_on_stop;
      co_return;
    }
    net::Bytes payload(out.data().begin(), out.data().end());
    ResponseSink sink{this, conn, &shard, alive};
    co_await conn->batcher->add(sink, std::move(payload), trace::TraceContext{}, limits);
    if (!*alive && !conn->batcher->empty()) {
      // A pre-flush straddled stop() and this response joined the dead
      // batch after it.
      shard.pipeline.stats().responses_dropped_on_stop += conn->batcher->take().items.size();
    }
    co_return;
  }
  co_await host_.compute(out.take_accrued() + cm.jni_call() + cm.rpc_framework());
  const std::size_t len = out.length();
  const net::ByteSpan msg = out.data();
  NativeBuffer* buf = out.take_buffer();
  shadow_.update_history(out.key(), len);
  co_await send_response(call, buf, msg);
}

sim::Co<void> RdmaRpcServer::respond_frame(ServerCall& call, net::ByteSpan frame) {
  const cluster::CostModel& cm = host_.cost();
  NativeBuffer* buf = shadow_.acquire_sized(frame.size());
  std::memcpy(buf->span.data(), frame.data(), frame.size());
  co_await host_.compute(cm.direct_copy(frame.size()) + cm.jni_call() + cm.rpc_framework());
  co_await send_response(call, buf, net::ByteSpan(buf->span.data(), frame.size()));
}

sim::Co<void> RdmaRpcServer::send_response(ServerCall& call, NativeBuffer* buf,
                                           net::ByteSpan msg) {
  if (call.via_ud) {
    // One kResp datagram back to the GRH source; no rendezvous (no QP to
    // READ over) — oversize responses bounce inside ud_respond.
    co_await ud_respond(call, buf, msg);
    co_return;
  }
  Shard& shard = shard_of(*call.conn);
  try {
    if (msg.size() <= call.conn->eager_threshold) {
      co_await call.conn->qp->post_send(reinterpret_cast<std::uint64_t>(buf), msg);
      // Released by reader_loop at the kSend completion.
    } else {
      shard.pending_resp[buf->mr.rkey] = buf;
      const ControlFrame ctrl = ControlFrame::make(
          FrameType::kCtrlResp, buf->mr.rkey,
          static_cast<std::uint64_t>(msg.data() - buf->mr.addr),
          static_cast<std::uint32_t>(msg.size()));
      co_await call.conn->qp->post_send(0, ctrl.span());
    }
  } catch (const verbs::VerbsError&) {
    shard.pending_resp.erase(buf->mr.rkey);
    native_.release(buf);
    throw;
  }
}

sim::Co<bool> RdmaRpcServer::ResponseSink::flush(rpc::CallBatcher& b, rpc::FlushReason) {
  const cluster::CostModel& cm = server->host_.cost();
  // Take the items before any suspension so a concurrent limit-flush
  // can't double-send them; encode straight into a pooled registered
  // buffer — one doorbell for the lot.
  const rpc::Batch batch = b.take();
  const std::size_t total = batch_frame_bytes(batch.items.size(), batch.bytes);
  NativeBuffer* fb = server->shadow_.acquire_sized(total);
  write_batch_frame(fb->span.data(), batch.items);
  co_await server->host_.compute(cm.direct_copy(total) + cm.jni_call());
  if (!*alive) {
    // Server stopped while we computed; the pool outlives stop(), so the
    // lease can still go back, and the batch is counted lost.
    server->native_.release(fb);
    shard->pipeline.stats().responses_dropped_on_stop += batch.items.size();
    co_return true;
  }
  try {
    const net::ByteSpan wire(fb->span.data(), total);
    co_await conn->qp->post_send(reinterpret_cast<std::uint64_t>(fb), wire);
    // fb is released by reader_loop at the kSend completion (even wr_id).
  } catch (const verbs::VerbsError&) {
    server->native_.release(fb);
    co_return true;
  }
  if (!*alive) co_return true;
  ++shard->pipeline.stats().response_batches;
  shard->pipeline.stats().batched_responses += batch.items.size();
  co_return true;
}

}  // namespace rpcoib::oib
