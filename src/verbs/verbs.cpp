#include "verbs/verbs.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

namespace rpcoib::verbs {

// ---------------------------------------------------------------------------
// ProtectionDomain

ProtectionDomain::ProtectionDomain(VerbsStack& stack, cluster::Host& host)
    : stack_(stack), host_(host) {}

ProtectionDomain::~ProtectionDomain() {
  for (std::uint32_t k : owned_rkeys_) stack_.remove_region(k);
}

MemoryRegion ProtectionDomain::register_mr_untimed(net::MutByteSpan buf) {
  MemoryRegion mr;
  mr.addr = buf.data();
  mr.length = buf.size();
  mr.owner = host_.id();
  const std::uint32_t key = stack_.add_region(mr);
  mr.lkey = mr.rkey = key;
  owned_rkeys_.push_back(key);
  return mr;
}

sim::Co<MemoryRegion> ProtectionDomain::register_mr(net::MutByteSpan buf) {
  co_await host_.compute(stack_.registration_cost(buf.size()));
  co_return register_mr_untimed(buf);
}

void ProtectionDomain::deregister(const MemoryRegion& mr) {
  stack_.remove_region(mr.rkey);
  std::erase(owned_rkeys_, mr.rkey);
}

// ---------------------------------------------------------------------------
// VerbsStack

std::uint32_t VerbsStack::add_region(MemoryRegion mr) {
  const std::uint32_t key = next_key_++;
  mr.lkey = mr.rkey = key;
  regions_.emplace(key, mr);
  return key;
}

void VerbsStack::remove_region(std::uint32_t rkey) { regions_.erase(rkey); }

net::MutByteSpan VerbsStack::resolve(std::uint32_t rkey, std::uint64_t offset,
                                     std::size_t len) const {
  auto it = regions_.find(rkey);
  if (it == regions_.end()) throw VerbsError("unknown rkey");
  const MemoryRegion& mr = it->second;
  if (offset + len > mr.length) throw VerbsError("remote access out of bounds");
  return net::MutByteSpan(mr.addr + offset, len);
}

sim::Dur VerbsStack::registration_cost(std::size_t bytes) const {
  // ~35us base (ibv_reg_mr syscall + HCA doorbell) + ~0.25us per 4K page
  // of pinning. Large pools take milliseconds to register — which is why
  // RPCoIB does it once at library load.
  const double pages = static_cast<double>(bytes) / 4096.0;
  return sim::from_us(35.0 + 0.25 * pages);
}

// ---------------------------------------------------------------------------
// SharedReceiveQueue

SharedReceiveQueue::~SharedReceiveQueue() {
  // Detach any still-parked QPs so their destructors don't reach back into
  // a dead SRQ.
  for (QueuePair* qp : waiters_) {
    qp->srq_waiting_ = false;
    qp->srq_ = nullptr;
  }
}

void SharedReceiveQueue::post_recv(std::uint64_t wr_id, net::MutByteSpan buf) {
  ring_.push_back(PostedRecv{wr_id, buf});
  // Drain parked QPs in arrival order. A QP whose inbound outruns the ring
  // re-queues at the tail (round-robin across starved connections), which
  // keeps the schedule deterministic and starvation-free.
  while (!ring_.empty() && !waiters_.empty()) {
    QueuePair* qp = waiters_.front();
    waiters_.pop_front();
    qp->srq_waiting_ = false;
    qp->match_inbound();
  }
}

std::vector<std::uint64_t> SharedReceiveQueue::drain_posted_recvs() {
  std::vector<std::uint64_t> ids;
  ids.reserve(ring_.size());
  for (const PostedRecv& pr : ring_) ids.push_back(pr.wr_id);
  ring_.clear();
  armed_watermark_ = 0;
  return ids;
}

void SharedReceiveQueue::arm_limit(std::size_t watermark) {
  armed_watermark_ = watermark;
  if (armed_watermark_ != 0 && ring_.size() < armed_watermark_) {
    // Already below the watermark: fire immediately (refill is due now).
    armed_watermark_ = 0;
    limit_events_.push(ring_.size());
  }
}

sim::Co<void> SharedReceiveQueue::wait_limit() {
  (void)co_await limit_events_.recv();
  co_return;
}

bool SharedReceiveQueue::try_pop(PostedRecv& out) {
  if (ring_.empty()) return false;
  out = ring_.front();
  ring_.pop_front();
  if (armed_watermark_ != 0 && ring_.size() < armed_watermark_) {
    armed_watermark_ = 0;  // one-shot until re-armed
    limit_events_.push(ring_.size());
  }
  return true;
}

void SharedReceiveQueue::add_waiter(QueuePair* qp) {
  if (qp->srq_waiting_) return;
  qp->srq_waiting_ = true;
  waiters_.push_back(qp);
}

void SharedReceiveQueue::remove_waiter(QueuePair* qp) {
  if (!qp->srq_waiting_) return;
  qp->srq_waiting_ = false;
  std::erase(waiters_, qp);
}

void SharedReceiveQueue::note_stall() {
  ++rnr_stalls_;
  if (stall_mirror_ != nullptr) ++*stall_mirror_;
}

// ---------------------------------------------------------------------------
// QueuePair

QueuePair::QueuePair(VerbsStack& stack, cluster::Host& host, CompletionQueue& send_cq,
                     CompletionQueue& recv_cq)
    : stack_(stack), host_(host), send_cq_(send_cq.handle()), recv_cq_(recv_cq.handle()) {}

QueuePair::~QueuePair() {
  if (srq_ != nullptr) srq_->remove_waiter(this);
}

void QueuePair::connect_to(const QueuePairPtr& peer) {
  peer_ = peer;
  remote_host_ = peer->host_.id();
}

void QueuePair::disconnect() {
  peer_.reset();
  if (srq_ != nullptr) srq_->remove_waiter(this);
}

std::vector<std::uint64_t> QueuePair::drain_posted_recvs() {
  std::vector<std::uint64_t> ids;
  ids.reserve(posted_recvs_.size());
  for (const PostedRecv& pr : posted_recvs_) ids.push_back(pr.wr_id);
  posted_recvs_.clear();
  return ids;
}

void QueuePair::post_recv(std::uint64_t wr_id, net::MutByteSpan buf) {
  if (srq_ != nullptr) throw VerbsError("QP attached to SRQ has no receive queue");
  posted_recvs_.push_back(PostedRecv{wr_id, buf});
  match_inbound();
}

void QueuePair::set_srq(SharedReceiveQueue* srq) {
  if (srq == nullptr && srq_ != nullptr) srq_->remove_waiter(this);
  srq_ = srq;
}

void QueuePair::match_inbound() {
  while (!inbound_.empty()) {
    PostedRecv pr;
    if (srq_ != nullptr) {
      if (!srq_->try_pop(pr)) {
        // RNR: the shared ring is dry. Park the remaining arrivals and
        // queue for the next buffer posted to the SRQ.
        srq_->add_waiter(this);
        return;
      }
    } else {
      if (posted_recvs_.empty()) return;
      pr = posted_recvs_.front();
      posted_recvs_.pop_front();
    }
    InboundMsg msg = std::move(inbound_.front());
    inbound_.pop_front();
    if (msg.data.size() > pr.buf.size()) throw VerbsError("recv buffer too small for SEND");
    std::memcpy(pr.buf.data(), msg.data.data(), msg.data.size());
    complete(recv_cq_, WorkCompletion{pr.wr_id, Opcode::kRecv,
                                      static_cast<std::uint32_t>(msg.data.size()), 0, context_});
  }
}

void QueuePair::on_send_arrival(net::Bytes data) {
  inbound_.push_back(InboundMsg{std::move(data)});
  match_inbound();
  // Count each arrival this QP could not deliver immediately for lack of a
  // shared buffer — the simulator's stand-in for an RNR NAK + sender retry.
  if (srq_ != nullptr && !inbound_.empty()) srq_->note_stall();
}

sim::Co<void> QueuePair::post_send(std::uint64_t wr_id, net::ByteSpan buf) {
  QueuePairPtr peer = peer_.lock();
  if (!peer) throw VerbsError("QP not connected");
  net::Fabric& fab = stack_.fabric();
  const net::NetParams& p = fab.params(net::Transport::kIBVerbs);

  // Doorbell: the posting thread writes the WQE and rings the HCA.
  co_await host_.compute(p.per_msg_send_cpu);

  net::Bytes payload(buf.begin(), buf.end());
  // Size read before the move: argument evaluation order is unspecified.
  const std::size_t wire_bytes = payload.size();
  auto on_arrival = [peer, payload = std::move(payload)]() mutable {
    peer->on_send_arrival(std::move(payload));
  };
  static_assert(sim::Callback::stores_inline<decltype(on_arrival)>);
  const sim::Time arrival = fab.deliver_flow(host_.id(), peer->host_.id(),
                                             net::Transport::kIBVerbs, wire_bytes, send_clock_,
                                             std::move(on_arrival));
  // RC send completion after the ACK returns.
  fab.sched().call_at(arrival + p.one_way_latency, [scq = send_cq_, wr_id, n = buf.size()] {
    complete(scq, WorkCompletion{wr_id, Opcode::kSend, static_cast<std::uint32_t>(n), 0});
  });
  co_return;
}

sim::Co<void> QueuePair::post_rdma_write(std::uint64_t wr_id, net::ByteSpan local,
                                         RemoteBuffer dst, std::optional<std::uint32_t> imm) {
  QueuePairPtr peer = peer_.lock();
  if (!peer) throw VerbsError("QP not connected");
  if (local.size() > dst.length) throw VerbsError("RDMA write larger than remote buffer");
  net::Fabric& fab = stack_.fabric();
  const net::NetParams& p = fab.params(net::Transport::kIBVerbs);

  co_await host_.compute(p.per_msg_send_cpu);

  // The payload snapshot and the remote address travel in the arrival
  // callback, packed to fit sim::Callback's inline storage. The rkey
  // resolves in the peer's stack: connected QPs share one VerbsStack.
  const auto n = static_cast<std::uint32_t>(local.size());  // <= dst.length
  auto payload = std::make_unique_for_overwrite<net::Byte[]>(n);
  std::copy(local.begin(), local.end(), payload.get());
  auto on_arrival = [peer, payload = std::move(payload), n, rkey = dst.rkey,
                     offset = dst.offset, imm] {
    net::MutByteSpan target = peer->stack_.resolve(rkey, offset, n);
    std::copy_n(payload.get(), n, target.begin());
    if (imm) {
      // WRITE_WITH_IMM surfaces at the peer as a receive-type completion.
      complete(peer->recv_cq_, WorkCompletion{0, Opcode::kRecvRdmaWithImm, n, *imm});
    }
  };
  static_assert(sim::Callback::stores_inline<decltype(on_arrival)>);
  const sim::Time arrival = fab.deliver_flow(host_.id(), peer->host_.id(),
                                             net::Transport::kIBVerbs, n, send_clock_,
                                             std::move(on_arrival));
  fab.sched().call_at(arrival + p.one_way_latency, [scq = send_cq_, wr_id, n] {
    complete(scq, WorkCompletion{wr_id, Opcode::kRdmaWrite, n, 0});
  });
  co_return;
}

sim::Co<void> QueuePair::post_rdma_read(std::uint64_t wr_id, net::MutByteSpan local,
                                        RemoteBuffer src) {
  QueuePairPtr peer = peer_.lock();
  if (!peer) throw VerbsError("QP not connected");
  if (src.length < local.size()) throw VerbsError("RDMA read larger than remote buffer");
  net::Fabric& fab = stack_.fabric();
  const net::NetParams& p = fab.params(net::Transport::kIBVerbs);

  co_await host_.compute(p.per_msg_send_cpu);

  // Request (small) to the responder...
  const sim::Time req_arrival =
      fab.reserve_egress(host_.id(), net::Transport::kIBVerbs, 32) + p.one_way_latency;
  // ...then data flows back, paying wire time on the responder's egress.
  VerbsStack* stack = &stack_;
  cluster::HostId responder = peer->host_.id();
  cluster::HostId requester = host_.id();
  fab.sched().call_at(req_arrival, [&fab, stack, scq = send_cq_, wr_id, local, src, responder,
                                    requester] {
    // The rkey resolves when the request *arrives* at the responder. A
    // region deregistered while the request was in flight is a remote
    // access error: the requester gets a failed completion (status != 0)
    // with an untouched buffer, never a crash or a read of freed memory.
    net::MutByteSpan source;
    try {
      source = stack->resolve(src.rkey, src.offset, local.size());
    } catch (const VerbsError&) {
      WorkCompletion wc{wr_id, Opcode::kRdmaRead, 0, 0};
      wc.status = 1;
      complete(scq, wc);
      return;
    }
    auto on_arrival = [scq, wr_id, dst = local.data(), from = source.data(),
                       n = static_cast<std::uint32_t>(local.size())] {
      std::shared_ptr<CompletionQueue> q = scq.lock();
      if (!q) return;  // requester torn down: its buffer may be gone too
      std::memcpy(dst, from, n);
      q->push(WorkCompletion{wr_id, Opcode::kRdmaRead, n, 0});
    };
    static_assert(sim::Callback::stores_inline<decltype(on_arrival)>);
    fab.deliver(responder, requester, net::Transport::kIBVerbs, local.size(),
                std::move(on_arrival));
  });
  co_return;
}

// ---------------------------------------------------------------------------
// UdEndpoint

UdEndpoint::UdEndpoint(VerbsStack& stack, cluster::Host& host, CompletionQueue& send_cq,
                       CompletionQueue& recv_cq)
    : stack_(stack), host_(host), send_cq_(send_cq.handle()), recv_cq_(recv_cq.handle()) {
  qpn_ = stack_.ud_register(this);
}

UdEndpoint::~UdEndpoint() { stack_.ud_unregister(qpn_); }

void UdEndpoint::post_recv(std::uint64_t wr_id, net::MutByteSpan buf) {
  ring_.push_back(PostedRecv{wr_id, buf});
}

std::vector<std::uint64_t> UdEndpoint::drain_posted_recvs() {
  std::vector<std::uint64_t> ids;
  ids.reserve(ring_.size());
  for (const PostedRecv& pr : ring_) ids.push_back(pr.wr_id);
  ring_.clear();
  return ids;
}

sim::Co<void> UdEndpoint::post_send(std::uint64_t wr_id, const AddressHandle& ah,
                                    net::ByteSpan buf) {
  if (buf.size() > kMtu) throw VerbsError("UD send exceeds path MTU");
  net::Fabric& fab = stack_.fabric();
  const net::NetParams& p = fab.params(net::Transport::kIBVerbs);

  // Doorbell: same WQE cost as an RC send.
  co_await host_.compute(p.per_msg_send_cpu);

  net::Bytes payload(buf.begin(), buf.end());
  // Size read before the move: argument evaluation order is unspecified.
  const std::size_t wire_bytes = kGrhBytes + payload.size();
  VerbsStack* stack = &stack_;
  const cluster::HostId src_host = host_.id();
  const std::uint32_t src_qpn = qpn_;
  const std::uint32_t dst_qpn = ah.qpn;
  // Destination resolution happens at arrival: a datagram to an endpoint
  // that no longer exists simply vanishes.
  const sim::Time arrival = fab.deliver_datagram(
      src_host, ah.host, net::Transport::kIBVerbs, wire_bytes,
      [stack, src_host, src_qpn, dst_qpn, payload = std::move(payload)]() mutable {
        UdEndpoint* ep = stack->ud_lookup(dst_qpn);
        if (ep != nullptr) ep->on_datagram_arrival(src_host, src_qpn, std::move(payload));
      });
  // UD send completion once the datagram is on the wire — no ACK, so the
  // completion is identical whether or not the datagram ever arrives.
  fab.sched().call_at(arrival - p.one_way_latency, [scq = send_cq_, wr_id, n = buf.size()] {
    complete(scq, WorkCompletion{wr_id, Opcode::kSend, static_cast<std::uint32_t>(n), 0});
  });
  co_return;
}

void UdEndpoint::on_datagram_arrival(cluster::HostId src_host, std::uint32_t src_qpn,
                                     net::Bytes data) {
  // No posted receive (ring overrun) or an undersized head buffer: the
  // datagram is silently dropped. UD has no RNR backpressure — recovery is
  // the caller's problem (RPCoIB rides the session/retry path).
  if (ring_.empty()) {
    ++rx_dropped_;
    return;
  }
  PostedRecv pr = ring_.front();
  ring_.pop_front();
  if (kGrhBytes + data.size() > pr.buf.size()) {
    ++rx_dropped_;
    return;
  }
  // GRH-style source addressing: the first kGrhBytes of the receive buffer
  // name the sender, so the receiver can reply with zero per-sender state.
  std::memset(pr.buf.data(), 0, kGrhBytes);
  const std::uint32_t sh = static_cast<std::uint32_t>(src_host);
  std::memcpy(pr.buf.data(), &sh, sizeof(sh));
  std::memcpy(pr.buf.data() + 4, &src_qpn, sizeof(src_qpn));
  std::memcpy(pr.buf.data() + kGrhBytes, data.data(), data.size());
  complete(recv_cq_, WorkCompletion{pr.wr_id, Opcode::kRecv,
                                    static_cast<std::uint32_t>(kGrhBytes + data.size()), 0,
                                    context_});
}

// ---------------------------------------------------------------------------
// ConnectionManager

namespace {
// QP bootstrap messages are tiny fixed-size blobs (LID/QPN/PSN in real IB).
constexpr std::size_t kEndpointInfoBytes = 72;
}  // namespace

sim::Co<QueuePairPtr> ConnectionManager::connect(cluster::Host& src, net::Address addr,
                                                 CompletionQueue& send_cq,
                                                 CompletionQueue& recv_cq,
                                                 net::Transport mgmt_transport,
                                                 std::uint64_t local_eager_threshold,
                                                 std::uint64_t* peer_eager_threshold,
                                                 std::uint64_t session_id) {
  net::SocketPtr sock = co_await sockets_.connect(src, addr, mgmt_transport);
  // Injected fault hook: the management socket worked, but the verbs-level
  // exchange (SM path resolution, GID lookup) fails. Distinct from a dead
  // server — that surfaces as a SocketError above.
  if (stack_.take_bootstrap_failure()) {
    sock->close();
    throw VerbsError("connection manager: bootstrap exchange failed (injected)");
  }
  auto qp = std::make_shared<QueuePair>(stack_, src, send_cq, recv_cq);

  // Exchange endpoint info: send ours, wait for the peer's. The server
  // stashes the half-open QP in the stack's rendezvous table keyed by a
  // cookie carried in the payload; since both ends live in one process we
  // pass the pointer through the socket payload's identity instead — the
  // accept() side pairs on the same socket.
  net::Bytes info(kEndpointInfoBytes, 0);
  const std::uintptr_t cookie = reinterpret_cast<std::uintptr_t>(qp.get());
  std::memcpy(info.data(), &cookie, sizeof(cookie));
  // Bytes 8..15: our eager threshold (0 = not advertised). Bytes 16..23:
  // our durable session id (0 = sessionless). The blob was all-zero in
  // both ranges before, so unadvertised stays wire-identical.
  std::memcpy(info.data() + 8, &local_eager_threshold, sizeof(local_eager_threshold));
  std::memcpy(info.data() + 16, &session_id, sizeof(session_id));
  stack_.cm_register(cookie, qp);
  co_await sock->write(info);

  net::Bytes reply(kEndpointInfoBytes);
  co_await sock->read_full(reply);
  stack_.cm_erase(cookie);
  if (!qp->connected()) throw VerbsError("connection manager: pairing failed");
  if (peer_eager_threshold != nullptr) {
    std::memcpy(peer_eager_threshold, reply.data() + 8, sizeof(*peer_eager_threshold));
  }
  sock->close();
  co_return qp;
}

sim::Co<ConnectionManager::BootstrapInfo> ConnectionManager::read_bootstrap(
    net::SocketPtr bootstrap) {
  net::Bytes info(kEndpointInfoBytes);
  co_await bootstrap->read_full(info);
  BootstrapInfo out;
  std::memcpy(&out.cookie, info.data(), sizeof(out.cookie));
  std::memcpy(&out.peer_eager_threshold, info.data() + 8,
              sizeof(out.peer_eager_threshold));
  std::memcpy(&out.session_id, info.data() + 16, sizeof(out.session_id));
  co_return out;
}

sim::Co<QueuePairPtr> ConnectionManager::accept(net::SocketPtr bootstrap,
                                                const BootstrapInfo& info,
                                                CompletionQueue& send_cq,
                                                CompletionQueue& recv_cq,
                                                std::uint64_t local_eager_threshold) {
  QueuePairPtr client_qp = stack_.cm_lookup(info.cookie);
  if (!client_qp) throw VerbsError("connection manager: unknown endpoint cookie");

  auto qp = std::make_shared<QueuePair>(stack_, bootstrap->local(), send_cq, recv_cq);
  qp->connect_to(client_qp);
  client_qp->connect_to(qp);

  net::Bytes reply(kEndpointInfoBytes, 0);
  std::memcpy(reply.data() + 8, &local_eager_threshold, sizeof(local_eager_threshold));
  co_await bootstrap->write(reply);
  co_return qp;
}

sim::Co<QueuePairPtr> ConnectionManager::accept(net::SocketPtr bootstrap,
                                                CompletionQueue& send_cq,
                                                CompletionQueue& recv_cq,
                                                std::uint64_t local_eager_threshold,
                                                std::uint64_t* peer_eager_threshold) {
  const BootstrapInfo info = co_await read_bootstrap(bootstrap);
  if (peer_eager_threshold != nullptr) *peer_eager_threshold = info.peer_eager_threshold;
  QueuePairPtr qp =
      co_await accept(bootstrap, info, send_cq, recv_cq, local_eager_threshold);
  co_return qp;
}

}  // namespace rpcoib::verbs
