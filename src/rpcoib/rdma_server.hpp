// RPCoIB server (paper Section III-D).
//
// Keeps the default server's thread architecture — Listener, Reader,
// Handler pool, Responder — but the Listener accepts QP bootstrap over the
// socket address, the Reader polls a completion queue for every
// connection, calls arrive in pooled registered buffers (eager) or are
// RDMA-READ in (rendezvous), and responses are serialized straight into
// pooled registered buffers whose size comes from per-method history.
//
// `shards` > 1 replicates the whole receive/dispatch chain: connections
// are assigned round-robin (by dense connection id) to independent shards,
// each with its own completion queue, its own SRQ stripe of the shared
// receive ring, its own CallPipeline (call queue + admission + retry
// cache) and its own handler subset — so CQ polling, admission and
// dispatch never contend across shards. The default of 1 keeps the server
// operation-for-operation identical to the unsharded code.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "rpc/pipeline.hpp"
#include "rpc/rpc.hpp"
#include "rpc/socket_server.hpp"
#include "rpcoib/buffer_pool.hpp"
#include "rpcoib/onesided.hpp"
#include "rpcoib/rdma_streams.hpp"
#include "rpcoib/wire.hpp"
#include "sim/channel.hpp"
#include "verbs/verbs.hpp"

namespace rpcoib::oib {

struct RdmaServerConfig {
  int num_handlers = 8;
  /// Reader shards (server.shards). Each shard owns a disjoint set of
  /// connections end to end: CQ, SRQ stripe, call queue, handlers.
  int shards = 1;
  std::size_t eager_threshold = WireDefaults::kEagerThreshold;
  std::size_t recv_buf_size = WireDefaults::kRecvBufSize;
  /// Per-connection receive-ring depth — only used in legacy mode
  /// (pool.srq_depth == 0). With the SRQ the server-wide ring is sized by
  /// pool.srq_depth / pool.srq_low_watermark instead (split into
  /// per-shard stripes when shards > 1).
  int recv_depth = WireDefaults::kRecvDepth;
  PoolConfig pool{};
  /// Evict connections with no receive activity for this long (LRU sweep,
  /// runs at half the threshold). The client re-bootstraps transparently
  /// on its next call. 0 = never evict.
  sim::Dur srq_idle_evict = 0;
  /// Also run a plain socket RPC listener at `addr.port +
  /// kSocketFallbackPortOffset` mirroring this server's dispatcher, so
  /// clients whose QP bootstrap fails can reroute (socket-mode fallback).
  bool socket_fallback = true;
  /// UD datagram eager path (default off): a small fixed pool of
  /// connectionless endpoints serves every client's sub-MTU eager calls,
  /// so per-client server state (QPs, rings) stays flat at any client
  /// count. Advertised on the verbs stack as a UdService at `addr`.
  UdConfig ud{};
  /// One-sided read plane (default off): export hot read-mostly responses
  /// into a registered seqlock region clients fetch with RDMA READ,
  /// advertised on the verbs stack as a OneSidedService at `addr`.
  OneSidedConfig onesided{};
};

class RdmaRpcServer final : public rpc::RpcServer {
 public:
  RdmaRpcServer(cluster::Host& host, net::SocketTable& sockets, verbs::VerbsStack& stack,
                net::Address addr, RdmaServerConfig cfg = {});
  ~RdmaRpcServer() override;

  void start() override;
  void stop() override;

  rpc::RpcStats& stats() override;
  const rpc::RpcStats& stats() const override;

  cluster::Host& host() const { return host_; }
  const net::Address& addr() const { return addr_; }
  ShadowPool& pool() { return shadow_; }
  int num_shards() const { return cfg_.shards; }

  /// Publish sink for application servers; nullptr with onesided off.
  rpc::OneSidedPublisher* onesided() override { return onesided_region_.get(); }
  /// The exported region itself — exposed for tests/benches.
  OneSidedRegion* onesided_region() { return onesided_region_.get(); }

 private:
  struct ConnState {
    verbs::QueuePairPtr qp;
    std::uint64_t id = 0;  // dense per-server sequence number
    std::uint64_t session_id = 0;  // durable session id (0 = sessionless)
    std::uint64_t owner = 0;       // retry-cache key: session_id, else id
    std::uint32_t shard = 0;  // home shard: session-affine, else (id - 1) % shards
    // Negotiated per-connection eager/rendezvous switch point:
    // min(local, client-advertised) from the bootstrap handshake.
    std::size_t eager_threshold = 0;
    // Per-connection legacy-ring buffer size, derived from the *larger*
    // of the two advertised thresholds at the handshake — a peer that
    // advertised more than our local knob may send eager frames that big
    // when our advertisement reads as "none" (threshold 0).
    std::size_t recv_buf_size = 0;
    // Small-response coalescer, allocated only when batching is enabled.
    std::unique_ptr<rpc::CallBatcher> batcher;
    // Last receive completion; the LRU idle-eviction sweep keys on this.
    sim::Time last_recv = 0;
  };
  // Shared across in-flight calls and the connection table so idle
  // eviction can't pull a ConnState out from under a running handler.
  using ConnPtr = std::shared_ptr<ConnState>;
  struct ServerCall {
    ConnPtr conn;
    NativeBuffer* buf = nullptr;  // holds the kCall frame (recv slot or fetched)
    std::uint32_t frame_len = 0;
    sim::Time recv_start = 0;
    sim::Time enqueued = 0;  // when the call entered the call queue
    // Protocol as pre-parsed at admission (per-protocol quota accounting);
    // only filled while admission control is on.
    std::string admit_protocol;
    const std::string& admission_protocol() const { return admit_protocol; }
    // UD arrivals carry a per-datagram pseudo-ConnState (session id, owner,
    // home shard; no QP) plus the GRH return address — the response is one
    // datagram from the endpoint that received the call.
    bool via_ud = false;
    verbs::AddressHandle ud_peer{};
    std::size_t ud_ep = 0;  // index into the endpoint pool
  };

  /// One reader shard: a disjoint set of connections with its own CQ, SRQ
  /// stripe and pipeline (queue/admission/cache/stats). Everything a
  /// completion can touch lives here, so shards share no mutable state.
  struct Shard : rpc::ServerShard<ServerCall> {
    Shard(cluster::Host& host, std::uint32_t index, const rpc::OverloadConfig& cfg,
          const rpc::SessionConfig& session)
        : ServerShard(host.sched(), index, host.id(), cfg, session,
                      rpc::SessionTouch::kAtDequeue),
          cq(std::make_unique<verbs::CompletionQueue>(host.sched())) {}

    std::unique_ptr<verbs::CompletionQueue> cq;
    // This shard's stripe of the shared receive ring (null in legacy mode).
    std::unique_ptr<verbs::SharedReceiveQueue> srq;
    std::size_t srq_depth = 0;          // stripe depth
    std::size_t srq_low_watermark = 0;  // stripe refill watermark
    // Bytes currently posted as receive buffers on this shard's rings; the
    // per-shard peaks sum into stats recv_ring_bytes_peak.
    std::size_t ring_bytes = 0;
    // Rendezvous response sources awaiting the client's ack, keyed by rkey.
    std::map<std::uint32_t, NativeBuffer*> pending_resp;
    // RDMA-READ fetches in flight on this shard's CQ, keyed by odd wr_id.
    std::map<std::uint64_t, sim::SimEvent*> read_waiters;
    std::uint64_t next_read_token = 1;
    // The liveness token of the run this shard serves (alive_ when start()
    // built it): a handler suspended across stop() and start() still sees
    // its own run as stopped.
    std::shared_ptr<bool> alive;
  };

  sim::Task listener_loop();
  sim::Task reader_loop(Shard& shard);
  /// Drain the shared UD CQ: unwrap kUdCall datagrams (splitting kBatch
  /// frames per sub-call *before* any session logic) and feed the same
  /// handler pipeline as RC traffic, homed by session id.
  sim::Task ud_reader_loop();
  /// Send one kResp datagram back through the receiving endpoint; bounces
  /// over-MTU responses with an error frame (a datagram can't fragment).
  sim::Co<void> ud_respond(ServerCall& call, NativeBuffer* buf, net::ByteSpan msg);
  sim::Task handler_loop(Shard& shard, int handler_id);
  /// Refill one shard's receive stripe whenever it drops below its low
  /// watermark (woken by the SRQ limit event; exits when the SRQ closes).
  sim::Task srq_refill_loop(Shard& shard);
  /// Periodic LRU sweep evicting connections idle past srq_idle_evict.
  sim::Task idle_evict_loop();
  sim::Task fetch_call(ConnPtr conn, std::uint32_t rkey, std::uint64_t off,
                       std::uint32_t len);
  sim::Co<void> respond(Shard& shard, ServerCall& call, RDMAOutputStream& out);
  /// Send an already-framed response verbatim (retry-cache dedup hits).
  sim::Co<void> respond_frame(ServerCall& call, net::ByteSpan frame);
  /// Put one encoded response in `buf` on the wire: a datagram for a UD
  /// call, an eager SEND or a kCtrlResp rendezvous otherwise.
  sim::Co<void> send_response(ServerCall& call, NativeBuffer* buf, net::ByteSpan msg);
  /// Admit `call` into its home shard's pipeline (pre-parsing the header
  /// for the admission gate when one is configured).
  sim::Co<void> enqueue_call(ServerCall call);
  /// Answer one call busy (the admission gate's shed callback).
  sim::Co<void> shed_call(ServerCall call);
  /// Split a client-coalesced kBatch frame into per-call pooled copies and
  /// admit each like a standalone call; every sub-call inherits `proto`'s
  /// connection (and UD return address).
  sim::Co<void> split_batch(const ServerCall& proto, net::ByteSpan frame);
  /// Post a pooled buffer as a receive: to `shard`'s SRQ stripe, or to
  /// `conn`'s own ring in legacy (srq_depth == 0) mode. wr_id is the
  /// buffer's address.
  void post_recv_buffer(Shard& shard, ConnState* conn, NativeBuffer* buf);
  /// Re-post a consumed receive buffer (or return it to the pool when the
  /// stripe is full / the connection is gone).
  void recycle_recv_buffer(Shard& shard, ConnState* conn, NativeBuffer* buf);
  void note_ring_bytes(Shard& shard, std::size_t n);
  /// The home shard of a connection (CQ, pipeline, pending_resp...).
  Shard& shard_of(const ConnState& conn) { return *shards_[conn.shard]; }
  /// Coalescer sink of one connection's responses (rpc::CallBatcher::add):
  /// posts the batch as one kBatch SEND. It keeps no append guard — after
  /// stop() its flush and linger timer stand down on the run's alive
  /// token, and the flush and respond() count what they then drop in
  /// responses_dropped_on_stop of the shard that handled the calls.
  struct ResponseSink {
    RdmaRpcServer* server;
    ConnPtr conn;
    Shard* shard;
    std::shared_ptr<bool> alive;  // shard->alive, owned: the linger timer may outlive the shard
    rpc::CallBatcher* batcher() { return *alive ? conn->batcher.get() : nullptr; }
    void appended() {}
    sim::Co<bool> flush(rpc::CallBatcher& b, rpc::FlushReason why);
  };

  cluster::Host& host_;
  net::SocketTable& sockets_;
  verbs::VerbsStack& stack_;
  verbs::ConnectionManager cm_;
  net::Address addr_;
  RdmaServerConfig cfg_;
  NativeBufferPool native_;
  ShadowPool shadow_;

  net::Listener* listener_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Restart graveyard (see rpc::retire_shards): a stopped run's CQs and
  // shard pipelines still have wakes posted to their suspended loops.
  std::vector<std::unique_ptr<Shard>> retired_shards_;
  std::vector<std::unique_ptr<verbs::CompletionQueue>> retired_ud_cqs_;
  // Fixed UD endpoint pool (cfg_.ud): shared CQ + reader; kept alive
  // across stop() (like the fallback listener) so late completions land
  // on a closed-but-live queue, and rebuilt by the next start().
  std::unique_ptr<verbs::CompletionQueue> ud_cq_;
  std::vector<std::unique_ptr<verbs::UdEndpoint>> ud_eps_;
  std::size_t ud_ring_bytes_ = 0;
  std::uint64_t ud_ring_bytes_peak_ = 0;
  std::uint64_t ud_rx_dropped_base_ = 0;  // drops from endpoints of past runs
  // Exported one-sided read region (cfg_.onesided). Created at the first
  // start() and kept across stop()/start() cycles: published entries and
  // the generation survive a restart; only the advertisement toggles.
  std::unique_ptr<OneSidedRegion> onesided_region_;
  std::uint64_t conn_seq_ = 0;
  // Keyed by ConnState::id — also the qp_context stamped into kRecv
  // completions, which is how SRQ-mode completions map back to their
  // connection (the wr_id names only the shared buffer).
  std::map<std::uint64_t, ConnPtr> conns_;
  // Companion socket listener for bootstrap-failure fallback clients.
  // Created at the first start() and stopped/restarted with this server,
  // never replaced: a stopped run's handler loops still have wakes queued
  // on its channels.
  std::unique_ptr<rpc::SocketRpcServer> fallback_;
  // Liveness token for detached flush timers: ConnState objects survive
  // stop() but the pool and stats must not be touched after it. Timers
  // hold a copy and stand down once *alive_ flips to false.
  std::shared_ptr<bool> alive_;
  bool running_ = false;
};

}  // namespace rpcoib::oib
