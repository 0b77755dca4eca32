// Default Hadoop RPC client (socket path) — the baseline the paper
// profiles in Section II.
//
// Mirrors org.apache.hadoop.ipc.Client: per-server Connection with a
// receiver thread multiplexing concurrent calls by id; per-call
// serialization into a fresh 32-byte DataOutputBuffer grown by Algorithm 1;
// a fresh DataOutputStream/BufferedOutputStream pair per send (Listing 1);
// per-response heap buffer allocation + native->heap copy on receive
// (Listing 2's client-side twin).
//
// With coalescing enabled (BatchConfig) sub-threshold calls accumulate in
// a per-connection CallBatcher and go out as one multi-call frame
// ([u32 total][u64 kWireBatchFlag|count][u32 len_i x count][payload_i...])
// when a limit fills or the adaptive linger expires. Batched *responses*
// from the server are always understood, independent of the local knob.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "rpc/batch.hpp"
#include "rpc/rpc.hpp"
#include "sim/sync.hpp"

namespace rpcoib::rpc {

class SocketRpcClient final : public RpcClient {
 public:
  /// `transport` is the network the socket rides (1GigE / 10GigE / IPoIB).
  SocketRpcClient(cluster::Host& host, net::SocketTable& sockets, net::Transport transport);
  ~SocketRpcClient() override;

  cluster::Host& host() const override { return host_; }
  net::Transport transport() const { return transport_; }

  /// Drop all cached connections (peers observe EOF).
  void close_connections();

 protected:
  sim::Co<void> call_attempt(net::Address addr, const MethodKey& key, const Writable& param,
                             Writable* response, std::uint64_t call_id,
                             bool retried) override;

 private:
  struct PendingCall {
    explicit PendingCall(sim::Scheduler& s) : done(s) {}
    sim::SimEvent done;
    net::Bytes value;
    bool error = false;
    bool busy = false;  // error with RpcStatus::kBusy -> ServerBusyException
    bool session_expired = false;  // kSessionExpired -> SessionExpiredException
    std::string error_msg;
  };

  struct Connection {
    Connection(sim::Scheduler& s, const BatchConfig& batch)
        : send_mu(s), ready(s), batcher(s, batch) {}
    net::SocketPtr sock;
    sim::SimMutex send_mu;
    sim::SimEvent ready;  // set once the socket handshake completed
    // Set by the teardown (EOF, failed write, injected kill) that failed
    // every pending call over to the retry loop; the next
    // get_connection() dials a fresh connection (DESIGN.md §13).
    bool broken = false;
    // Set by close_connections() before the sockets close: the receive
    // loop and flush timers check it after every resumption instead of
    // touching the (possibly destroyed) client.
    bool cancelled = false;
    std::map<std::uint64_t, PendingCall*> pending;
    CallBatcher batcher;
    sim::JoinHandle receiver;
  };

  // Shared-owned for the same reason as RdmaRpcClient: the receive loop
  // and in-flight calls must outlive close_connections().
  using ConnectionPtr = std::shared_ptr<Connection>;

  sim::Co<ConnectionPtr> get_connection(net::Address addr);
  sim::Task receive_loop(ConnectionPtr conn);
  /// Complete one response payload ([u64 id][u8 status][rest]) — the unit
  /// shared by the single-frame path and each sub-response of a batch.
  /// Static: runs off `host`/`conn` only, never the (possibly dead) client.
  static sim::Co<void> deliver_one(cluster::Host& host, Connection& conn,
                                   net::ByteSpan payload);
  /// Coalescer sink of one connection (CallBatcher::add): writes the
  /// batch frame under the send mutex.
  struct BatchSink {
    SocketRpcClient* client;
    ConnectionPtr conn;
    CallBatcher* batcher() { return conn->cancelled || conn->broken ? nullptr : &conn->batcher; }
    void appended() { ++client->stats_.batched_calls; }
    sim::Co<bool> flush(CallBatcher& b, FlushReason why);
  };
  static void fail_all(Connection& conn, const std::string& why);
  /// Forced mid-call teardown: the FaultPlan connection-kill hook.
  void kill_connection(const ConnectionPtr& conn, net::Address addr);

  cluster::Host& host_;
  net::SocketTable& sockets_;
  net::Transport transport_;
  std::map<net::Address, std::shared_ptr<Connection>> connections_;
};

}  // namespace rpcoib::rpc
