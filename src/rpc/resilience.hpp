// Resilience metrics table: retry/timeout/fault counters rendered with the
// same fixed-width Table the bench binaries use. Returned as a string so
// the chaos suite can assert byte-identical reports across seeded runs.
#pragma once

#include <algorithm>
#include <sstream>
#include <string>

#include "metrics/table.hpp"
#include "net/fault.hpp"
#include "rpc/stats.hpp"

namespace rpcoib::rpc {

inline std::string resilience_report(const RpcStats& stats,
                                     const net::FaultCounters* faults = nullptr,
                                     const RpcStats* server = nullptr) {
  metrics::Table t({"Counter", "Value"});
  t.row({"calls sent", std::to_string(stats.calls_sent)});
  t.row({"timeouts", std::to_string(stats.timeouts)});
  t.row({"transport errors", std::to_string(stats.transport_errors)});
  t.row({"retries", std::to_string(stats.retries)});
  t.row({"socket fallbacks", std::to_string(stats.socket_fallbacks)});
  t.row({"busy rejections", std::to_string(stats.busy_rejections)});
  t.row({"nack fallbacks", std::to_string(stats.nack_fallbacks)});
  t.row({"backoff waits", std::to_string(stats.backoff_us.count())});
  t.row({"backoff total (us)", metrics::Table::num(stats.backoff_us.sum(), 1)});
  t.row({"batches sent", std::to_string(stats.batches_sent)});
  t.row({"batched calls", std::to_string(stats.batched_calls)});
  t.row({"batch flushes (full)", std::to_string(stats.batch_flush_full)});
  t.row({"batch flushes (linger)", std::to_string(stats.batch_flush_linger)});
  t.row({"batch flushes (immediate)", std::to_string(stats.batch_flush_immediate)});
  t.row({"connections opened", std::to_string(stats.connections_opened)});
  t.row({"threshold mismatches", std::to_string(stats.threshold_mismatches)});
  // Reconnect recovery FSM rows, split by detection cause. Emitted only
  // when a reconnect happened so sessionless seeded reports stay
  // byte-identical to builds without the session layer.
  if (stats.reconnects_peer_closed + stats.reconnects_qp_error +
          stats.reconnects_idle_evicted + stats.reconnects_fault_injected +
          stats.calls_replayed >
      0) {
    t.row({"reconnects (peer closed)", std::to_string(stats.reconnects_peer_closed)});
    t.row({"reconnects (qp error)", std::to_string(stats.reconnects_qp_error)});
    t.row({"reconnects (idle evicted)", std::to_string(stats.reconnects_idle_evicted)});
    t.row({"reconnects (fault injected)",
           std::to_string(stats.reconnects_fault_injected)});
    t.row({"calls replayed", std::to_string(stats.calls_replayed)});
  }
  // UD datagram-path rows appear only when UD traffic flowed (the path is
  // default-off; RC-only reports must stay byte-identical).
  if (stats.ud_datagrams_sent + stats.ud_responses_received + stats.ud_rc_fallbacks >
      0) {
    t.row({"ud datagrams sent", std::to_string(stats.ud_datagrams_sent)});
    t.row({"ud responses received", std::to_string(stats.ud_responses_received)});
    t.row({"ud rc fallbacks", std::to_string(stats.ud_rc_fallbacks)});
  }
  // One-sided read-plane rows appear only when the fast path was tried
  // (default-off; RPC-only reports must stay byte-identical).
  if (stats.onesided_reads + stats.onesided_misses + stats.onesided_conflict_fallbacks +
          stats.onesided_stale_refreshes + stats.onesided_fallbacks >
      0) {
    t.row({"onesided reads", std::to_string(stats.onesided_reads)});
    t.row({"onesided misses", std::to_string(stats.onesided_misses)});
    t.row({"onesided conflict fallbacks",
           std::to_string(stats.onesided_conflict_fallbacks)});
    t.row({"onesided stale refreshes", std::to_string(stats.onesided_stale_refreshes)});
    t.row({"onesided fallbacks", std::to_string(stats.onesided_fallbacks)});
  }
  // Cold-start session recovery (first datagram of a session lost on a
  // lossy path); own gate so loss-free reports grow no row.
  if (stats.session_cold_restarts > 0) {
    t.row({"session cold restarts", std::to_string(stats.session_cold_restarts)});
  }
  t.row({"streams opened", std::to_string(stats.streams_opened)});
  t.row({"stream chunks", std::to_string(stats.stream_chunks)});
  t.row({"stream bytes", std::to_string(stats.stream_bytes)});
  t.row({"stream credit stalls", std::to_string(stats.stream_credit_stalls)});
  t.row({"stream fallbacks", std::to_string(stats.stream_fallbacks)});
  t.row({"stream pool denied", std::to_string(stats.stream_pool_denied)});
  t.row({"stream aborts", std::to_string(stats.stream_aborts)});
  t.row({"stream deadline expiries", std::to_string(stats.stream_deadline_expiries)});
  if (faults != nullptr) {
    t.row({"fault drops", std::to_string(faults->drops)});
    t.row({"fault spikes", std::to_string(faults->spikes)});
    t.row({"fault outage hits", std::to_string(faults->outage_hits)});
    t.row({"fault true losses", std::to_string(faults->true_losses)});
    // Connection kills only appear when the plan fired one, keeping
    // kill-free seeded reports byte-identical to earlier builds.
    if (faults->kills > 0) {
      t.row({"fault kills", std::to_string(faults->kills)});
    }
    // Same gating for the UD datagram-loss stream.
    if (faults->datagram_losses > 0) {
      t.row({"fault datagram losses", std::to_string(faults->datagram_losses)});
    }
  }
  if (server != nullptr) {
    // Server-side overload section (admission / deadlines / retry cache).
    t.row({"server calls shed", std::to_string(server->calls_shed)});
    t.row({"server calls expired", std::to_string(server->calls_expired)});
    t.row({"server responses expired", std::to_string(server->responses_expired)});
    t.row({"server dedup hits", std::to_string(server->dedup_hits)});
    t.row({"server dedup in-flight", std::to_string(server->dedup_in_flight)});
    t.row({"server dropped on stop", std::to_string(server->dropped_on_stop)});
    t.row({"server pool nacks", std::to_string(server->pool_nacks)});
    t.row({"server queue depth peak", std::to_string(server->queue_depth_peak)});
    t.row({"server batches received", std::to_string(server->batches_received)});
    t.row({"server batched calls", std::to_string(server->batched_calls_received)});
    t.row({"server response batches", std::to_string(server->response_batches)});
    t.row({"server batched responses", std::to_string(server->batched_responses)});
    t.row({"server srq posted", std::to_string(server->srq_posted)});
    t.row({"server srq refills", std::to_string(server->srq_refills)});
    t.row({"server srq rnr stalls", std::to_string(server->srq_rnr_stalls)});
    t.row({"server srq evictions", std::to_string(server->srq_evictions)});
    t.row({"server recv ring bytes peak", std::to_string(server->recv_ring_bytes_peak)});
    t.row({"server responses dropped on stop",
           std::to_string(server->responses_dropped_on_stop)});
    // Server UD rows appear only when a datagram reached (or bounced off)
    // a UD endpoint; see the client-side ud rows above.
    if (server->ud_calls_received + server->ud_responses_sent + server->ud_rx_dropped +
            server->ud_resp_oversize >
        0) {
      t.row({"server ud calls received", std::to_string(server->ud_calls_received)});
      t.row({"server ud responses sent", std::to_string(server->ud_responses_sent)});
      t.row({"server ud rx dropped", std::to_string(server->ud_rx_dropped)});
      t.row({"server ud oversize responses", std::to_string(server->ud_resp_oversize)});
    }
    // Server one-sided rows appear only when something was published
    // (region layer is default-off).
    if (server->onesided_published + server->onesided_reexports > 0) {
      t.row({"server onesided published", std::to_string(server->onesided_published)});
      t.row({"server onesided reexports", std::to_string(server->onesided_reexports)});
    }
    // Session-table rows appear only once a session was opened (the layer
    // is default-off; sessionless reports must not change).
    if (server->sessions_opened + server->sessions_expired + server->sessions_evicted +
            server->sessions_rejected + server->session_table_peak >
        0) {
      t.row({"server sessions opened", std::to_string(server->sessions_opened)});
      t.row({"server sessions expired", std::to_string(server->sessions_expired)});
      t.row({"server sessions evicted", std::to_string(server->sessions_evicted)});
      t.row({"server session rejections", std::to_string(server->sessions_rejected)});
      t.row({"server session table peak", std::to_string(server->session_table_peak)});
    }
    if (!server->shards.empty()) {
      // Sharded receive path (server.shards): one row group per reader
      // shard plus an imbalance summary, all integer-valued so the chaos
      // suite's byte-identical assertions extend to the sharded layout.
      t.row({"server shards", std::to_string(server->shards.size())});
      std::uint64_t max_disp = 0, min_disp = ~std::uint64_t{0};
      for (std::size_t i = 0; i < server->shards.size(); ++i) {
        const ShardCounters& sc = server->shards[i];
        const std::string p = "shard " + std::to_string(i) + " ";
        t.row({p + "conns", std::to_string(sc.conns_assigned)});
        t.row({p + "dispatched", std::to_string(sc.dispatched)});
        t.row({p + "queue peak", std::to_string(sc.queued_peak)});
        t.row({p + "dropped", std::to_string(sc.dropped)});
        max_disp = std::max(max_disp, sc.dispatched);
        min_disp = std::min(min_disp, sc.dispatched);
      }
      t.row({"shard dispatch spread (max-min)", std::to_string(max_disp - min_disp)});
    }
  }
  std::ostringstream os;
  t.print(os);
  return os.str();
}

}  // namespace rpcoib::rpc
