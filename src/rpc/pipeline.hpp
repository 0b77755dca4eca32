// Transport-independent per-shard server call pipeline.
//
// RPCoIB keeps Hadoop's Listener/Reader/Handler/Responder server and swaps
// only the transport underneath it (Section III-D), so what the server
// decides about one call is written once, here, for both transports:
//
//   arrival  — ServerShard::touch_session (socket) and CallPipeline::admit,
//              the admission gate (decide / shed-newest / evict-oldest);
//   dequeue  — ServerShard::screen: deadline, queue span, session
//              lease/fence, retry-cache begin — one Verdict per call;
//   executed — ServerShard::record: retry-cache complete (or forget for a
//              pool-busy shed) and the deadline-before-response check;
//   stop     — CallPipeline::drain, plus retire_shards / fold_shard_stats
//              for restarts and the stats() view.
//
// With the server sharded (server.shards), each reader shard owns one
// ServerShard — its own call queue, AdmissionController, RetryCache,
// SessionTable and stats block — so shards never share mutable state. The
// transport keeps what genuinely depends on it: frame parsing, response
// encoding and sending, and buffer ownership.
//
// `Call` must expose a `sim::Time enqueued` member and a
// `const std::string& admission_protocol() const` accessor (the key of the
// per-protocol admission quota).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rpc/overload.hpp"
#include "rpc/protocol.hpp"
#include "rpc/session.hpp"
#include "rpc/stats.hpp"
#include "rpc/writable.hpp"
#include "sim/channel.hpp"
#include "sim/task.hpp"
#include "trace/trace.hpp"

namespace rpcoib::rpc {

/// What the pipeline needs to know about one call: its wire header
/// ([u64 id|flags][u64 trace id, u64 span id]?[u64 deadline]?[protocol]
/// [method]) plus the transport-side identity of its sender.
struct CallHead {
  std::uint64_t id = 0;         // call id, wire flags stripped
  bool retried = false;         // kWireRetryFlag: a client retry attempt
  sim::Time deadline = 0;       // caller's absolute deadline (0 = none)
  trace::TraceContext ctx;      // caller's trace context
  MethodKey key;
  std::uint64_t session_id = 0;  // durable session id (0 = sessionless)
  std::uint64_t owner = 0;       // retry-cache key: session_id, else connection id
};

/// Read the wire fields of a call header from `in`, positioned at the id
/// word. The transport fills session_id/owner. Throws on a truncated frame.
inline CallHead read_call_head(DataInput& in) {
  CallHead h;
  h.id = in.read_u64();
  if ((h.id & trace::kWireTraceFlag) != 0) {
    h.ctx.trace_id = in.read_u64();
    h.ctx.span_id = in.read_u64();
  }
  if ((h.id & trace::kWireDeadlineFlag) != 0) h.deadline = in.read_u64();
  h.retried = (h.id & trace::kWireRetryFlag) != 0;
  h.id &= trace::kWireIdMask;
  h.key.protocol = in.read_text();
  h.key.method = in.read_text();
  return h;
}

/// Write a call header to `out` — the mirror of read_call_head: the id
/// with its trace/deadline/retry flags, the two context words when `ctx`
/// is valid, the deadline when non-zero, then protocol and method. A call
/// with none of the three keeps the seed wire format byte for byte.
inline void write_call_head(DataOutput& out, std::uint64_t id, const trace::TraceContext& ctx,
                            sim::Time deadline, bool retried, const MethodKey& key) {
  std::uint64_t wire_id = id;
  if (ctx.valid()) wire_id |= trace::kWireTraceFlag;
  if (deadline != 0) wire_id |= trace::kWireDeadlineFlag;
  if (retried) wire_id |= trace::kWireRetryFlag;
  out.write_u64(wire_id);
  if (ctx.valid()) {
    out.write_u64(ctx.trace_id);
    out.write_u64(ctx.span_id);
  }
  if (deadline != 0) out.write_u64(deadline);
  out.write_text(key.protocol);
  out.write_text(key.method);
}

/// One shard's call queue with its admission gate, retry cache and stats
/// block.
template <typename Call>
class CallPipeline {
 public:
  CallPipeline(sim::Scheduler& sched, const OverloadConfig& cfg)
      : sched_(sched), queue_(std::make_unique<sim::Channel<Call>>(sched)) {
    if (cfg.admission_enabled()) admission_ = std::make_unique<AdmissionController>(cfg);
    if (cfg.cache_enabled()) {
      retry_cache_ = std::make_unique<RetryCache>(cfg.retry_cache_entries);
    }
  }

  /// True when the OverloadConfig turned the admission gate on (transports
  /// skip admission-only work like header pre-parsing otherwise).
  bool admission_enabled() const { return admission_ != nullptr; }

  /// The shard's call queue. Handlers block on queue().recv() directly
  /// (no extra coroutine layer) and pair it with note_dequeued().
  sim::Channel<Call>& queue() { return *queue_; }

  /// The admission gate: shed beyond the configured bound while the call
  /// is still cheap — before it costs a handler. Admits `call` into the
  /// queue, or answers a call busy through `shed(Call) -> sim::Co<void>`:
  /// the arrival itself, or (kShedOldest) the evicted queue head before
  /// the arrival is admitted, so the bound holds at every instant.
  template <typename Shed>
  sim::Co<void> admit(Call call, Shed shed) {
    if (admission_) {
      switch (admission_->decide(queue_->size(), call.admission_protocol())) {
        case AdmissionController::Decision::kShedNewest: {
          sim::Co<void> busy = shed(std::move(call));
          co_await busy;
          co_return;
        }
        case AdmissionController::Decision::kShedOldest: {
          Call victim;
          if (!queue_->try_recv(victim)) {
            // Every queued call is already claimed by a waking handler;
            // shed the arrival instead.
            sim::Co<void> busy = shed(std::move(call));
            co_await busy;
            co_return;
          }
          admission_->on_dequeue(victim.admission_protocol());
          sim::Co<void> busy = shed(std::move(victim));
          co_await busy;
          break;
        }
        case AdmissionController::Decision::kAdmit:
          break;
      }
    }
    call.enqueued = sched_.now();
    if (admission_) admission_->on_enqueue(call.admission_protocol());
    queue_->push(std::move(call));
    ++counters_.dispatched;
    if (queue_->size() > stats_.queue_depth_peak) {
      stats_.queue_depth_peak = queue_->size();
    }
    if (stats_.queue_depth_peak > counters_.queued_peak) {
      counters_.queued_peak = stats_.queue_depth_peak;
    }
  }

  /// Pair a blocking queue().recv() with the admission accounting.
  void note_dequeued(const Call& call) {
    if (admission_) admission_->on_dequeue(call.admission_protocol());
  }

  /// One call answered busy (admission shed or a capped-out pool).
  void note_shed() {
    ++stats_.calls_shed;
    ++counters_.dropped;
  }

  /// Drain every queued-but-unexecuted call at stop() with admission
  /// pairing and drop accounting; returned so the transport can release
  /// owned resources (pooled buffers) before closing the queue.
  std::vector<Call> drain() {
    std::vector<Call> out;
    Call call;
    while (queue_->try_recv(call)) {
      note_dequeued(call);
      out.push_back(std::move(call));
    }
    stats_.dropped_on_stop += out.size();
    counters_.dropped += out.size();
    return out;
  }

  void close() { queue_->close(); }

  /// Per-<owner, call> dedup cache; null when the config disables it.
  RetryCache* retry_cache() { return retry_cache_.get(); }

  /// This shard's stats block. Only this shard's loops write here; the
  /// server's stats() override folds the blocks into one view.
  RpcStats& stats() { return stats_; }
  ShardCounters& counters() { return counters_; }
  const ShardCounters& counters() const { return counters_; }

 private:
  sim::Scheduler& sched_;
  std::unique_ptr<sim::Channel<Call>> queue_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<RetryCache> retry_cache_;
  RpcStats stats_;
  ShardCounters counters_;
};

/// Where a transport renews a call's session lease: the socket server at
/// arrival (the header is parsed there), the RDMA server at dequeue (its
/// handler parses the header in place).
enum class SessionTouch { kAtArrival, kAtDequeue };

/// The dequeue screen's verdict on one call.
enum class Verdict {
  kExpired,          // deadline passed in the queue: drop, nobody is waiting
  kSessionRejected,  // undedupable retry: answer kSessionExpired
  kReplay,           // already executed: re-send Screen::replay verbatim
  kInFlight,         // first attempt still executing: drop the duplicate
  kExecute,          // run the handler, then record()
};

struct Screen {
  Verdict verdict = Verdict::kExecute;
  /// kReplay only: the cached response frame; valid until the next
  /// retry-cache mutation.
  const net::Bytes* replay = nullptr;
};

/// What became of an executed call.
enum class Outcome {
  kAnswered,  // the handler produced a response (value or error)
  kPoolBusy,  // shed with a retryable busy status (capped-out pool)
};

/// One reader shard's transport-independent state: its index, pipeline and
/// session leases. Both servers' Shard types build on it.
template <typename Call>
struct ServerShard {
  ServerShard(sim::Scheduler& sched, std::uint32_t index, int host,
              const OverloadConfig& overload, const SessionConfig& session,
              SessionTouch touch)
      : index(index),
        pipeline(sched, overload),
        sessions(session),
        host_(host),
        sessions_enabled_(session.enabled),
        touch_(touch) {}

  std::uint32_t index;
  CallPipeline<Call> pipeline;
  SessionTable sessions;  // durable-session leases (home shard only)

  /// Lease bookkeeping for one call: renew (or open, unless the call is a
  /// retry) its session and drop retry-cache state for every session the
  /// sweep expired or evicted. `call_id` fences the session's incarnation
  /// when the call opens it.
  void touch_session(std::uint64_t session_id, bool retried, std::uint64_t call_id,
                     sim::Time now) {
    if (!sessions_enabled_ || session_id == 0) return;
    const SessionTable::TouchResult r =
        sessions.touch(session_id, now, /*open_if_missing=*/!retried, call_id);
    RpcStats& st = pipeline.stats();
    if (r.opened) ++st.sessions_opened;
    st.sessions_expired += r.expired.size();
    st.sessions_evicted += r.evicted.size();
    if (sessions.peak() > st.session_table_peak) st.session_table_peak = sessions.peak();
    // A dead session's retry-cache entries go with it — the dedup promise
    // is scoped to the lease, and the space bound depends on the purge.
    if (RetryCache* cache = pipeline.retry_cache()) {
      for (const std::uint64_t sid : r.expired) cache->forget_owner(sid);
      for (const std::uint64_t sid : r.evicted) cache->forget_owner(sid);
    }
  }

  /// The dequeue screen: decide a dequeued call's fate before it costs a
  /// handler. `t_dequeue` is when a handler took the call; `now` is when
  /// the transport knows its header (the same instant on the socket path).
  /// `tr` is the active collector for a traced call, else null.
  Screen screen(const CallHead& call, sim::Time enqueued, sim::Time t_dequeue,
                sim::Time now, trace::TraceCollector* tr) {
    RpcStats& st = pipeline.stats();
    // The caller already gave up, so don't burn a handler on it (and
    // nobody is waiting for a response).
    if (call.deadline != 0 && now >= call.deadline) {
      ++st.calls_expired;
      ++pipeline.counters().dropped;
      if (tr != nullptr) {
        tr->add_complete("deadline.expired:" + call.key.method, trace::Kind::kServer,
                         trace::Category::kOverload, call.ctx, host_, enqueued, now);
      }
      return {Verdict::kExpired};
    }
    if (tr != nullptr) {
      tr->add_complete("queue", trace::Kind::kInternal, trace::Category::kQueue, call.ctx,
                       host_, enqueued, t_dequeue);
    }
    if (touch_ == SessionTouch::kAtDequeue) {
      touch_session(call.session_id, call.retried, call.id, now);
    }
    RetryCache* rc = pipeline.retry_cache();

    // Session checks for retried attempts. The server cannot prove the
    // first attempt never executed when (a) the session that would hold
    // the dedup state is gone (expired or evicted), or (b) the session was
    // re-opened by a later fresh call (the fence) and this retried id
    // misses the cache — its state, if any, died with the previous
    // incarnation. Either way the retry is refused with a *terminal*
    // session-expired status: retrying again could duplicate a completed
    // call, and a retryable bounce would merely defer that outcome until a
    // fresh call revives the session. A fresh call simply (re-)opened the
    // session in touch_session.
    if (call.retried && call.session_id != 0) {
      bool undedupable = !sessions.alive(call.session_id, t_dequeue);
      if (!undedupable) {
        undedupable = rc != nullptr &&
                      rc->peek(call.owner, call.id) == RetryCache::State::kFresh &&
                      call.id < sessions.fence(call.session_id);
      }
      if (undedupable) {
        ++st.sessions_rejected;
        if (tr != nullptr) {
          tr->add_complete("session.rejected:" + call.key.method, trace::Kind::kServer,
                           trace::Category::kSession, call.ctx, host_, t_dequeue, now);
        }
        return {Verdict::kSessionRejected};
      }
    }

    // Retry cache: a repeated <owner, call id> is a client retry. Re-send
    // the stored response rather than re-executing the handler (the
    // non-idempotent-safety contract of RpcRetryPolicy).
    if (rc != nullptr) {
      const RetryCache::State seen = rc->begin(call.owner, call.id);
      if (seen == RetryCache::State::kCompleted) {
        ++st.dedup_hits;
        if (tr != nullptr) {
          tr->add_complete("overload.dedup:" + call.key.method, trace::Kind::kServer,
                           trace::Category::kOverload, call.ctx, host_, t_dequeue, now);
        }
        return {Verdict::kReplay, rc->completed_frame(call.owner, call.id)};
      }
      if (seen == RetryCache::State::kInProgress) {
        // Running twice is the one forbidden outcome; the first attempt
        // (or the cache, on the next retry) will answer.
        ++st.dedup_in_flight;
        return {Verdict::kInFlight};
      }
    }
    return {Verdict::kExecute};
  }

  /// Record an executed call's outcome. kAnswered stores `frame` (the full
  /// response) for later retries — also when the response is dropped for
  /// a passed deadline, since the retry is already on its way. kPoolBusy
  /// is a retryable shed: the in-progress entry is forgotten so the retry
  /// executes fresh. Returns false when the caller's deadline passed during
  /// execution: the response would be ignored, so don't send it.
  bool record(const CallHead& call, Outcome outcome, net::ByteSpan frame, sim::Time now,
              trace::TraceCollector* tr) {
    if (RetryCache* rc = pipeline.retry_cache()) {
      if (outcome == Outcome::kPoolBusy) {
        rc->forget(call.owner, call.id);
      } else {
        rc->complete(call.owner, call.id, net::Bytes(frame.begin(), frame.end()));
      }
    }
    if (outcome == Outcome::kPoolBusy) pipeline.note_shed();
    if (call.deadline == 0 || now < call.deadline) return true;
    // The call still executed, so this is not a drop.
    ++pipeline.stats().responses_expired;
    if (tr != nullptr) {
      tr->add_complete("deadline.response:" + call.key.method, trace::Kind::kServer,
                       trace::Category::kOverload, call.ctx, host_, now, now);
    }
    return false;
  }

 private:
  int host_;  // trace host id
  bool sessions_enabled_;
  SessionTouch touch_;
};

/// Start a new run: move the previous run's shards to `retired` instead of
/// destroying them. Their reader and handler loops are still suspended on
/// the closed channels and exit only when the scheduler runs the wakes
/// stop() posted, dereferencing the channels once more. Retired shards live
/// until the server is destroyed.
template <typename Shard>
void retire_shards(std::vector<std::unique_ptr<Shard>>& shards,
                   std::vector<std::unique_ptr<Shard>>& retired) {
  for (auto& shard : shards) retired.push_back(std::move(shard));
  shards.clear();
}

/// Fold the per-shard stat blocks into `out`, overwriting only the
/// shard-sourced fields (anything written directly to `out` by non-shard
/// code stays untouched), so repeated calls are idempotent.
template <typename Shard>
void fold_shard_stats(const std::vector<std::unique_ptr<Shard>>& shards, RpcStats& out) {
  RpcStats agg;
  for (const auto& shard : shards) {
    const RpcStats& st = shard->pipeline.stats();
    agg.merge_resilience(st);
    agg.calls_handled += st.calls_handled;
    agg.recv_alloc_us.merge(st.recv_alloc_us);
    agg.recv_total_us.merge(st.recv_total_us);
    agg.shards.push_back(shard->pipeline.counters());
  }
  out.calls_handled = agg.calls_handled;
  out.calls_shed = agg.calls_shed;
  out.calls_expired = agg.calls_expired;
  out.responses_expired = agg.responses_expired;
  out.dedup_hits = agg.dedup_hits;
  out.dedup_in_flight = agg.dedup_in_flight;
  out.dropped_on_stop = agg.dropped_on_stop;
  out.responses_dropped_on_stop = agg.responses_dropped_on_stop;
  out.pool_nacks = agg.pool_nacks;
  out.queue_depth_peak = agg.queue_depth_peak;
  out.sessions_opened = agg.sessions_opened;
  out.sessions_expired = agg.sessions_expired;
  out.sessions_evicted = agg.sessions_evicted;
  out.sessions_rejected = agg.sessions_rejected;
  out.session_table_peak = agg.session_table_peak;
  out.batches_received = agg.batches_received;
  out.batched_calls_received = agg.batched_calls_received;
  out.response_batches = agg.response_batches;
  out.batched_responses = agg.batched_responses;
  out.srq_posted = agg.srq_posted;
  out.srq_refills = agg.srq_refills;
  out.srq_rnr_stalls = agg.srq_rnr_stalls;
  out.srq_evictions = agg.srq_evictions;
  out.ud_calls_received = agg.ud_calls_received;
  out.ud_responses_sent = agg.ud_responses_sent;
  out.ud_resp_oversize = agg.ud_resp_oversize;
  out.recv_alloc_us = agg.recv_alloc_us;
  out.recv_total_us = agg.recv_total_us;
  out.shards = std::move(agg.shards);
}

}  // namespace rpcoib::rpc
