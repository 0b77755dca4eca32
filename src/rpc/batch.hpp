// Adaptive small-message coalescing (client call batching, server
// response batching).
//
// At high call rates the per-message framework cost — framing, syscall or
// doorbell, receive wakeup — dominates small RPCs, exactly the regime the
// paper's Reader-thread analysis (Section III-D) identifies as the socket
// path's throughput cap. The standard InfiniBand cure is coalescing:
// MPICH2-over-IB aggregates small eager messages, and Ibdxnet's send
// thread batches queued small messages into one work request. Both
// transports here do the same: sub-threshold calls accumulate per
// connection and flush as one multi-call frame when a size/count limit is
// reached or a short linger expires.
//
// The linger is adaptive: each connection tracks an EWMA of the
// inter-append gap, and when arrivals are sparse (gap >= linger) the flush
// happens on the next scheduler tick instead of waiting the full linger —
// a lone caller keeps fig5-latency behavior, while concurrent callers pay
// the linger once and amortize the per-message cost across the batch.
//
// Batching is OFF by default; with it disabled every wire byte is
// identical to the unbatched build.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "net/bytes.hpp"
#include "sim/scheduler.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "trace/context.hpp"

namespace rpcoib::rpc {

/// Knobs for small-message coalescing. Applied per client (requests) and
/// per server (responses); the engine sets both from one config.
struct BatchConfig {
  /// Master switch. Off keeps the seed's one-frame-per-call wire format
  /// byte for byte.
  bool enabled = false;
  /// Flush once the buffered payload reaches this many bytes. The RDMA
  /// path additionally clamps to the connection's eager threshold so a
  /// batch frame always fits a pre-posted receive buffer.
  std::size_t max_bytes = 8 * 1024;
  /// Flush once this many calls are buffered.
  std::size_t max_calls = 16;
  /// Longest a buffered call waits for company before the batch flushes.
  /// Sized to cover the phase spread of callers pipelined around a shared
  /// connection (a fraction of the small-call RTT); the adaptive estimator
  /// collapses it to zero when arrivals are sparse. Servers cap their
  /// response-side linger at a quarter of this: responses only need to
  /// cover handler-completion stagger, not caller phase alignment.
  sim::Dur linger = sim::micros(30);
  /// Only messages at or below this size are coalesced; larger ones keep
  /// their own frame (they amortize their framework cost already).
  std::size_t small_threshold = 1024;

  bool batchable(std::size_t msg_bytes) const {
    return enabled && msg_bytes <= small_threshold;
  }
};

/// EWMA estimator of inter-arrival gaps, deciding whether a linger is
/// worth paying: under sparse arrivals (gap >= linger) no company is
/// coming and the answer is zero; under dense arrivals the configured
/// linger buys a multi-message frame. Shared by the client call batcher
/// and the servers' response coalescing.
class LingerEstimator {
 public:
  /// Record one arrival at `now`.
  void note(sim::Time now) {
    if (last_ != 0 && now >= last_) {
      const double gap = static_cast<double>(now - last_);
      // EWMA with alpha 1/4: a few back-to-back arrivals are enough to
      // re-enter lingering mode after an idle spell.
      ewma_gap_ns_ = ewma_gap_ns_ == 0 ? gap : ewma_gap_ns_ * 0.75 + gap * 0.25;
    }
    last_ = now;
  }

  /// The linger the arrival pattern justifies: zero when sparse, the
  /// configured linger when arrivals have been landing closer than it.
  sim::Dur linger(sim::Dur cfg_linger) const {
    if (ewma_gap_ns_ == 0 || ewma_gap_ns_ >= static_cast<double>(cfg_linger)) return 0;
    return cfg_linger;
  }

 private:
  sim::Time last_ = 0;
  double ewma_gap_ns_ = 0;  // EWMA of inter-arrival gaps, nanoseconds
};

/// Why the coalescer flushed a batch; the client sinks count each reason
/// in RpcStats.
enum class FlushReason : std::uint8_t {
  kFull,       // a size/count limit filled, or the next message would overflow it
  kLinger,     // the armed linger expired
  kImmediate,  // sparse arrivals: the zero linger flushed on the next tick
};

/// Per-site limits of the coalescing policy, passed in by each caller
/// (DESIGN.md §9 lists which site passes what).
struct CoalesceLimits {
  /// Byte clamp on one frame: a message that would cross it flushes the
  /// open batch first, and a batch that reaches it flushes at once. The
  /// RDMA sites clamp to a receive buffer or datagram; the socket has none.
  std::size_t frame_bytes = std::numeric_limits<std::size_t>::max();
  /// Cap on the adaptive linger (the RDMA server's responses: linger / 4).
  sim::Dur linger_cap = std::numeric_limits<sim::Dur>::max();
};

/// The buffered messages of one flush.
struct Batch {
  std::vector<net::Bytes> items;
  std::size_t bytes = 0;    // sum of the items' sizes
  trace::TraceContext ctx;  // first traced message's context (parents batch.flush)
};

/// Per-connection coalescer for sub-threshold messages, shared by every
/// batching site (socket, RC and UD clients, RDMA server responses). It
/// owns the whole policy — when to pre-flush on overflow, when a full
/// batch flushes, when to arm the adaptive-linger timer and when that
/// timer stands down — and leaves the site a small sink: a copyable value
/// that owns what a deferred flush touches (a shared connection, a UD
/// state, a liveness token) and provides
///
///   CallBatcher* batcher();
///       the batch if the site is still open, nullptr once it is gone
///       (checked by the linger timer after its wait);
///   void appended();
///       one message joined the batch;
///   sim::Co<bool> flush(CallBatcher& b, FlushReason why);
///       take() the batch from `b`, encode it and put it on the wire;
///       returns false once the site takes no more messages.
///
/// `epoch` invalidates timers armed for batches that already flushed.
class CallBatcher {
 public:
  CallBatcher(sim::Scheduler& sched, const BatchConfig& cfg) : sched_(sched), cfg_(cfg) {}

  /// Coalesce one serialized message (`ctx`: its trace context) through
  /// `sink`. A message that would overflow `limits.frame_bytes` flushes
  /// the open batch first; a batch that reaches a limit flushes at once;
  /// the message that opens a batch arms its linger timer.
  template <typename Sink>
  sim::Co<void> add(Sink sink, net::Bytes msg, trace::TraceContext ctx,
                    CoalesceLimits limits) {
    if (!items_.empty() && bytes_ + msg.size() > limits.frame_bytes) {
      const bool open = co_await sink.flush(*this, FlushReason::kFull);
      if (!open) co_return;  // the site closed (and may have freed *this)
    }
    const bool opened = items_.empty();
    if (opened && ctx.valid()) ctx_ = ctx;
    gaps_.note(sched_.now());
    bytes_ += msg.size();
    items_.push_back(std::move(msg));
    sink.appended();
    if (items_.size() >= cfg_.max_calls || bytes_ >= cfg_.max_bytes ||
        bytes_ >= limits.frame_bytes) {
      co_await sink.flush(*this, FlushReason::kFull);
    } else if (opened) {
      const sim::Dur linger = std::min(gaps_.linger(cfg_.linger), limits.linger_cap);
      sched_.spawn(linger_timer(sched_, std::move(sink), epoch_, linger));
    }
  }

  /// Take the buffered messages for flushing and open a new epoch (stale
  /// linger timers compare their saved epoch and stand down).
  Batch take() {
    ++epoch_;
    return Batch{std::exchange(items_, {}), std::exchange(bytes_, 0),
                 std::exchange(ctx_, {})};
  }

  bool empty() const { return items_.empty(); }
  std::uint64_t epoch() const { return epoch_; }

 private:
  /// Delayed flush armed per batch. A zero linger still suspends one
  /// scheduler tick, so same-timestamp arrivals share the flush while a
  /// lone message goes out "now". Static: the batcher may be gone by the
  /// time the linger expires; only the sink knows.
  template <typename Sink>
  static sim::Task linger_timer(sim::Scheduler& sched, Sink sink, std::uint64_t epoch,
                                sim::Dur linger) {
    co_await sim::delay(sched, linger);
    CallBatcher* b = sink.batcher();
    if (b == nullptr || b->empty() || b->epoch() != epoch) co_return;  // gone, or flushed
    co_await sink.flush(*b, linger > 0 ? FlushReason::kLinger : FlushReason::kImmediate);
  }

  sim::Scheduler& sched_;
  BatchConfig cfg_;
  std::vector<net::Bytes> items_;
  std::size_t bytes_ = 0;
  trace::TraceContext ctx_;
  std::uint64_t epoch_ = 0;
  LingerEstimator gaps_;
};

}  // namespace rpcoib::rpc
