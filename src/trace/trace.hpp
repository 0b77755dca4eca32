// Deterministic distributed tracing over the DES virtual clock.
//
// Because every simulated node shares one discrete-event scheduler, the
// collector is an *exact* tracer: span timestamps are virtual nanoseconds,
// ids are dense counters, and the same seed yields a byte-identical trace.
// Spans parent across simulated hosts through TraceContext, which the RPC
// layer carries in-band in the call wire header (see context.hpp), so a
// client call, its server-side handler, and any downstream RPCs the
// handler issues assemble into one tree.
//
// Propagation discipline: the collector keeps a single-shot "ambient"
// parent slot. A caller arms it (`SpanScope::activate()` or
// `trace::activate`) and *immediately* co_awaits the RPC — the client
// consumes the slot synchronously before its first suspension, so no other
// coroutine can interleave. Server handlers receive the inbound context
// explicitly on DataInput::trace_context instead (no ambient races).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "trace/context.hpp"

namespace rpcoib::trace {

/// Where in the RPC topology the span sits (OpenTelemetry-flavored).
enum class Kind : std::uint8_t { kInternal = 0, kClient, kServer };

/// Critical-path category: where a span's *self time* (the part not
/// covered by child spans) is attributed.
enum class Category : std::uint8_t {
  kOther = 0,      // uninstrumented / scheduler gaps
  kSerialization,  // request/response (de)serialization
  kSend,           // send-side stream copies + syscall / verbs post
  kRecv,           // receive-side alloc + native->heap copy / RDMA read
  kQueue,          // server call-queue wait
  kHandler,        // server handler execution
  kWire,           // network wire + transport wait
  kBuffer,         // RPCoIB pool acquire / memory registration
  kCompute,        // application compute
  kDisk,           // modeled disk I/O
  kFault,          // attempts lost to injected faults (timeout/transport)
  kRetry,          // backoff waits between retry attempts
  kOverload,       // admission shedding, deadline drops, retry-cache dedup
  kStream,         // pipelined bulk streaming (chunk writes, credit waits)
  kSession,        // session lifecycle + reconnect recovery state machine
  kOneSided,       // one-sided READ fast path (issue, seqlock retry, fallback)
};
inline constexpr int kCategoryCount = 16;

const char* category_name(Category c);

using SpanId = std::uint64_t;  // 1-based index into the collector's store

struct Span {
  std::uint64_t trace_id = 0;
  SpanId id = 0;
  SpanId parent_id = 0;  // 0 = trace root
  std::string name;
  Kind kind = Kind::kInternal;
  Category category = Category::kOther;
  sim::Time start = 0;
  sim::Time end = 0;
  int host = -1;  // HostId; -1 = unknown
  bool open = true;
  std::vector<std::pair<std::string, std::string>> attrs;

  sim::Dur duration() const { return end >= start ? end - start : 0; }
};

/// Per-scheduler span store. Bind it to a Testbed (Testbed::set_tracer)
/// before the run; export or analyze after.
class TraceCollector {
 public:
  TraceCollector() = default;
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Point at the scheduler whose clock stamps spans. Re-bind per run.
  void bind(sim::Scheduler* sched) { sched_ = sched; }

  /// Master switch. With `enabled() == false` every instrumentation site
  /// is a pointer test and the wire format is untouched.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Drop all spans and reset id counters (start of a fresh run).
  void clear();

  /// Open a span at the current virtual time. An invalid `parent` starts
  /// a new trace with this span as its root.
  SpanId begin_span(std::string name, Kind kind, Category cat, TraceContext parent,
                    int host);

  /// Record a span retroactively over [start, end] (queue waits and other
  /// intervals whose endpoints were observed before the span was known).
  SpanId add_complete(std::string name, Kind kind, Category cat, TraceContext parent,
                      int host, sim::Time start, sim::Time end);

  /// Close an open span at the current virtual time.
  void end_span(SpanId id);

  void annotate(SpanId id, std::string key, std::string value);

  /// Propagation token for `id` (what goes on the wire / into payloads).
  TraceContext context_of(SpanId id) const;

  // Single-shot ambient parent slot (see file comment for the discipline).
  TraceContext take_ambient() {
    TraceContext c = ambient_;
    ambient_ = TraceContext{};
    return c;
  }
  void set_ambient(TraceContext ctx) { ambient_ = ctx; }

  void set_host_name(int id, std::string name) { host_names_[id] = std::move(name); }
  const std::map<int, std::string>& host_names() const { return host_names_; }

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t open_count() const { return open_; }

  /// The root span (parent_id == 0) with the longest duration — the
  /// natural target for critical-path analysis of a job run.
  const Span* longest_root() const;

 private:
  sim::Scheduler* sched_ = nullptr;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::uint64_t next_trace_id_ = 1;
  std::size_t open_ = 0;
  TraceContext ambient_;
  std::map<int, std::string> host_names_;
};

/// Null-safe "is tracing live" filter for instrumentation sites:
/// `trace::TraceCollector* tr = trace::active(host.tracer());`
inline TraceCollector* active(TraceCollector* t) {
  return t != nullptr && t->enabled() ? t : nullptr;
}

/// Null-safe ambient arm; pair with an immediately following RPC call.
inline void activate(TraceCollector* t, TraceContext ctx) {
  if (t != nullptr && ctx.valid()) t->set_ambient(ctx);
}

/// RAII span. Inert when constructed with a null collector, so call sites
/// stay branch-free. Ends the span at destruction (which, for a coroutine
/// frame torn down by Scheduler::drain_tasks, is the final virtual time).
class SpanScope {
 public:
  SpanScope() = default;
  SpanScope(TraceCollector* tr, std::string name, Kind kind, Category cat,
            TraceContext parent, int host) {
    if (tr != nullptr && tr->enabled()) {
      tr_ = tr;
      id_ = tr->begin_span(std::move(name), kind, cat, parent, host);
    }
  }
  /// Span named `prefix + name`; the name is only built when tracing is
  /// on, so an untraced call site allocates nothing.
  SpanScope(TraceCollector* tr, std::string_view prefix, std::string_view name, Kind kind,
            Category cat, TraceContext parent, int host) {
    if (tr != nullptr && tr->enabled()) {
      std::string full;
      full.reserve(prefix.size() + name.size());
      full.append(prefix).append(name);
      tr_ = tr;
      id_ = tr->begin_span(std::move(full), kind, cat, parent, host);
    }
  }
  SpanScope(SpanScope&& o) noexcept : tr_(o.tr_), id_(o.id_) { o.tr_ = nullptr; }
  SpanScope& operator=(SpanScope&& o) noexcept {
    if (this != &o) {
      end();
      tr_ = o.tr_;
      id_ = o.id_;
      o.tr_ = nullptr;
    }
    return *this;
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() { end(); }

  explicit operator bool() const { return tr_ != nullptr; }

  void end() {
    if (tr_ != nullptr) {
      tr_->end_span(id_);
      tr_ = nullptr;
    }
  }

  TraceContext context() const { return tr_ != nullptr ? tr_->context_of(id_) : TraceContext{}; }

  /// Arm the ambient slot with this span as parent; the next RPC call
  /// (co_awaited immediately, with no suspension in between) adopts it.
  void activate() {
    if (tr_ != nullptr) tr_->set_ambient(context());
  }

  void annotate(std::string key, std::string value) {
    if (tr_ != nullptr) tr_->annotate(id_, std::move(key), std::move(value));
  }

 private:
  TraceCollector* tr_ = nullptr;
  SpanId id_ = 0;
};

}  // namespace rpcoib::trace
