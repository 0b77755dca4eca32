// perfbench: the repository benchmark harness.
//
// Runs one named workload against the default RPCoIB configuration and
// prints every end-to-end metric (untraced run) or every per-layer metric
// (traced run) as the last line of stdout, one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
//
// Two clocks. Virtual time is what the modelled RPC stack takes and, for a
// fixed seed, repeats exactly. Host time is what the simulator costs to run:
// process CPU seconds, noisy on a shared box. Every metric names its clock in
// perfbench/README.md.
//
// The harness drives each layer through its public API only: RpcEngine,
// RpcClient::call, RpcServer::dispatcher, HTable::get/put, Scheduler,
// PoolStats, RpcStats, TraceCollector and attribute_time. All inputs
// (arrival times, methods, sizes, keys) are generated here from --seed; the
// simulated system keeps its own fixed configuration seed.
//
// Usage:
//   perfbench --workload rpc_eager_open|rpc_rendezvous|hbase_ycsb_mix
//             --seed N --seconds S --trace 0|1 [--slo-us W=US ...]
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <bitset>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "hbase/hbase.hpp"
#include "hdfs/hdfs_cluster.hpp"
#include "hdfs/types.hpp"
#include "mapred/types.hpp"
#include "net/testbed.hpp"
#include "rpc/buffers.hpp"
#include "rpcoib/buffer_pool.hpp"
#include "rpcoib/engine.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/task.hpp"
#include "trace/critical_path.hpp"
#include "trace/trace.hpp"
#include "ycsb/ycsb.hpp"

namespace {

using namespace rpcoib;
using sim::Co;
using sim::Scheduler;
using sim::Task;

// ---------------------------------------------------------------------------
// Host clock and small numeric helpers

double host_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Nearest-rank percentile over exact samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  return v[rank - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double mean(const std::vector<double>& v) {
  return v.empty() ? 0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

/// Independent RNG stream per purpose, all derived from the workload seed.
sim::Rng stream(std::uint64_t seed, std::uint64_t purpose) {
  sim::SplitMix64 sm(seed ^ (purpose * 0x9E3779B97F4A7C15ULL));
  return sim::Rng(sm.next());
}

// ---------------------------------------------------------------------------
// Generated inputs

/// One operation of a workload, fully determined by the seed.
struct Op {
  sim::Time due = 0;           // open loop: arrival time (latency is timed from it)
  std::uint64_t key = 0;       // RPC: request tag; YCSB: record index
  std::uint32_t req_bytes = 0;
  std::uint32_t reply_bytes = 0;
  std::uint16_t method = 0;
  std::uint16_t caller = 0;
  bool write = false;          // upload-like call / YCSB Put
  sim::Dur think = 0;          // closed loop: caller pause before issuing
  std::uint8_t running = 0;    // TaskTracker heartbeat: running task reports
  std::uint8_t completed = 0;  // TaskTracker heartbeat: completed tasks
  std::uint64_t expect = 0;    // daemon call: fingerprint of the expected reply
};

std::uint64_t digest_ops(const std::vector<Op>& ops) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
  for (const Op& op : ops) {
    mix(op.due);
    mix(op.key);
    mix(op.req_bytes);
    mix(op.reply_bytes);
    mix(op.method);
    mix(op.caller);
    mix(op.write ? 1 : 0);
    mix(op.think);
    mix(op.running);
    mix(op.completed);
  }
  return h;
}

// ---------------------------------------------------------------------------
// Per-layer counters, cumulative; the harness reports deltas over a phase.

struct Counters {
  double serialize_us = 0;
  double send_us = 0;
  double mem_adjustments = 0;
  std::uint64_t calls = 0;
  double recv_alloc_us = 0;
  double recv_total_us = 0;
  std::uint64_t queue_depth_peak = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t transport_errors = 0;
  oib::PoolStats pool;
  std::uint64_t srq_rnr_stalls = 0;
  std::uint64_t srq_refills = 0;
  std::uint64_t flushes = 0;
  std::uint64_t nn_calls = 0;
};

void add_profiles(const std::map<rpc::MethodKey, rpc::MethodProfile>& profiles,
                  Counters& c) {
  for (const auto& [key, p] : profiles) {
    c.serialize_us += p.serialize_us.sum();
    c.send_us += p.send_us.sum();
    c.mem_adjustments += p.mem_adjustments.sum();
    c.calls += p.total_us.count();
  }
}

void add_client(const rpc::RpcStats& st, Counters& c) {
  c.retries += st.retries;
  c.timeouts += st.timeouts;
  c.transport_errors += st.transport_errors;
}

void add_server(const rpc::RpcStats& st, Counters& c) {
  c.recv_alloc_us += st.recv_alloc_us.sum();
  c.recv_total_us += st.recv_total_us.sum();
  c.queue_depth_peak = std::max(c.queue_depth_peak, st.queue_depth_peak);
  c.srq_rnr_stalls += st.srq_rnr_stalls;
  c.srq_refills += st.srq_refills;
}

void add_pool(const oib::PoolStats& p, Counters& c) {
  c.pool.acquires += p.acquires;
  c.pool.freelist_hits += p.freelist_hits;
  c.pool.demand_allocations += p.demand_allocations;
  c.pool.history_hits += p.history_hits;
  c.pool.history_misses += p.history_misses;
  c.pool.history_shrinks += p.history_shrinks;
  c.pool.registered_bytes += p.registered_bytes;
}

/// Outcome of the teardown gates.
struct Gates {
  bool pools_balanced = true;
  bool no_live_tasks = true;
  /// Live tasks the first teardown, straight after set-up, left behind.
  std::optional<std::size_t> baseline_tasks;
  std::vector<std::string> notes;
};

// ---------------------------------------------------------------------------
// Workload interface

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the testbed, start servers, warm up (and load, for YCSB). This is
  /// what setup_s measures. A non-null tracer is attached but left disabled.
  virtual void setup(trace::TraceCollector* tracer) = 0;
  virtual Scheduler& sched() = 0;
  virtual bool open_loop() const = 0;
  virtual int callers() const = 0;
  virtual int caller_host(int caller) const = 0;
  /// `n` operations; open loop (`rate_per_s` > 0): Poisson arrivals from
  /// `start` over random callers; closed loop: op i belongs to caller i % callers.
  virtual std::vector<Op> make_ops(sim::Rng& rng, std::size_t n, double rate_per_s,
                                   sim::Time start) const = 0;
  /// Issue one operation. Returns the useful payload bytes it moved (no
  /// headers), or nothing when the reply is wrong. Throws on failed /
  /// refused / timed-out operations.
  virtual Co<std::optional<std::uint64_t>> run_op(const Op& op) = 0;
  virtual Counters counters() = 0;
  /// Host probes on the workload's own inputs.
  virtual double probe_serialize_ns(const std::vector<Op>& ops) = 0;
  virtual double probe_pool_ns(const std::vector<Op>& ops) = 0;
  /// Stop servers, let the simulation settle, check the gates, drain.
  virtual void teardown(Gates& g) = 0;
};

// ---------------------------------------------------------------------------
// Phase runner: drives a batch of operations open- or closed-loop and
// records exact per-operation samples.

/// A fixed CPU- and memory-bound kernel in the harness's own code (binary
/// heap churn plus a 256 KB copy, about 1.5 ms): the yardstick for how fast
/// the host runs right now. It uses nothing from the simulator, so changes
/// to the simulator never move it.
volatile std::uint64_t kernel_sink = 0;  // keeps the kernel's work observable

double calibration_kernel_s() {
  static std::vector<std::uint64_t> src(1 << 15, 1), dst(1 << 15);
  const double t0 = host_s();
  std::uint64_t x = 1;
  for (int r = 0; r < 8; ++r) {
    std::priority_queue<std::uint64_t> heap;
    for (int i = 0; i < 2048; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      heap.push(x >> 20);
    }
    while (!heap.empty()) {
      x ^= heap.top();
      heap.pop();
    }
    std::memcpy(dst.data(), src.data(), src.size() * sizeof(std::uint64_t));
    src[x % src.size()] = x;
  }
  kernel_sink = x + dst[7];
  return host_s() - t0;
}

/// The kernel's time on an idle 4-vCPU Intel Xeon VM, the host the
/// benchmark was defined on; host rates are scaled to that host's speed.
constexpr double kReferenceKernelS = 1.38e-3;

struct Phase {
  Workload& w;
  std::vector<Op> ops;
  bool open = false;
  trace::TraceCollector* tracer = nullptr;  // non-null: open a root span per op
  bool calibrate = false;  // time the calibration kernel (phases host_rate() reads)

  std::vector<double> lat_us;
  sim::Dur lat_total = 0;  // exact sum of the operations' latencies
  std::uint64_t settled = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::uint64_t payload = 0;
  std::vector<trace::SpanId> roots;

  sim::Time v_start = 0;
  sim::Time v_end = 0;
  std::uint64_t events = 0;
  std::size_t live_tasks_peak = 0;
  double host_spent = 0;         // host CPU seconds, calibration runs excluded
  std::vector<double> kernel_s;  // calibration kernel times during the phase
  double kernel_spent = 0;
  std::string error;

  Phase(Workload& wl, std::vector<Op> o, bool open_loop)
      : w(wl), ops(std::move(o)), open(open_loop), lat_us(ops.size(), 0) {}

  bool finished() const { return settled == ops.size(); }
  double virtual_s() const { return sim::to_sec(v_end - v_start); }
};

Co<void> run_one(Phase& ph, std::size_t i) {
  const Op& op = ph.ops[i];
  Scheduler& s = ph.w.sched();
  const sim::Time t0 = ph.open ? op.due : s.now();
  trace::SpanScope root(ph.tracer, "perfbench.op", trace::Kind::kClient,
                        trace::Category::kOther, trace::TraceContext{},
                        ph.w.caller_host(op.caller));
  if (root) ph.roots.push_back(root.context().span_id);
  std::optional<std::uint64_t> moved;
  bool failed = false;
  root.activate();
  try {
    moved = co_await ph.w.run_op(op);
  } catch (const std::exception&) {
    failed = true;
  }
  root.end();
  ph.lat_us[i] = sim::to_us(s.now() - t0);
  ph.lat_total += s.now() - t0;
  if (failed) {
    ++ph.failed;
  } else if (!moved) {
    ++ph.wrong;
  } else {
    ph.payload += *moved;
  }
  ++ph.settled;
  if (ph.finished()) ph.v_end = s.now();
}

Task arrival_task(Phase& ph, std::size_t i) { co_await run_one(ph, i); }

Task generator_task(Phase& ph) {
  Scheduler& s = ph.w.sched();
  for (std::size_t i = 0; i < ph.ops.size(); ++i) {
    const sim::Time due = ph.ops[i].due;
    if (due > s.now()) co_await sim::delay(s, due - s.now());
    s.spawn(arrival_task(ph, i));
  }
}

Task caller_task(Phase& ph, int caller) {
  const std::size_t n = ph.ops.size();
  const std::size_t stride = static_cast<std::size_t>(ph.w.callers());
  for (std::size_t i = static_cast<std::size_t>(caller); i < n; i += stride) {
    if (ph.ops[i].think > 0) co_await sim::delay(ph.w.sched(), ph.ops[i].think);
    co_await run_one(ph, i);
  }
}

/// Bench probe coroutine: samples live tasks every virtual millisecond
/// while the phase runs, and times the calibration kernel every 16th sample.
Task sampler_task(Phase& ph) {
  Scheduler& s = ph.w.sched();
  for (std::uint64_t k = 1; !ph.finished(); ++k) {
    co_await sim::delay(s, sim::kMillisecond);
    ph.live_tasks_peak = std::max(ph.live_tasks_peak, s.live_task_count());
    if (ph.calibrate && k % 16 == 0) {
      ph.kernel_s.push_back(calibration_kernel_s());
      ph.kernel_spent += ph.kernel_s.back();
    }
  }
}

void drive(Phase& ph) {
  Scheduler& s = ph.w.sched();
  ph.v_start = ph.open && !ph.ops.empty() ? ph.ops.front().due : s.now();
  const std::uint64_t ev0 = s.events_processed();
  if (ph.calibrate) ph.kernel_s.push_back(calibration_kernel_s());
  const double h0 = host_s();
  s.spawn(sampler_task(ph));
  if (ph.open) {
    s.spawn(generator_task(ph));
  } else {
    for (int c = 0; c < ph.w.callers(); ++c) s.spawn(caller_task(ph, c));
  }
  while (!ph.finished() && s.step()) {
  }
  ph.events = s.events_processed() - ev0;
  ph.host_spent = host_s() - h0 - ph.kernel_spent;
  if (!ph.finished()) {
    ph.error = "simulation went idle with " + std::to_string(ph.ops.size() - ph.settled) +
               " operations unsettled";
    ph.failed += ph.ops.size() - ph.settled;
    ph.v_end = s.now();
  }
}

/// Simulated operations per host second, scaled to the reference host.
///
/// Co-tenants on a shared host slow the simulator down, in stretches from
/// milliseconds to longer than a run. The rate over the whole phase is
/// scaled by the median calibration kernel, timed all through the same
/// phase, which slows down with it.
double host_rate(const Phase& ph) {
  return ratio(static_cast<double>(ph.settled), ph.host_spent) * median(ph.kernel_s) / kReferenceKernelS;
}

struct LatencyStats {
  double p50 = 0, p99 = 0, p999 = 0, read_p99 = 0, write_p99 = 0;
  std::size_t n = 0, n_read = 0, n_write = 0;
};

LatencyStats latency_stats(const Phase& ph) {
  LatencyStats st;
  std::vector<double> reads;
  std::vector<double> writes;
  for (std::size_t i = 0; i < ph.ops.size(); ++i) {
    (ph.ops[i].write ? writes : reads).push_back(ph.lat_us[i]);
  }
  st.p50 = percentile(ph.lat_us, 0.5);
  st.p99 = percentile(ph.lat_us, 0.99);
  st.p999 = percentile(ph.lat_us, 0.999);
  st.read_p99 = percentile(reads, 0.99);
  st.write_p99 = percentile(writes, 0.99);
  st.n = ph.lat_us.size();
  st.n_read = reads.size();
  st.n_write = writes.size();
  return st;
}

// ---------------------------------------------------------------------------
// RPC workloads: one RPCoIB server and one RpcClient per simulated caller.
// Every reply is a deterministic function of its request, and the client
// checks it.

constexpr net::Address kServerAddr{0, 9090};

bool all_equal(const net::Bytes& b, net::Byte v) {
  return b.empty() || (b[0] == v && std::memcmp(b.data(), b.data() + 1, b.size() - 1) == 0);
}

/// ShadowPool acquire_for + release_for on a fresh pre-registered pool,
/// timed per pair.
double pool_probe(const std::vector<std::pair<const rpc::MethodKey*, std::size_t>>& uses) {
  Scheduler s;
  net::Testbed tb(s, net::Testbed::cluster_b());
  verbs::VerbsStack stack(tb.fabric());
  oib::NativeBufferPool native(tb.host(0), stack);
  s.spawn([](oib::NativeBufferPool& p) -> Task { co_await p.initialize(); }(native));
  s.run();
  oib::ShadowPool shadow(native);
  for (const auto& [key, used] : uses) {  // settle the history first
    shadow.release_for(*key, shadow.acquire_sized(used), used);
  }
  constexpr int kReps = 4;
  const double t0 = host_s();
  for (int r = 0; r < kReps; ++r) {
    for (const auto& [key, used] : uses) {
      oib::NativeBuffer* b = shadow.acquire_for(*key);
      shadow.release_for(*key, b, used);
    }
  }
  const double dt = host_s() - t0;
  s.drain_tasks();
  return dt * 1e9 / static_cast<double>(uses.size() * kReps);
}

/// Read after stop() and the settling time, before drain_tasks(): a task
/// live beyond the `allowed` ones was leaked.
void check_live_tasks(const Scheduler& s, std::size_t allowed, Gates& g) {
  if (s.live_task_count() > allowed) {
    g.no_live_tasks = false;
    g.notes.push_back(std::to_string(s.live_task_count()) + " live tasks after stop and settling, " +
                      std::to_string(allowed) + " allowed");
  }
}

class RpcWorkload : public Workload {
 public:
  ~RpcWorkload() override {
    clients_.clear();
    server_.reset();
    engine_.reset();
    tb_.reset();
  }

  void setup(trace::TraceCollector* tracer) override {
    tb_ = std::make_unique<net::Testbed>(sched_, net::Testbed::cluster_b());
    if (tracer != nullptr) tb_->set_tracer(tracer);
    oib::EngineConfig ec;
    ec.mode = oib::RpcMode::kRpcoIB;
    engine_ = std::make_unique<oib::RpcEngine>(*tb_, ec);
    server_ = engine_->make_server(tb_->host(0), kServerAddr);
    register_methods(server_->dispatcher());
    server_->start();
    for (int h : caller_hosts_) clients_.push_back(engine_->make_client(tb_->host(h)));

    // Warm-up: bootstrap every connection and size history, from a seed
    // stream of its own so the measured inputs do not depend on it.
    sim::Rng rng = stream(0x77617275, 1);
    std::vector<Op> ops;
    if (open_loop()) {
      ops = make_ops(rng, static_cast<std::size_t>(callers()) * 40, warmup_rate_, sched_.now());
    } else {
      const std::size_t n = static_cast<std::size_t>(callers()) * keys_.size() *
                            static_cast<std::size_t>(warmup_calls_);
      ops = schedule(rng, n, 0, sched_.now());
      for (std::size_t i = 0; i < ops.size(); ++i) {  // cover every caller x method
        ops[i].method = static_cast<std::uint16_t>((i / static_cast<std::size_t>(callers())) % keys_.size());
      }
      fill_ops(rng, ops);
    }
    warmup_ = std::make_unique<Phase>(*this, std::move(ops), open_loop());
    drive(*warmup_);
    if (warmup_->failed + warmup_->wrong != 0) throw std::runtime_error("warm-up calls failed");
  }

  Scheduler& sched() override { return sched_; }
  bool open_loop() const override { return warmup_rate_ > 0; }
  int callers() const override { return static_cast<int>(caller_hosts_.size()); }
  int caller_host(int c) const override { return caller_hosts_[static_cast<std::size_t>(c)]; }

  std::vector<Op> make_ops(sim::Rng& rng, std::size_t n, double rate_per_s,
                           sim::Time start) const override {
    std::vector<Op> ops = schedule(rng, n, rate_per_s, start);
    fill_ops(rng, ops);
    return ops;
  }

  Counters counters() override {
    Counters c;
    add_profiles(engine_->aggregated_profiles(), c);
    for (const auto& cl : clients_) {
      add_client(cl->stats(), c);
      if (auto* rc = dynamic_cast<oib::RdmaRpcClient*>(cl.get())) add_pool(rc->pool().native().stats(), c);
    }
    add_server(server_->stats(), c);
    if (auto* rs = dynamic_cast<oib::RdmaRpcServer*>(server_.get())) add_pool(rs->pool().native().stats(), c);
    return c;
  }

  double probe_pool_ns(const std::vector<Op>& ops) override {
    std::vector<std::pair<const rpc::MethodKey*, std::size_t>> uses;
    for (std::size_t i = 0; i < std::min<std::size_t>(ops.size(), 4096); ++i) {
      uses.emplace_back(&keys_[ops[i].method], ops[i].req_bytes + 64);
    }
    return pool_probe(uses);
  }

  void teardown(Gates& g) override {
    server_->stop();
    for (const auto& cl : clients_) {
      if (auto* rc = dynamic_cast<oib::RdmaRpcClient*>(cl.get())) rc->close_connections();
    }
    sched_.run_until(sched_.now() + sim::seconds(5));
    for (const auto& cl : clients_) {
      if (auto* rc = dynamic_cast<oib::RdmaRpcClient*>(cl.get())) {
        const oib::PoolStats& p = rc->pool().native().stats();
        if (p.acquires != p.releases) {
          g.pools_balanced = false;
          g.notes.push_back("client pool acquires " + std::to_string(p.acquires) +
                            " != releases " + std::to_string(p.releases));
        }
      }
    }
    if (auto* rs = dynamic_cast<oib::RdmaRpcServer*>(server_.get())) {
      const oib::PoolStats& p = rs->pool().native().stats();
      if (p.acquires != p.releases) {
        g.pools_balanced = false;
        g.notes.push_back("server pool acquires " + std::to_string(p.acquires) +
                          " != releases " + std::to_string(p.releases));
      }
    }
    check_live_tasks(sched_, 0, g);
    sched_.drain_tasks();
  }

 protected:
  /// `open_rate` > 0: open loop, warmed up at that offered rate. 0: closed
  /// loop, warmed up with `warmup_calls` calls per caller and method. Each
  /// method is drawn `weights[m]` times per shuffled deck.
  RpcWorkload(std::vector<rpc::MethodKey> keys, std::vector<std::uint32_t> weights,
              std::vector<int> caller_hosts, double open_rate, int warmup_calls)
      : keys_(std::move(keys)), weights_(std::move(weights)),
        caller_hosts_(std::move(caller_hosts)), warmup_rate_(open_rate),
        warmup_calls_(warmup_calls) {}

  virtual void register_methods(rpc::Dispatcher& d) = 0;
  /// Fills the keys, sizes and expected replies of scheduled operations.
  virtual void fill_ops(sim::Rng& rng, std::vector<Op>& ops) const = 0;

  rpc::RpcClient& client(const Op& op) { return *clients_[op.caller]; }

  const std::vector<rpc::MethodKey> keys_;

 private:
  /// Arrival times (open loop), callers and methods of `n` operations.
  std::vector<Op> schedule(sim::Rng& rng, std::size_t n, double rate_per_s, sim::Time start) const {
    std::vector<Op> ops(n);
    // Methods are drawn from a shuffled deck holding each method `weight`
    // times, so every stretch of operations carries the exact method mix
    // and a probe's capacity does not depend on how many large calls it drew.
    std::vector<std::uint16_t> deck;
    for (std::size_t m = 0; m < keys_.size(); ++m) {
      deck.insert(deck.end(), weights_[m], static_cast<std::uint16_t>(m));
    }
    double t = static_cast<double>(start);
    const double mean_gap_ns = rate_per_s > 0 ? 1e9 / rate_per_s : 0;
    for (std::size_t i = 0; i < n; ++i) {
      Op& op = ops[i];
      if (rate_per_s > 0) {
        t += rng.next_exponential(mean_gap_ns);
        op.due = static_cast<sim::Time>(t);
        op.caller = static_cast<std::uint16_t>(rng.next_below(static_cast<std::uint64_t>(callers())));
      } else {
        op.caller = static_cast<std::uint16_t>(i % static_cast<std::size_t>(callers()));
      }
      if (i % deck.size() == 0) {  // reshuffle: Fisher-Yates
        for (std::size_t k = deck.size() - 1; k > 0; --k) {
          std::swap(deck[k], deck[rng.next_below(k + 1)]);
        }
      }
      op.method = deck[i % deck.size()];
    }
    return ops;
  }

  const std::vector<std::uint32_t> weights_;
  const std::vector<int> caller_hosts_;
  const double warmup_rate_;
  const int warmup_calls_;
  Scheduler sched_;
  std::unique_ptr<net::Testbed> tb_;
  std::unique_ptr<oib::RpcEngine> engine_;
  std::unique_ptr<rpc::RpcServer> server_;
  std::vector<std::unique_ptr<rpc::RpcClient>> clients_;
  std::unique_ptr<Phase> warmup_;
};

// ---------------------------------------------------------------------------
// rpc_eager_open: Hadoop daemon calls made of the repository's own Writables
// (src/mapred/types.hpp, src/hdfs/types.hpp), filled the way the TaskTracker,
// DataNode and DFSClient fill them, so serialization makes the same stream of
// small field writes, and buffer adjustments, as in the full Hadoop stack.
// One server hosts all six methods. Sizes and call weights follow the
// repository's measured Fig. 3 trace; perfbench/README.md gives the sources.

/// A DataOutput that keeps only an FNV-style digest and a byte count of what
/// is written: the fingerprint of a Writable's serialized form.
class DigestOutput final : public rpc::DataOutput {
 public:
  DigestOutput() : rpc::DataOutput(kCost) {}
  void write_raw(net::ByteSpan data) override {
    std::size_t i = 0;
    for (; i + 8 <= data.size(); i += 8) {  // a word at a time, then the tail
      std::uint64_t w = 0;
      std::memcpy(&w, data.data() + i, 8);
      h_ = (h_ ^ w) * 1099511628211ULL;
    }
    for (; i < data.size(); ++i) h_ = (h_ ^ data[i]) * 1099511628211ULL;
    n_ += data.size();
  }
  std::uint64_t digest() const { return h_; }
  std::uint32_t size() const { return static_cast<std::uint32_t>(n_); }

 private:
  static inline const cluster::CostModel kCost{};
  std::uint64_t h_ = 1469598103934665603ULL;
  std::uint64_t n_ = 0;
};

struct Fingerprint {
  std::uint64_t digest = 0;
  std::uint32_t size = 0;
};

Fingerprint fingerprint(const rpc::Writable& w) {
  DigestOutput d;
  w.write(d);
  return {d.digest(), d.size()};
}

std::uint64_t combine(std::uint64_t request_digest, std::uint64_t reply_digest) {
  return request_digest * 0x9E3779B97F4A7C15ULL ^ reply_digest;
}

/// A daemon-mix reply: the method's Hadoop response Writable, then the
/// digest of the request as the server parsed it.
template <class Resp>
struct CheckedReply final : rpc::Writable {
  Resp value;
  std::uint64_t request_digest = 0;
  void write(rpc::DataOutput& out) const override {
    value.write(out);
    out.write_u64(request_digest);
  }
  void read_fields(rpc::DataInput& in) override {
    value.read_fields(in);
    request_digest = in.read_u64();
  }
};

enum DaemonMethod : std::uint16_t {
  kJtHeartbeat, kStatusUpdate, kPing, kGetFileInfo, kBlockReceived, kDnHeartbeat
};

/// In DaemonMethod order. Weights follow the call counts of the measured
/// trace (heartbeat 176, statusUpdate 416, getFileInfo 640, blockReceived
/// 192); ping (once per task) and sendHeartbeat (every 3 s per DataNode, as
/// often as a TaskTracker heartbeat) are not in that table.
const rpc::MethodKey kDaemonKeys[] = {
    {mapred::kInterTrackerProtocol, "heartbeat"}, {mapred::kTaskUmbilicalProtocol, "statusUpdate"},
    {mapred::kTaskUmbilicalProtocol, "ping"},     {hdfs::kClientProtocol, "getFileInfo"},
    {hdfs::kDatanodeProtocol, "blockReceived"},   {hdfs::kDatanodeProtocol, "sendHeartbeat"}};
constexpr std::uint32_t kDaemonWeights[] = {2, 5, 1, 7, 2, 2};

constexpr int kMapSlots = 8;     // TaskTrackerConfig defaults
constexpr int kReduceSlots = 4;
/// Running tasks a TaskTracker heartbeat reports: a fifth 15-counter task
/// report would take the call past the 4 KB eager threshold.
constexpr int kMaxRunning = 4;
/// Chance that a tracker's running-task count steps by one between two of
/// its heartbeats. About 70% of a tracker's consecutive heartbeats then stay
/// in one size class, as in the measured trace (70.9%).
constexpr double kRunningStep = 0.36;

std::int32_t job_of(const Op& op) { return static_cast<std::int32_t>(op.key % 64) + 1; }
std::int32_t task_of(const Op& op) { return static_cast<std::int32_t>((op.key >> 8) % 256); }

mapred::TaskReport task_report(std::int32_t job, std::int32_t task, std::uint64_t bits) {
  mapred::TaskReport r;  // the full default counter set, as the TaskTracker sends it
  r.job = job;
  r.task = task;
  r.type = (bits & 1) != 0 ? mapred::TaskType::kReduce : mapred::TaskType::kMap;
  r.progress = static_cast<float>((bits >> 1) % 101) / 100.0f;
  return r;
}

mapred::HeartbeatRequest jt_heartbeat(const Op& op, int host) {
  mapred::HeartbeatRequest req;
  req.tracker = host;
  req.free_map_slots = kMapSlots - op.running;
  req.free_reduce_slots = kReduceSlots;
  for (int i = 0; i < op.running; ++i) {
    req.running.push_back(task_report(job_of(op), task_of(op) + i, op.key >> (16 + 8 * i)));
  }
  if (op.completed != 0) {
    req.completed.push_back(mapred::TaskAssignment{job_of(op), task_of(op) + kMaxRunning});
  }
  return req;
}

mapred::StatusUpdateParam status_update(const Op& op) {
  mapred::StatusUpdateParam p;
  p.report = task_report(job_of(op), task_of(op), op.key >> 16);
  p.state_string = p.report.progress < 1.0f ? "running > sort" : "cleanup";
  return p;
}

mapred::TaskIdParam task_id(const Op& op) {
  mapred::TaskIdParam p;
  p.job = job_of(op);
  p.task = task_of(op);
  return p;
}

hdfs::PathParam file_info(const Op& op, int host) {
  return hdfs::PathParam("/jobs/job_" + std::to_string(job_of(op)) + ".xml",
                         "tt-" + std::to_string(host));
}

hdfs::BlockReceivedParam block_received(const Op& op, int host) {
  hdfs::BlockReceivedParam p;
  p.id = host;
  p.block.id = op.key;
  p.block.num_bytes = 64ULL << 20;
  return p;
}

hdfs::HeartbeatParam dn_heartbeat(const Op& op, int host) {
  constexpr std::uint64_t kCapacity = 1ULL << 40;
  hdfs::HeartbeatParam p;
  p.id = host;
  p.used_bytes = op.key % kCapacity;
  p.remaining_bytes = kCapacity - p.used_bytes;
  p.xceiver_count = static_cast<std::uint32_t>(op.key >> 60);
  return p;
}

/// Builds `op`'s request and returns `f(request)`.
template <class F>
auto with_request(const Op& op, int host, F&& f) {
  switch (op.method) {
    case kJtHeartbeat: return f(jt_heartbeat(op, host));
    case kStatusUpdate: return f(status_update(op));
    case kPing: return f(task_id(op));
    case kGetFileInfo: return f(file_info(op, host));
    case kBlockReceived: return f(block_received(op, host));
    default: return f(dn_heartbeat(op, host));
  }
}

// The deterministic reply of each request type.

/// The JobTracker fills the tracker's free map slots beyond half of them.
mapred::HeartbeatResponse respond(const mapred::HeartbeatRequest& req) {
  mapred::HeartbeatResponse r;
  for (std::int32_t i = kMapSlots / 2; i < req.free_map_slots; ++i) {
    r.new_tasks.push_back(mapred::TaskAssignment{req.tracker, i});
  }
  return r;
}

rpc::BooleanWritable respond(const mapred::StatusUpdateParam&) { return rpc::BooleanWritable(true); }
rpc::BooleanWritable respond(const mapred::TaskIdParam&) { return rpc::BooleanWritable(true); }
rpc::BooleanWritable respond(const hdfs::BlockReceivedParam&) { return rpc::BooleanWritable(true); }

/// The NameNode's FileStatus of a job file, as NameNode::make_file_status fills it.
hdfs::FileStatusResult respond(const hdfs::PathParam& p) {
  hdfs::FileStatusResult r;
  r.exists = true;
  r.status.path = p.path;
  r.status.length = fingerprint(rpc::Text(p.path)).digest % (1U << 20);
  r.status.replication = 3;
  r.status.block_size = 64ULL << 20;
  return r;
}

/// No command for the DataNode.
hdfs::HeartbeatResult respond(const hdfs::HeartbeatParam&) { return hdfs::HeartbeatResult{}; }

template <class Req>
Co<void> daemon_handler(rpc::DataInput& in, rpc::DataOutput& out) {
  Req req;
  req.read_fields(in);
  CheckedReply<decltype(respond(req))> rep;
  rep.value = respond(req);
  rep.request_digest = fingerprint(req).digest;
  rep.write(out);
  co_return;
}

class DaemonWorkload final : public RpcWorkload {
 public:
  /// 64 daemons, eight on each of 8 client hosts, firing at `open_rate`.
  explicit DaemonWorkload(double open_rate)
      : RpcWorkload({std::begin(kDaemonKeys), std::end(kDaemonKeys)},
                    {std::begin(kDaemonWeights), std::end(kDaemonWeights)}, daemon_hosts(),
                    open_rate, 0) {}

  Co<std::optional<std::uint64_t>> run_op(const Op& op) override {
    return with_request(op, caller_host(op.caller),
                        [&](auto req) { return call(op, std::move(req)); });
  }

  double probe_serialize_ns(const std::vector<Op>& ops) override {
    std::vector<std::unique_ptr<rpc::Writable>> reqs;
    for (std::size_t i = 0; i < std::min<std::size_t>(ops.size(), 2048); ++i) {
      with_request(ops[i], caller_host(ops[i].caller), [&](auto req) {
        reqs.push_back(std::make_unique<decltype(req)>(std::move(req)));
      });
    }
    const cluster::CostModel cm{};
    std::uint64_t sink = 0;
    const double t0 = host_s();
    for (const auto& req : reqs) {
      rpc::DataOutputBuffer buf(cm);
      req->write(buf);
      sink += buf.length();
    }
    const double dt = host_s() - t0;
    if (sink == 0) throw std::runtime_error("serialization probe wrote nothing");
    return dt * 1e9 / static_cast<double>(reqs.size());
  }

 private:
  static std::vector<int> daemon_hosts() {
    std::vector<int> hosts;
    for (int h = 1; h <= 8; ++h) hosts.insert(hosts.end(), 8, h);
    return hosts;
  }

  void register_methods(rpc::Dispatcher& d) override {
    for (std::uint16_t m = 0; m < keys_.size(); ++m) {
      Op op;  // a throwaway request names the method's request type
      op.method = m;
      with_request(op, 0, [&](const auto& req) {
        d.register_method(keys_[m].protocol, keys_[m].method,
                          daemon_handler<std::decay_t<decltype(req)>>);
      });
    }
  }

  void fill_ops(sim::Rng& rng, std::vector<Op>& ops) const override {
    std::vector<std::uint8_t> running(static_cast<std::size_t>(callers()));
    for (std::uint8_t& r : running) r = static_cast<std::uint8_t>(rng.next_below(kMaxRunning + 1));
    for (Op& op : ops) {
      op.key = rng.next_u64();
      if (op.method == kJtHeartbeat) {
        std::uint8_t& r = running[op.caller];
        if (rng.next_double() < kRunningStep) {
          const bool up = r == 0 || (r < kMaxRunning && rng.next_below(2) == 0);
          r = static_cast<std::uint8_t>(up ? r + 1 : r - 1);
          op.completed = up ? 0 : 1;  // a task finished
        }
        op.running = r;
      }
      with_request(op, caller_host(op.caller), [&](const auto& req) {
        const Fingerprint q = fingerprint(req);
        const Fingerprint a = fingerprint(respond(req));
        op.req_bytes = q.size;
        op.reply_bytes = a.size;
        op.expect = combine(q.digest, a.digest);
        op.write = q.size > a.size;
      });
    }
  }

  template <class Req>
  Co<std::optional<std::uint64_t>> call(const Op& op, Req req) {
    CheckedReply<decltype(respond(req))> rep;
    co_await client(op).call(kServerAddr, keys_[op.method], req, &rep);
    if (combine(rep.request_digest, fingerprint(rep.value).digest) != op.expect) co_return std::nullopt;
    co_return static_cast<std::uint64_t>(op.req_bytes) + op.reply_bytes;
  }
};

// ---------------------------------------------------------------------------
// rpc_rendezvous: bulk calls above the eager threshold on a bench protocol.
// Half are upload-like (large request, small reply), half download-like;
// each method keeps its size class, and each size class is called half as
// often as the next smaller one.

constexpr const char* kBulkProtocol = "perfbench.BulkProtocol";

std::uint64_t reply_tag(std::uint64_t tag) { return tag * 0x9E3779B97F4A7C15ULL + 0x5bd1e995ULL; }
net::Byte reply_fill(std::uint64_t tag) { return static_cast<net::Byte>((tag >> 56) | 1U); }
net::Byte request_fill(std::uint16_t method) { return static_cast<net::Byte>(0x11 + method); }

/// Request: [u64 tag][u32 reply bytes][bytes payload].
struct BulkRequest final : rpc::Writable {
  std::uint64_t tag = 0;
  std::uint32_t reply_bytes = 0;
  net::ByteSpan payload;  // client side: borrowed
  net::Bytes body;        // server side: owned
  void write(rpc::DataOutput& out) const override {
    out.write_u64(tag);
    out.write_u32(reply_bytes);
    out.write_bytes(payload);
  }
  void read_fields(rpc::DataInput& in) override {
    tag = in.read_u64();
    reply_bytes = in.read_u32();
    body = in.read_bytes();
  }
};

/// Reply: [u64 reply_tag(tag)][u64 byte sum of the request payload]
///        [bytes: reply_bytes copies of reply_fill(tag)].
struct BulkReply final : rpc::Writable {
  std::uint64_t tag = 0;
  std::uint64_t checksum = 0;
  net::Bytes body;
  void write(rpc::DataOutput& out) const override {
    out.write_u64(tag);
    out.write_u64(checksum);
    out.write_bytes(body);
  }
  void read_fields(rpc::DataInput& in) override {
    tag = in.read_u64();
    checksum = in.read_u64();
    body = in.read_bytes();
  }
};

Co<void> bulk_handler(rpc::DataInput& in, rpc::DataOutput& out) {
  BulkRequest req;
  req.read_fields(in);
  BulkReply rep;
  rep.tag = reply_tag(req.tag);
  rep.checksum = std::accumulate(req.body.begin(), req.body.end(), std::uint64_t{0});
  rep.body.assign(req.reply_bytes, reply_fill(req.tag));
  rep.write(out);
  co_return;
}

struct BulkMethod {
  const char* name;
  std::uint32_t req_bytes;  // size class centre; calls jitter around it
  std::uint32_t reply_bytes;
  std::uint32_t weight;     // relative call frequency
};

const BulkMethod kBulkMethods[] = {
    {"put20K", 20u << 10, 32, 8},   {"put150K", 150u << 10, 32, 4},
    {"put600K", 600u << 10, 32, 2}, {"put1900K", 1900u << 10, 32, 1},
    {"get20K", 64, 20u << 10, 8},   {"get150K", 64, 150u << 10, 4},
    {"get600K", 64, 600u << 10, 2}, {"get1900K", 64, 1900u << 10, 1}};
constexpr double kBulkJitter = 0.06;  // +- share around each method's sizes

class BulkWorkload final : public RpcWorkload {
 public:
  /// 4 closed-loop callers on 4 hosts.
  BulkWorkload() : RpcWorkload(bulk_keys(), bulk_weights(), {1, 2, 3, 4}, 0, 2) {
    for (std::size_t m = 0; m < std::size(kBulkMethods); ++m) {
      const std::size_t cap =
          static_cast<std::size_t>(std::ceil(kBulkMethods[m].req_bytes * (1 + kBulkJitter))) + 1;
      payloads_.emplace_back(cap, request_fill(static_cast<std::uint16_t>(m)));
    }
  }

  Co<std::optional<std::uint64_t>> run_op(const Op& op) override {
    BulkRequest req = request(op);
    BulkReply rep;
    co_await client(op).call(kServerAddr, keys_[op.method], req, &rep);
    const std::uint64_t want_sum =
        static_cast<std::uint64_t>(op.req_bytes) * request_fill(op.method);
    const bool correct = rep.tag == reply_tag(op.key) && rep.checksum == want_sum &&
                         rep.body.size() == op.reply_bytes &&
                         all_equal(rep.body, reply_fill(op.key));
    if (!correct) co_return std::nullopt;
    co_return static_cast<std::uint64_t>(op.req_bytes) + op.reply_bytes;
  }

  double probe_serialize_ns(const std::vector<Op>& ops) override {
    const std::size_t n = std::min<std::size_t>(ops.size(), 2048);
    const cluster::CostModel cm{};
    std::uint64_t sink = 0;
    const double t0 = host_s();
    for (std::size_t i = 0; i < n; ++i) {
      rpc::DataOutputBuffer buf(cm);
      request(ops[i]).write(buf);
      sink += buf.length();
    }
    const double dt = host_s() - t0;
    if (sink == 0) throw std::runtime_error("serialization probe wrote nothing");
    return dt * 1e9 / static_cast<double>(n);
  }

 private:
  static std::vector<rpc::MethodKey> bulk_keys() {
    std::vector<rpc::MethodKey> keys;
    for (const BulkMethod& m : kBulkMethods) keys.push_back({kBulkProtocol, m.name});
    return keys;
  }
  static std::vector<std::uint32_t> bulk_weights() {
    std::vector<std::uint32_t> w;
    for (const BulkMethod& m : kBulkMethods) w.push_back(m.weight);
    return w;
  }

  BulkRequest request(const Op& op) const {
    BulkRequest req;
    req.tag = op.key;
    req.reply_bytes = op.reply_bytes;
    req.payload = net::ByteSpan(payloads_[op.method].data(), op.req_bytes);
    return req;
  }

  void register_methods(rpc::Dispatcher& d) override {
    for (const rpc::MethodKey& k : keys_) d.register_method(k.protocol, k.method, bulk_handler);
  }

  void fill_ops(sim::Rng& rng, std::vector<Op>& ops) const override {
    for (Op& op : ops) {
      const BulkMethod& m = kBulkMethods[op.method];
      auto jit = [&](std::uint32_t base) {
        const double f = 1.0 + kBulkJitter * (2.0 * rng.next_double() - 1.0);
        return static_cast<std::uint32_t>(std::lround(base * f));
      };
      op.req_bytes = jit(m.req_bytes);
      op.reply_bytes = jit(m.reply_bytes);
      op.write = m.req_bytes > m.reply_bytes;
      op.key = rng.next_u64();
    }
  }

  std::vector<net::Bytes> payloads_;
};

// ---------------------------------------------------------------------------
// HBase YCSB mix: the Fig. 8 headline stack (HBaseoIB over RPCoIB, Hadoop
// RPC over RPCoIB, HDFS data over IPoIB sockets), 16 region servers and 16
// closed-loop YCSB clients, zipfian keys, 50% Get / 50% Put, 1 KB-average records.
//
// Record sizes are uniform over 896-1152 bytes (1 KB on average, YCSB's
// uniform field-length distribution), and each client pauses for a seeded
// exponential time (mean 2 us) before each operation, standing in for a
// YCSB thread's own work. With one fixed size and no pause, the 16 clients
// fall into a lock-step pattern: every uncontended operation takes the same
// modelled time, the median is one constant for every seed, and the p99
// depends on which pattern a seed locks into.

constexpr std::uint64_t kRecords = 20000;
constexpr double kThinkUs = 2;  // mean client pause between operations
constexpr std::uint32_t kMinRecordBytes = 896;
constexpr std::uint32_t kRecordSizes = 257;  // sizes 896..1152
constexpr net::Byte kStoredFill = 0x42;  // what a region server returns for any stored row

std::uint32_t loaded_size(std::uint64_t record) {
  return kMinRecordBytes + static_cast<std::uint32_t>(sim::SplitMix64(record).next() % kRecordSizes);
}

Task load_task(hbase::HTable& table, std::uint64_t first, std::uint64_t count,
               const net::Bytes& value, std::uint64_t& done) {
  for (std::uint64_t i = first; i < first + count; ++i) {
    const std::string key = ycsb::ycsb_key(i);
    co_await table.put(key, net::ByteSpan(value.data(), loaded_size(i)));
    ++done;
  }
}

class YcsbWorkload final : public Workload {
 public:
  YcsbWorkload()
      : value_(kMinRecordBytes + kRecordSizes - 1, net::Byte{0x59}), zipf_(kRecords),
        written_(kRecords) {
    for (std::uint64_t i = 0; i < kRecords; ++i) written_[i].set(loaded_size(i) - kMinRecordBytes);
  }

  ~YcsbWorkload() override {
    tables_.clear();
    hbase_.reset();
    hdfs_.reset();
    hbase_engine_.reset();
    hadoop_engine_.reset();
    tb_.reset();
  }

  void setup(trace::TraceCollector* tracer) override {
    net::TestbedConfig cfg = net::Testbed::cluster_a(33);
    tb_ = std::make_unique<net::Testbed>(sched_, cfg);
    if (tracer != nullptr) tb_->set_tracer(tracer);
    hadoop_engine_ = std::make_unique<oib::RpcEngine>(*tb_, oib::EngineConfig{.mode = oib::RpcMode::kRpcoIB});
    hbase_engine_ = std::make_unique<oib::RpcEngine>(*tb_, oib::EngineConfig{.mode = oib::RpcMode::kRpcoIB});
    std::vector<cluster::HostId> rs_hosts;
    for (int i = 1; i <= 16; ++i) rs_hosts.push_back(i);
    hdfs_ = std::make_unique<hdfs::HdfsCluster>(*hadoop_engine_, 0, rs_hosts,
                                                hdfs::DataMode::kSocketIPoIB);
    hbase::HBaseConfig hb;
    hb.memstore_flush_bytes = 512 * 1024;  // Fig. 8 bench scale: flushes per op match the paper
    hbase_ = std::make_unique<hbase::HBaseCluster>(*hbase_engine_, *hdfs_, rs_hosts, hb);
    hdfs_->start();
    hbase_->start();
    sched_.run_until(sim::millis(500));
    for (int i = 17; i <= 32; ++i) tables_.push_back(hbase_->make_table(tb_->host(i)));

    // Load phase: every record, split over the 16 clients.
    std::uint64_t loaded = 0;
    const std::uint64_t per = kRecords / tables_.size();
    for (std::size_t c = 0; c < tables_.size(); ++c) {
      const std::uint64_t first = per * c;
      const std::uint64_t count = c + 1 == tables_.size() ? kRecords - first : per;
      sched_.spawn(load_task(*tables_[c], first, count, value_, loaded));
    }
    while (loaded < kRecords && sched_.step()) {
    }
    if (loaded != kRecords) throw std::runtime_error("YCSB load phase did not finish");
  }

  Scheduler& sched() override { return sched_; }
  bool open_loop() const override { return false; }
  int callers() const override { return 16; }
  int caller_host(int c) const override { return 17 + c; }

  std::vector<Op> make_ops(sim::Rng& rng, std::size_t n, double rate_per_s,
                           sim::Time start) const override {
    std::vector<Op> ops(n);
    double t = static_cast<double>(start);
    const double mean_gap_ns = rate_per_s > 0 ? 1e9 / rate_per_s : 0;
    for (std::size_t i = 0; i < n; ++i) {
      Op& op = ops[i];
      if (rate_per_s > 0) {
        t += rng.next_exponential(mean_gap_ns);
        op.due = static_cast<sim::Time>(t);
        op.caller = static_cast<std::uint16_t>(rng.next_below(16));
      } else {
        op.caller = static_cast<std::uint16_t>(i % 16);
        op.think = sim::from_us(rng.next_exponential(kThinkUs));
      }
      op.key = zipf_.next(rng);
      op.write = rng.next_double() >= 0.5;
      op.method = op.write ? 1 : 0;
      op.req_bytes = op.write ? kMinRecordBytes + static_cast<std::uint32_t>(rng.next_below(kRecordSizes)) : 0;
    }
    return ops;
  }

  Co<std::optional<std::uint64_t>> run_op(const Op& op) override {
    hbase::HTable& table = *tables_[op.caller];
    const std::string key = ycsb::ycsb_key(op.key);
    if (op.write) {
      // Marked before the Put is issued: a racing Get may already see it.
      written_[op.key].set(op.req_bytes - kMinRecordBytes);
      co_await table.put(key, net::ByteSpan(value_.data(), op.req_bytes));
      co_return op.req_bytes;
    }
    hbase::GetResult r = co_await table.get(key);
    // Every key is loaded, so every Get must find its row, with a size the
    // key was written with and the region server's stored bytes.
    const std::size_t n = r.value.size();
    const bool correct = r.found && n >= kMinRecordBytes &&
                         n < kMinRecordBytes + kRecordSizes &&
                         written_[op.key].test(n - kMinRecordBytes) &&
                         all_equal(r.value, kStoredFill);
    if (!correct) co_return std::nullopt;
    co_return n;
  }

  Counters counters() override {
    Counters c;
    add_profiles(hbase_engine_->aggregated_profiles(), c);
    for (std::size_t i = 0; i < hbase_->num_regions(); ++i) c.flushes += hbase_->region(i).flushes();
    Counters nn;
    add_profiles(hadoop_engine_->aggregated_profiles(), nn);
    c.nn_calls = nn.calls;
    return c;
  }

  double probe_serialize_ns(const std::vector<Op>& ops) override {
    const std::size_t n = std::min<std::size_t>(ops.size(), 4096);
    const cluster::CostModel& cm = tb_->host(0).cost();
    std::uint64_t sink = 0;
    const double t0 = host_s();
    for (std::size_t i = 0; i < n; ++i) {
      rpc::DataOutputBuffer buf(cm);
      if (ops[i].write) {
        hbase::PutParam p;
        p.key = ycsb::ycsb_key(ops[i].key);
        p.value.assign(value_.begin(), value_.begin() + ops[i].req_bytes);
        p.write(buf);
      } else {
        hbase::GetParam p;
        p.key = ycsb::ycsb_key(ops[i].key);
        p.write(buf);
      }
      sink += buf.length();
    }
    const double dt = host_s() - t0;
    if (sink == 0) throw std::runtime_error("serialization probe wrote nothing");
    return dt * 1e9 / static_cast<double>(n);
  }

  double probe_pool_ns(const std::vector<Op>& ops) override {
    static const rpc::MethodKey kPut{hbase::kRegionProtocol, "put"};
    static const rpc::MethodKey kGet{hbase::kRegionProtocol, "get"};
    std::vector<std::pair<const rpc::MethodKey*, std::size_t>> uses;
    for (std::size_t i = 0; i < std::min<std::size_t>(ops.size(), 4096); ++i) {
      uses.emplace_back(ops[i].write ? &kPut : &kGet, ops[i].req_bytes + 48);
    }
    return pool_probe(uses);
  }

  void teardown(Gates& g) override {
    hbase_->stop();
    hdfs_->stop();
    sched_.run_until(sched_.now() + sim::seconds(5));
    // HTable and the region servers' DFSClients have no public close, so
    // their connections' receive loops outlive stop(). No teardown may
    // leave more live tasks than the first, straight after set-up (load):
    // any more were leaked by the measured operations.
    if (!g.baseline_tasks) g.baseline_tasks = sched_.live_task_count();
    check_live_tasks(sched_, *g.baseline_tasks, g);
    sched_.drain_tasks();
  }

 private:
  net::Bytes value_;
  sim::ZipfianGenerator zipf_;
  std::vector<std::bitset<kRecordSizes>> written_;  // per record: sizes ever written
  Scheduler sched_;
  std::unique_ptr<net::Testbed> tb_;
  std::unique_ptr<oib::RpcEngine> hadoop_engine_;
  std::unique_ptr<oib::RpcEngine> hbase_engine_;
  std::unique_ptr<hdfs::HdfsCluster> hdfs_;
  std::unique_ptr<hbase::HBaseCluster> hbase_;
  std::vector<std::unique_ptr<hbase::HTable>> tables_;
};

// ---------------------------------------------------------------------------
// Workload table. Operation counts scale with --seconds, so a run measures
// about that many host seconds on a 4-core x86 box at the commit that
// defined the benchmark, and every commit simulates the same operations.

struct WorkloadDef {
  const char* name;
  double main_ops_per_s;    // measured phase, operations per --seconds
  double probe_ops_per_s;   // each SLO-search probe, operations per --seconds
  double open_rate;         // offered rate of the open loop (ops/s); 0 = closed loop
  int setups;               // set-up repetitions (setup_s is their median)
  std::size_t trace_ops;    // operations in the traced run
};

const WorkloadDef kWorkloads[] = {
    {"rpc_eager_open", 60000, 2500, 110000, 25, 30000},
    {"rpc_rendezvous", 5000, 400, 0, 25, 10000},
    {"hbase_ycsb_mix", 100000, 5000, 0, 9, 20000},
};

std::unique_ptr<Workload> make_workload(const WorkloadDef& d) {
  const std::string n = d.name;
  if (n == "rpc_eager_open") return std::make_unique<DaemonWorkload>(d.open_rate);
  if (n == "rpc_rendezvous") return std::make_unique<BulkWorkload>();
  return std::make_unique<YcsbWorkload>();
}

// ---------------------------------------------------------------------------
// SLO search: the highest offered rate of the workload's own operation mix,
// as Poisson arrivals over its callers, whose p99 meets the latency limit
// with no failed operation and no growing backlog.

struct SloProbe {
  double rate = 0;
  double p99 = 0;
  bool pass = false;
};

SloProbe slo_probe(Workload& w, std::uint64_t seed, int index, double rate, std::size_t n,
                   double limit_us, std::vector<std::unique_ptr<Phase>>& keep) {
  sim::Rng rng = stream(seed, 100 + static_cast<std::uint64_t>(index));
  // Start after the previous phase's stragglers: arrivals begin 1 ms out.
  std::vector<Op> ops = w.make_ops(rng, n, rate, w.sched().now() + sim::kMillisecond);
  keep.push_back(std::make_unique<Phase>(w, std::move(ops), true));
  Phase& ph = *keep.back();
  drive(ph);
  SloProbe p;
  p.rate = rate;
  p.p99 = percentile(ph.lat_us, 0.99);
  // Growing backlog: the mean latency of the last third of arrivals exceeds
  // that of the first third by more than half the limit.
  const std::size_t third = ph.lat_us.size() / 3;
  const std::vector<double> first(ph.lat_us.begin(), ph.lat_us.begin() + static_cast<std::ptrdiff_t>(third));
  const std::vector<double> last(ph.lat_us.end() - static_cast<std::ptrdiff_t>(third), ph.lat_us.end());
  const bool steady = mean(last) - mean(first) <= 0.5 * limit_us;
  p.pass = ph.failed == 0 && ph.wrong == 0 && p.p99 <= limit_us && steady;
  return p;
}

double slo_search(Workload& w, double start_rate, std::uint64_t seed, std::size_t n,
                  double limit_us, std::vector<std::unique_ptr<Phase>>& keep,
                  std::vector<SloProbe>& log) {
  constexpr double kStep = 1.3;
  int idx = 0;
  auto probe = [&](double r) {
    log.push_back(slo_probe(w, seed, idx++, r, n, limit_us, keep));
    return log.back().pass;
  };
  // Bracket the limit with a geometric ladder from the start rate, then bisect.
  double lo = 0;
  double hi = 0;
  if (probe(start_rate)) {
    lo = start_rate;
    for (int k = 0; k < 5 && hi == 0; ++k) {
      const double r = lo * kStep;
      if (probe(r)) {
        lo = r;
      } else {
        hi = r;
      }
    }
    if (hi == 0) return lo;  // still meets the limit at the top of the ladder
  } else {
    hi = start_rate;
    for (int k = 0; k < 5 && lo == 0; ++k) {
      const double r = hi / kStep;
      if (probe(r)) {
        lo = r;
      } else {
        hi = r;
      }
    }
    if (lo == 0) return hi / kStep;  // misses the limit everywhere searched
  }
  for (int k = 0; k < 5; ++k) {
    const double mid = 0.5 * (lo + hi);
    if (probe(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// ---------------------------------------------------------------------------
// Traced-run attribution: every root is re-played into a collector of its
// own and handed to attribute_time, so the cost stays linear in spans.

struct AttrTotals {
  std::array<double, trace::kCategoryCount> ns{};
  double root_ns = 0;
  sim::Dur root_total = 0;  // exact sum of the root durations
  double attributed_ns = 0;
  std::size_t roots = 0;
  std::size_t spans = 0;
  bool closed = true;
};

AttrTotals attribute_roots(const trace::TraceCollector& col, const std::vector<trace::SpanId>& roots) {
  const std::vector<trace::Span>& spans = col.spans();
  std::vector<std::vector<trace::SpanId>> children(spans.size() + 1);
  for (const trace::Span& s : spans) {
    if (s.parent_id != 0) children[s.parent_id].push_back(s.id);
  }
  AttrTotals t;
  t.spans = spans.size();
  std::vector<trace::SpanId> subtree;
  std::vector<trace::SpanId> remap(spans.size() + 1, 0);
  for (trace::SpanId root : roots) {
    subtree.clear();
    subtree.push_back(root);
    for (std::size_t k = 0; k < subtree.size(); ++k) {
      for (trace::SpanId c : children[subtree[k]]) subtree.push_back(c);
    }
    // Parents always precede children in id order, so re-adding by id keeps
    // attribute_time's (start, id) tie-break identical.
    std::sort(subtree.begin(), subtree.end());
    trace::TraceCollector one;
    one.set_enabled(true);
    for (trace::SpanId id : subtree) {
      const trace::Span& s = spans[id - 1];
      const trace::TraceContext parent =
          id == root ? trace::TraceContext{} : one.context_of(remap[s.parent_id]);
      remap[id] = one.add_complete(std::string(), s.kind, s.category, parent, s.host, s.start, s.end);
    }
    const trace::Attribution a = trace::attribute_time(one, 1);
    for (int c = 0; c < trace::kCategoryCount; ++c) t.ns[static_cast<std::size_t>(c)] += static_cast<double>(a.by_category[static_cast<std::size_t>(c)]);
    t.root_ns += static_cast<double>(a.total());
    t.root_total += a.total();
    t.attributed_ns += static_cast<double>(a.attributed());
    if (a.attributed() != a.total()) t.closed = false;
    ++t.roots;
  }
  return t;
}

/// Category slugs for metric names (trace::category_name is for humans).
const char* category_slug(int c) {
  static const char* kSlugs[trace::kCategoryCount] = {
      "other", "serialization", "send", "recv", "queue", "handler", "wire", "buffer",
      "compute", "disk", "fault", "retry", "overload", "stream", "session", "onesided"};
  return kSlugs[c];
}

/// Categories reported as attr.* metrics: those the three workloads reach
/// at the default configuration. The rest belong to default-off planes, or
/// (other: root self time) are covered by child spans on every workload.
constexpr int kReportedCategories[] = {1, 2, 3, 4, 5, 6, 7, 9};

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // sample count etc., human table only
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %18.6f %-8s %s\n", m.name.c_str(), m.value, m.unit.c_str(), m.note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::map<std::string, double> slo_us;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = next();
    } else if (a == "--seed") {
      o.seed = std::stoull(next());
    } else if (a == "--seconds") {
      o.seconds = std::stod(next());
    } else if (a == "--trace") {
      o.trace = next() == "1";
    } else if (a == "--slo-us") {
      const std::string kv = next();
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos) throw std::invalid_argument("--slo-us wants WORKLOAD=US");
      o.slo_us[kv.substr(0, eq)] = std::stod(kv.substr(eq + 1));
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (o.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  return o;
}

std::size_t scaled(double per_s, double seconds) {
  return std::max<std::size_t>(100, static_cast<std::size_t>(std::llround(per_s * seconds)));
}

int run(const Options& o) {
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& d : kWorkloads) {
    if (o.workload == d.name) def = &d;
  }
  if (def == nullptr) throw std::invalid_argument("unknown workload '" + o.workload + "'");
  const auto slo_it = o.slo_us.find(def->name);
  if (slo_it == o.slo_us.end()) throw std::invalid_argument("no --slo-us limit for " + o.workload);
  const double limit_us = slo_it->second;

  const std::size_t n_main = scaled(def->main_ops_per_s, o.seconds);
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> out;
  Gates gates;

  // ---- set-up (repeated; the last instance is measured) -------------------
  // setup_s is the median of the set-up times, each scaled to the reference
  // host by the mean of the calibration kernels timed just before and just
  // after it. There are at least two set-ups, so the first teardown comes
  // straight after a set-up.
  const int setups = o.trace ? 2 : def->setups;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int k = 0; k < setups; ++k) {
    if (w) w->teardown(gates);
    w.reset();
    w = make_workload(*def);
    const double kernel_before = calibration_kernel_s();
    const double t0 = host_s();
    w->setup(nullptr);
    const double dt = host_s() - t0;
    const double kernel_after = calibration_kernel_s();
    setup_s.push_back(dt * 2 * kReferenceKernelS / (kernel_before + kernel_after));
  }

  // ---- measured phase ------------------------------------------------------
  sim::Rng rng = stream(o.seed, 1);
  std::vector<Op> ops = w->make_ops(rng, n_main, def->open_rate, w->sched().now() + sim::kMillisecond);
  std::printf("perfbench %s seed=%llu ops=%zu inputs_digest=%016llx\n", def->name,
              static_cast<unsigned long long>(o.seed), ops.size(),
              static_cast<unsigned long long>(digest_ops(ops)));
  const Counters c0 = w->counters();
  std::vector<std::unique_ptr<Phase>> phases;
  phases.push_back(std::make_unique<Phase>(*w, ops, w->open_loop()));
  Phase& meas = *phases.back();
  meas.calibrate = true;
  drive(meas);
  const Counters c1 = w->counters();
  attempted += meas.ops.size();
  failed += meas.failed;
  if (meas.wrong != 0 || !meas.error.empty()) correct = false;
  if (!meas.error.empty()) std::printf("  error: %s\n", meas.error.c_str());
  const LatencyStats lat = latency_stats(meas);
  const double host_ops = host_rate(meas);
  // Read before the SLO search: its overloaded probes hold a backlog of
  // in-flight payloads whose size depends on how far past the knee they go.
  const double rss_mb = peak_rss_mb();

  if (!o.trace) {
    std::vector<SloProbe> log;
    // The search starts at the open loop's offered rate, or at the closed
    // loop's goodput (virtual time, so the same for every host).
    const double start_rate = w->open_loop()
                                  ? def->open_rate
                                  : static_cast<double>(meas.settled) / meas.virtual_s();
    const double slo = slo_search(*w, start_rate, o.seed, scaled(def->probe_ops_per_s, o.seconds),
                                  limit_us, phases, log);
    for (std::size_t i = 1; i < phases.size(); ++i) {
      attempted += phases[i]->ops.size();
      failed += phases[i]->failed;
      if (phases[i]->wrong != 0 || !phases[i]->error.empty()) correct = false;
    }
    for (const SloProbe& p : log) {
      std::printf("  slo probe rate=%.1f ops/s p99=%.2f us %s\n", p.rate, p.p99, p.pass ? "pass" : "miss");
    }
    w->teardown(gates);
    const double vs = meas.virtual_s();
    const std::string n_all = "n=" + std::to_string(lat.n);
    out.push_back({"op_p50_us", lat.p50, "us", n_all});
    out.push_back({"op_p99_us", lat.p99, "us", n_all});
    out.push_back({"op_p999_us", lat.p999, "us", n_all});
    out.push_back({"read_p99_us", lat.read_p99, "us", "n=" + std::to_string(lat.n_read)});
    out.push_back({"write_p99_us", lat.write_p99, "us", "n=" + std::to_string(lat.n_write)});
    out.push_back({"goodput_kops", ratio(static_cast<double>(meas.settled - meas.failed - meas.wrong), vs) / 1e3, "Kops/s", "virtual"});
    out.push_back({"goodput_MBps", ratio(static_cast<double>(meas.payload), vs) / 1e6, "MB/s", "virtual"});
    out.push_back({"slo_kops", slo / 1e3, "Kops/s", "p99 limit " + std::to_string(limit_us) + " us"});
    out.push_back({"sim_ops_per_host_s", host_ops, "1/s", "host CPU"});
    out.push_back({"setup_s", median(setup_s), "s",
                   "median of " + std::to_string(setup_s.size())});
    out.push_back({"peak_rss_mb", rss_mb, "MB", "set-up + measured phase"});
  } else {
    // ---- per-layer counters and host probes (untraced run) ---------------
    const double n = static_cast<double>(meas.settled);
    const double calls = static_cast<double>(c1.calls - c0.calls);
    const double attempts_hist = static_cast<double>(
        (c1.pool.history_hits - c0.pool.history_hits) + (c1.pool.history_misses - c0.pool.history_misses) +
        (c1.pool.history_shrinks - c0.pool.history_shrinks));
    const std::uint64_t acquires = c1.pool.acquires - c0.pool.acquires;
    std::vector<double> dispatch_ns;
    std::vector<double> ser_ns;
    std::vector<double> pool_ns;
    for (int r = 0; r < 5; ++r) {
      Scheduler s;
      constexpr int kEvents = 200000;
      const double t0 = host_s();
      for (int i = 0; i < kEvents; ++i) {
        s.call_at(s.now(), [] {});
        s.step();
      }
      dispatch_ns.push_back((host_s() - t0) * 1e9 / kEvents);
      ser_ns.push_back(w->probe_serialize_ns(ops));
      pool_ns.push_back(w->probe_pool_ns(ops));
    }
    const std::uint64_t puts = static_cast<std::uint64_t>(std::count_if(
        meas.ops.begin(), meas.ops.end(), [](const Op& op) { return op.write; }));

    out.push_back({"sim.events_per_op", ratio(static_cast<double>(meas.events), n), "count", ""});
    out.push_back({"sim.host_ns_per_event", ratio(1e9 * n, host_ops * static_cast<double>(meas.events)), "ns", "host"});
    out.push_back({"sim.live_tasks_peak", static_cast<double>(meas.live_tasks_peak), "count", ""});
    out.push_back({"rpc.serialize_us_per_call", ratio(c1.serialize_us - c0.serialize_us, calls), "us", ""});
    out.push_back({"rpc.send_us_per_call", ratio(c1.send_us - c0.send_us, calls), "us", ""});
    out.push_back({"rpc.mem_adjustments_per_call", ratio(c1.mem_adjustments - c0.mem_adjustments, calls), "count", ""});
    out.push_back({"rpc.server.recv_alloc_share", ratio(c1.recv_alloc_us - c0.recv_alloc_us, c1.recv_total_us - c0.recv_total_us), "ratio", ""});
    out.push_back({"rpc.server.queue_depth_peak", static_cast<double>(c1.queue_depth_peak), "count", ""});
    out.push_back({"rpc.retries", static_cast<double>(c1.retries - c0.retries), "count", ""});
    out.push_back({"rpc.timeouts", static_cast<double>(c1.timeouts - c0.timeouts), "count", ""});
    out.push_back({"rpc.transport_errors", static_cast<double>(c1.transport_errors - c0.transport_errors), "count", ""});
    out.push_back({"failed_frac", ratio(static_cast<double>(meas.failed), static_cast<double>(meas.ops.size())), "ratio", ""});
    out.push_back({"pool.history_hit_ratio", ratio(static_cast<double>(c1.pool.history_hits - c0.pool.history_hits), attempts_hist), "ratio", ""});
    out.push_back({"pool.freelist_hit_ratio", ratio(static_cast<double>(c1.pool.freelist_hits - c0.pool.freelist_hits), static_cast<double>(acquires)), "ratio", ""});
    out.push_back({"pool.demand_allocations", static_cast<double>(c1.pool.demand_allocations - c0.pool.demand_allocations), "count", ""});
    out.push_back({"pool.registered_MB", static_cast<double>(c1.pool.registered_bytes) / 1e6, "MB", ""});
    out.push_back({"srq.rnr_stalls", static_cast<double>(c1.srq_rnr_stalls - c0.srq_rnr_stalls), "count", ""});
    out.push_back({"srq.refills", static_cast<double>(c1.srq_refills - c0.srq_refills), "count", ""});
    out.push_back({"hbase.flushes_per_kput", ratio(static_cast<double>(c1.flushes - c0.flushes), static_cast<double>(puts) / 1e3), "count", ""});
    out.push_back({"hdfs.nn_calls_per_op", ratio(static_cast<double>(c1.nn_calls - c0.nn_calls), n), "count", ""});
    out.push_back({"probe.sim.dispatch_ns", *std::min_element(dispatch_ns.begin(), dispatch_ns.end()), "ns", "host"});
    out.push_back({"probe.rpc.serialize_ns", *std::min_element(ser_ns.begin(), ser_ns.end()), "ns", "host"});
    out.push_back({"probe.pool.acquire_release_ns", *std::min_element(pool_ns.begin(), pool_ns.end()), "ns", "host"});
    w->teardown(gates);
    phases.clear();
    w.reset();

    // ---- untraced replay, then traced run, of the same leading operations --
    // The replay runs at the same point of the process as the traced run, so
    // the allocator state the measured phase left behind favours neither.
    const std::size_t n_trace = std::min(def->trace_ops, ops.size());
    const std::vector<Op> tops(ops.begin(), ops.begin() + static_cast<std::ptrdiff_t>(n_trace));
    w = make_workload(*def);
    w->setup(nullptr);
    phases.push_back(std::make_unique<Phase>(*w, tops, w->open_loop()));
    Phase& replay = *phases.back();
    replay.calibrate = true;
    drive(replay);
    attempted += replay.ops.size();
    failed += replay.failed;
    if (replay.wrong != 0 || !replay.error.empty()) correct = false;
    const double untraced_host_per_op = ratio(1.0, host_rate(replay));
    const std::vector<double> untraced_lat = replay.lat_us;
    w->teardown(gates);
    phases.clear();
    w.reset();

    trace::TraceCollector col;
    w = make_workload(*def);
    w->setup(&col);
    phases.push_back(std::make_unique<Phase>(*w, tops, w->open_loop()));
    Phase& traced = *phases.back();
    traced.tracer = &col;
    traced.calibrate = true;
    col.set_enabled(true);
    drive(traced);
    col.set_enabled(false);
    attempted += traced.ops.size();
    failed += traced.failed;
    if (traced.wrong != 0 || !traced.error.empty()) correct = false;
    const AttrTotals at = attribute_roots(col, traced.roots);
    // Closure: one root per operation, the roots together span exactly the
    // operations' latencies, and the categories account for all of it.
    if (!at.closed || at.roots != traced.ops.size() || at.root_total != traced.lat_total) {
      correct = false;
      std::printf("  trace closure FAILED: roots=%zu spanning %lld ns for %lld ns of latency, "
                  "attributed %.0f ns\n", at.roots, static_cast<long long>(at.root_total),
                  static_cast<long long>(traced.lat_total), at.attributed_ns);
    }
    std::printf("  traced run: %zu roots, %zu spans (%.1f per op)\n", at.roots, at.spans,
                ratio(static_cast<double>(at.spans), static_cast<double>(at.roots)));
    for (int c : kReportedCategories) {
      const double ns = at.ns[static_cast<std::size_t>(c)];
      out.push_back({std::string("attr.") + category_slug(c) + "_pct", 100.0 * ratio(ns, at.root_ns), "%", ""});
      out.push_back({std::string("attr.") + category_slug(c) + "_us_per_op", ratio(ns / 1e3, static_cast<double>(at.roots)), "us", ""});
    }
    const double traced_host_per_op = ratio(1.0, host_rate(traced));
    out.push_back({"trace.host_overhead_pct", 100.0 * (ratio(traced_host_per_op, untraced_host_per_op) - 1.0), "%", "host"});
    out.push_back({"trace.virtual_shift_pct", 100.0 * (ratio(mean(traced.lat_us), mean(untraced_lat)) - 1.0), "%", "virtual"});
    w->teardown(gates);
    // The testbed's hosts point at `col`: destroy them while it is alive.
    phases.clear();
    w.reset();
  }

  phases.clear();
  w.reset();
  if (!gates.pools_balanced || !gates.no_live_tasks) correct = false;
  for (const std::string& note : gates.notes) std::printf("  gate: %s\n", note.c_str());
  print_result(correct, attempted, failed, out);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
