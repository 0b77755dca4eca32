// A simulated compute node.
//
// Matches the paper's testbed nodes: dual quad-core Xeon (8 cores), one HCA
// per network. Simulated Java threads occupy cores through `compute()`;
// anything CPU-bound therefore queues when all cores are busy, which is
// what produces handler saturation in the Fig. 5(b) throughput curves.
#pragma once

#include <algorithm>
#include <coroutine>
#include <deque>
#include <string>
#include <utility>

#include "cluster/cost_model.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace rpcoib::trace {
class TraceCollector;
}  // namespace rpcoib::trace

namespace rpcoib::cluster {

/// Index of a host within its cluster.
using HostId = int;

class Host {
 public:
  Host(sim::Scheduler& sched, HostId id, std::string name, int cores, CostModel cost,
       sim::Rng rng)
      : sched_(sched),
        id_(id),
        name_(std::move(name)),
        cost_(cost),
        rng_(rng),
        free_cores_(cores) {}

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  sim::Scheduler& sched() const { return sched_; }
  HostId id() const { return id_; }
  const std::string& name() const { return name_; }
  const CostModel& cost() const { return cost_; }
  sim::Rng& rng() { return rng_; }

  /// Tracing sink for everything running on this host (null = untraced).
  trace::TraceCollector* tracer() const { return tracer_; }
  void set_tracer(trace::TraceCollector* t) { tracer_ = t; }

  /// `co_await compute(d)`: occupy one CPU core for `d` of virtual time,
  /// queueing FIFO while all cores are busy. Zero-duration charges return
  /// immediately without touching the cores. A plain awaiter, so a charge
  /// allocates no coroutine frame; the schedule is that of a counting
  /// semaphore plus a delay (DESIGN.md "Frame-free waits"): a free core
  /// starts the delay at once; a release hands its core to the head
  /// waiter, whose grant runs as a same-time event and schedules the delay
  /// from there; at expiry the core is released before the caller
  /// continues.
  struct ComputeAwaiter {
    Host& host;
    sim::Dur d;
    bool await_ready() const noexcept { return d == 0; }
    void await_suspend(std::coroutine_handle<> caller) {
      if (host.free_cores_ > 0) {
        --host.free_cores_;
        host.sched_.resume_after(d, caller);
      } else {
        host.core_waiters_.push_back(CoreWaiter{caller, d});
      }
    }
    void await_resume() const {
      if (d > 0) host.release_core();
    }
  };
  ComputeAwaiter compute(sim::Dur d) { return ComputeAwaiter{*this, d}; }

  /// Simulated disk: sequential bandwidth of the testbed's single HDD.
  sim::Dur disk_time(std::size_t bytes) const {
    return sim::from_us(static_cast<double>(bytes) / disk_bw_gbps_ / 1000.0);
  }
  void set_disk_bw_gbps(double v) { disk_bw_gbps_ = v; }

  /// Serialized disk access: reads and writes share the single spindle,
  /// so concurrent tasks' I/O queues (the dominant contention in the
  /// paper's Sort runs with 12 task slots per node and one HDD).
  sim::Co<void> disk_io(std::size_t bytes) {
    const sim::Time start = std::max(sched_.now(), disk_free_);
    const sim::Time done = start + disk_time(bytes);
    disk_free_ = done;
    co_await sim::delay(sched_, done - sched_.now());
  }

 private:
  struct CoreWaiter {
    std::coroutine_handle<> h;
    sim::Dur d;
  };

  /// A finishing charge's core goes to the head waiter, reserved now so a
  /// same-time charge cannot take it before the grant runs.
  void release_core() {
    if (core_waiters_.empty()) {
      ++free_cores_;
      return;
    }
    const CoreWaiter w = core_waiters_.front();
    core_waiters_.pop_front();
    sched_.call_at(sched_.now(), [this, w] { sched_.resume_after(w.d, w.h); });
  }

  sim::Scheduler& sched_;
  HostId id_;
  std::string name_;
  CostModel cost_;
  sim::Rng rng_;
  int free_cores_;
  std::deque<CoreWaiter> core_waiters_;
  trace::TraceCollector* tracer_ = nullptr;
  double disk_bw_gbps_ = 0.11;  // ~110 MB/s HDD, per the testbed's single disk
  sim::Time disk_free_ = 0;
};

}  // namespace rpcoib::cluster
