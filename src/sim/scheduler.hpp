// Discrete-event scheduler: the single source of virtual time.
//
// Every simulated Hadoop thread (caller, Connection, Listener, Reader,
// Handler, Responder, heartbeat loop, ...) is a coroutine whose suspension
// points are registered here. Events at equal timestamps run in FIFO order
// of insertion, which makes whole-cluster runs bit-for-bit deterministic.
//
// Event queue. Each pending event occupies a slot of a chunked slab (a
// coroutine handle to resume or a sim::Callback) recycled through a free
// list, so scheduling does not allocate once the slab has grown. Future
// events are {at, seq, slot} keys in a 4-ary min-heap; events due at or
// before now() skip the heap and go to a FIFO ready ring. Execution order
// is exactly (at, seq): a heap event due at now() was inserted before the
// clock reached now(), so it precedes every ready-ring entry, and step()
// takes heap-due-now first, then the ring, then advances the clock.
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace rpcoib::sim {

class Task;
class JoinHandle;

class Scheduler {
 public:
  Scheduler();
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current virtual time.
  Time now() const { return now_; }

  /// Schedule an arbitrary callback at absolute virtual time `t`
  /// (clamped to `now()` if in the past).
  void call_at(Time t, Callback fn);

  /// Schedule a callback after `d` has elapsed.
  void call_after(Dur d, Callback fn) { call_at(now_ + d, std::move(fn)); }

  /// Resume a suspended coroutine at absolute time `t`.
  void resume_at(Time t, std::coroutine_handle<> h);

  /// Resume a suspended coroutine after `d`.
  void resume_after(Dur d, std::coroutine_handle<> h) { resume_at(now_ + d, h); }

  /// Resume a suspended coroutine at the current time (after already-queued
  /// same-time events).
  void post(std::coroutine_handle<> h) { resume_at(now_, h); }

  /// Launch a top-level simulated process. The coroutine starts at the
  /// current virtual time; its frame is destroyed automatically when it
  /// finishes. The returned handle can be co_awaited to join.
  JoinHandle spawn(Task task);

  /// Launch a process at a future time.
  JoinHandle spawn_after(Dur d, Task task);

  /// Run until no events remain. Rethrows the first exception that escaped
  /// any spawned process.
  void run();

  /// Run until virtual time reaches `deadline` (exclusive) or the queue
  /// drains. Returns true if events remain.
  bool run_until(Time deadline);

  /// Process a single event. Returns false if the queue was empty.
  bool step();

  std::uint64_t events_processed() const { return processed_; }
  bool idle() const { return heap_.empty() && ring_size_ == 0; }

  /// Called by the Task machinery when a detached process dies with an
  /// uncaught exception. The first failure aborts `run()`.
  void report_failure(std::exception_ptr ex);

  /// Terminal teardown: destroy the frames of all still-suspended
  /// top-level tasks (e.g. server loops blocked on an accept channel),
  /// drop queued events, and put the scheduler in a terminated state in
  /// which further scheduling is ignored — destructors running afterwards
  /// may still try to wake waiters whose frames are now gone. Call only
  /// when the simulation is finished, while the objects those tasks
  /// reference are still alive; use a fresh Scheduler per experiment.
  void drain_tasks();

  bool terminated() const { return terminated_; }

  /// Task-frame registry node, embedded in every Task promise so that
  /// registering a spawned task does not allocate.
  struct TaskLink {
    TaskLink* prev = nullptr;
    TaskLink* next = nullptr;
    void* frame = nullptr;
  };

  // Task-frame registry (managed by Task/spawn machinery).
  void register_task(TaskLink& link, void* frame) {
    link.frame = frame;
    link.prev = tasks_.prev;
    link.next = &tasks_;
    tasks_.prev->next = &link;
    tasks_.prev = &link;
    ++live_tasks_;
  }
  void unregister_task(TaskLink& link) {
    link.prev->next = link.next;
    link.next->prev = link.prev;
    --live_tasks_;
  }
  std::size_t live_task_count() const { return live_tasks_; }

 private:
  /// A pending event: resume `h` if set, otherwise run `fn`.
  struct Action {
    std::coroutine_handle<> h;
    Callback fn;
  };
  struct Key {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static bool before(const Key& a, const Key& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  static constexpr std::uint32_t kChunkBits = 8;  // 256 slots per slab chunk
  Action& action(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & ((1u << kChunkBits) - 1)];
  }
  std::uint32_t alloc_slot();
  void enqueue(Time t, std::uint32_t slot);
  /// Remove the next event in (at, seq) order; false if none remain.
  bool pop_next(std::uint32_t& slot, Time& at);
  void heap_push(Key k);
  void heap_pop();
  void ring_push(std::uint32_t slot);

  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  // Slab chunks never move, so an action stays put while it runs even if
  // it schedules enough new events to grow the slab.
  std::vector<std::unique_ptr<Action[]>> chunks_;
  std::uint32_t slots_used_ = 0;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Key> heap_;
  // Ready ring: power-of-two circular buffer of slots due at now().
  std::vector<std::uint32_t> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_size_ = 0;
  std::exception_ptr failure_;
  TaskLink tasks_{&tasks_, &tasks_, nullptr};  // sentinel; live tasks in spawn order
  std::size_t live_tasks_ = 0;
  bool terminated_ = false;
};

/// Awaitable that suspends the current coroutine for `d` of virtual time.
/// Usage: `co_await delay(sched, micros(10));`
struct DelayAwaiter {
  Scheduler& sched;
  Dur d;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const { sched.resume_after(d, h); }
  void await_resume() const noexcept {}
};

inline DelayAwaiter delay(Scheduler& sched, Dur d) { return {sched, d}; }

/// Yield to other same-time events, then continue.
inline DelayAwaiter yield(Scheduler& sched) { return {sched, 0}; }

}  // namespace rpcoib::sim
