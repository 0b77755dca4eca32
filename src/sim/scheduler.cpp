#include "sim/scheduler.hpp"

#include <stdexcept>
#include <utility>

#include "sim/frame_pool.hpp"

namespace rpcoib::sim {

Scheduler::Scheduler() { pin_heap_policy(); }

Scheduler::~Scheduler() {
  // Pending callbacks are destroyed with the slab; anything their captures'
  // destructors try to schedule is dropped.
  terminated_ = true;
}

std::uint32_t Scheduler::alloc_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  if ((slots_used_ >> kChunkBits) == chunks_.size()) {
    chunks_.push_back(std::make_unique<Action[]>(std::size_t{1} << kChunkBits));
  }
  return slots_used_++;
}

void Scheduler::enqueue(Time t, std::uint32_t slot) {
  const std::uint64_t seq = seq_++;
  if (t <= now_) {
    ring_push(slot);  // due now (past times clamp to now)
  } else {
    heap_push(Key{t, seq, slot});
  }
}

void Scheduler::call_at(Time t, Callback fn) {
  if (terminated_) return;  // post-drain scheduling is ignored (see drain_tasks)
  const std::uint32_t slot = alloc_slot();
  action(slot).fn = std::move(fn);
  enqueue(t, slot);
}

void Scheduler::resume_at(Time t, std::coroutine_handle<> h) {
  if (terminated_) return;
  const std::uint32_t slot = alloc_slot();
  action(slot).h = h;
  enqueue(t, slot);
}

void Scheduler::ring_push(std::uint32_t slot) {
  if (ring_size_ == ring_.size()) {
    std::vector<std::uint32_t> grown(ring_.empty() ? 64 : ring_.size() * 2);
    for (std::size_t i = 0; i < ring_size_; ++i) {
      grown[i] = ring_[(ring_head_ + i) & (ring_.size() - 1)];
    }
    ring_ = std::move(grown);
    ring_head_ = 0;
  }
  ring_[(ring_head_ + ring_size_) & (ring_.size() - 1)] = slot;
  ++ring_size_;
}

void Scheduler::heap_push(Key k) {
  std::size_t i = heap_.size();
  heap_.push_back(k);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(k, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = k;
}

void Scheduler::heap_pop() {
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

bool Scheduler::pop_next(std::uint32_t& slot, Time& at) {
  if (!heap_.empty() && (heap_.front().at == now_ || ring_size_ == 0)) {
    slot = heap_.front().slot;
    at = heap_.front().at;
    heap_pop();
    return true;
  }
  if (ring_size_ == 0) return false;
  slot = ring_[ring_head_];
  ring_head_ = (ring_head_ + 1) & (ring_.size() - 1);
  --ring_size_;
  at = now_;
  return true;
}

bool Scheduler::step() {
  std::uint32_t slot = 0;
  Time at = 0;
  if (!pop_next(slot, at)) return false;
  now_ = at;
  ++processed_;
  Action& a = action(slot);
  if (a.h) {
    const std::coroutine_handle<> h = std::exchange(a.h, nullptr);
    free_slots_.push_back(slot);
    h.resume();
  } else {
    // Release the captures and the slot after the call, even if it throws.
    struct Release {
      Scheduler& s;
      std::uint32_t slot;
      ~Release() {
        s.action(slot).fn.reset();
        s.free_slots_.push_back(slot);
      }
    } release{*this, slot};
    a.fn();
  }
  if (failure_) {
    std::exception_ptr ex = std::exchange(failure_, nullptr);
    std::rethrow_exception(ex);
  }
  return true;
}

void Scheduler::run() {
  while (step()) {
  }
}

bool Scheduler::run_until(Time deadline) {
  while (!idle() && (ring_size_ != 0 ? now_ : heap_.front().at) < deadline) {
    step();
  }
  return !idle();
}

void Scheduler::report_failure(std::exception_ptr ex) {
  if (!failure_) failure_ = std::move(ex);
}

void Scheduler::drain_tasks() {
  terminated_ = true;
  // Destroy suspended task frames in spawn order. A frame's destructors
  // may unregister or spawn other tasks, so always take the current head.
  while (tasks_.next != &tasks_) {
    TaskLink& link = *tasks_.next;
    void* frame = link.frame;
    unregister_task(link);
    std::coroutine_handle<>::from_address(frame).destroy();
  }
  // Drop queued events in execution order, releasing their captures.
  std::uint32_t slot = 0;
  Time at = 0;
  while (pop_next(slot, at)) {
    Action& a = action(slot);
    a.h = nullptr;
    a.fn.reset();
    free_slots_.push_back(slot);
  }
}

}  // namespace rpcoib::sim
