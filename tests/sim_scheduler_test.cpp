// Unit tests for the discrete-event core: virtual time, task spawning,
// joining, channels, sync primitives, determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "sim/channel.hpp"
#include "sim/frame_pool.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace rpcoib::sim {
namespace {

Task sleeper(Scheduler& s, Dur d, std::vector<int>& log, int id) {
  co_await delay(s, d);
  log.push_back(id);
}

TEST(Scheduler, EventsRunInTimeOrder) {
  Scheduler s;
  std::vector<int> log;
  s.spawn(sleeper(s, micros(30), log, 3));
  s.spawn(sleeper(s, micros(10), log, 1));
  s.spawn(sleeper(s, micros(20), log, 2));
  s.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), micros(30));
}

TEST(Scheduler, SameTimeEventsAreFifo) {
  Scheduler s;
  std::vector<int> log;
  for (int i = 0; i < 5; ++i) s.spawn(sleeper(s, micros(10), log, i));
  s.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, CallbacksInPastClampToNow) {
  Scheduler s;
  bool ran = false;
  s.call_after(micros(5), [&] {
    s.call_at(0, [&] { ran = true; });  // in the past
  });
  s.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.now(), micros(5));
}

Task sleeper_sets(Scheduler& s, bool& flag) {
  co_await delay(s, micros(100));
  flag = true;
}

Task joins_child(Scheduler& s, bool& child_done, bool& parent_saw) {
  JoinHandle child = s.spawn(sleeper_sets(s, child_done));
  co_await child;
  parent_saw = child_done;
}

TEST(Task, JoinWaitsForCompletion) {
  Scheduler s;
  bool child_done = false, parent_saw = false;
  s.spawn(joins_child(s, child_done, parent_saw));
  s.run();
  EXPECT_TRUE(child_done);
  EXPECT_TRUE(parent_saw);
}

Task thrower(Scheduler& s) {
  co_await delay(s, micros(1));
  throw std::runtime_error("boom");
}

TEST(Task, UnjoinedExceptionPropagatesToRun) {
  Scheduler s;
  s.spawn(thrower(s));
  EXPECT_THROW(s.run(), std::runtime_error);
}

Task catcher(Scheduler& s, bool& caught) {
  JoinHandle h = s.spawn(thrower(s));
  try {
    co_await h;
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(Task, JoinedExceptionRethrownAtJoin) {
  Scheduler s;
  bool caught = false;
  s.spawn(catcher(s, caught));
  s.run();
  EXPECT_TRUE(caught);
}

Co<int> add_later(Scheduler& s, int a, int b) {
  co_await delay(s, micros(7));
  co_return a + b;
}

Co<int> add_twice(Scheduler& s, int a) {
  const int x = co_await add_later(s, a, 1);
  const int y = co_await add_later(s, x, 10);
  co_return y;
}

Task nested_driver(Scheduler& s, int& out) {
  out = co_await add_twice(s, 5);
}

TEST(Co, NestedAwaitablesComposeAndReturnValues) {
  Scheduler s;
  int out = 0;
  s.spawn(nested_driver(s, out));
  s.run();
  EXPECT_EQ(out, 16);
  EXPECT_EQ(s.now(), micros(14));
}

Co<int> co_thrower(Scheduler& s) {
  co_await delay(s, micros(1));
  throw std::logic_error("inner");
}

Task co_catch_driver(Scheduler& s, bool& caught) {
  try {
    (void)co_await co_thrower(s);
  } catch (const std::logic_error&) {
    caught = true;
  }
}

TEST(Co, ExceptionsPropagateThroughAwait) {
  Scheduler s;
  bool caught = false;
  s.spawn(co_catch_driver(s, caught));
  s.run();
  EXPECT_TRUE(caught);
}

Task producer(Scheduler& s, Channel<int>& ch, int n) {
  for (int i = 0; i < n; ++i) {
    co_await delay(s, micros(10));
    ch.push(i);
  }
  ch.close();
}

Task consumer(Scheduler& s, Channel<int>& ch, std::vector<int>& got) {
  (void)s;
  try {
    for (;;) got.push_back(co_await ch.recv());
  } catch (const ChannelClosed&) {
  }
}

TEST(Channel, DeliversInOrderAndSignalsClose) {
  Scheduler s;
  Channel<int> ch(s);
  std::vector<int> got;
  s.spawn(consumer(s, ch, got));
  s.spawn(producer(s, ch, 4));
  s.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Channel, TryRecvNonBlocking) {
  Scheduler s;
  Channel<int> ch(s);
  int v = -1;
  EXPECT_FALSE(ch.try_recv(v));
  ch.push(42);
  EXPECT_TRUE(ch.try_recv(v));
  EXPECT_EQ(v, 42);
}

Task worker_with_sem(Scheduler& s, Semaphore& sem, int& concurrent, int& peak) {
  co_await sem.acquire();
  ++concurrent;
  peak = std::max(peak, concurrent);
  co_await delay(s, micros(50));
  --concurrent;
  sem.release();
}

TEST(Semaphore, BoundsConcurrency) {
  Scheduler s;
  Semaphore sem(s, 2);
  int concurrent = 0, peak = 0;
  for (int i = 0; i < 6; ++i) s.spawn(worker_with_sem(s, sem, concurrent, peak));
  s.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(concurrent, 0);
  // 6 workers, 2 at a time, 50us each => 150us.
  EXPECT_EQ(s.now(), micros(150));
}

Task event_waiter(Scheduler& s, SimEvent& ev, Time& woke) {
  (void)s;
  co_await ev.wait();
  woke = s.now();
}

Task event_setter(Scheduler& s, SimEvent& ev) {
  co_await delay(s, micros(33));
  ev.set();
}

TEST(SimEvent, WakesAllWaitersAtSetTime) {
  Scheduler s;
  SimEvent ev(s);
  Time w1 = 0, w2 = 0;
  s.spawn(event_waiter(s, ev, w1));
  s.spawn(event_waiter(s, ev, w2));
  s.spawn(event_setter(s, ev));
  s.run();
  EXPECT_EQ(w1, micros(33));
  EXPECT_EQ(w2, micros(33));
}

Task wg_member(Scheduler& s, WaitGroup& wg, Dur d) {
  co_await delay(s, d);
  wg.done();
}

Task wg_waiter(Scheduler& s, WaitGroup& wg, Time& done_at) {
  (void)s;
  co_await wg.wait();
  done_at = s.now();
}

TEST(WaitGroup, WaitsForAllMembers) {
  Scheduler s;
  WaitGroup wg(s);
  Time done_at = 0;
  wg.add(3);
  s.spawn(wg_member(s, wg, micros(10)));
  s.spawn(wg_member(s, wg, micros(99)));
  s.spawn(wg_member(s, wg, micros(50)));
  s.spawn(wg_waiter(s, wg, done_at));
  s.run();
  EXPECT_EQ(done_at, micros(99));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(1234), b(1234);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformBoundsRespected) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.next_below(17);
    EXPECT_LT(v, 17u);
  }
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Zipfian, SkewsTowardLowKeys) {
  Rng r(42);
  ZipfianGenerator z(1000, 0.99);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) ++counts[z.next(r)];
  // Key 0 must be far more popular than the median key.
  EXPECT_GT(counts[0], 20 * counts[500] + 1);
  int total = 0;
  for (int c : counts) total += c;
  EXPECT_EQ(total, 100000);
}

// Determinism: two identical simulations produce identical event traces.
Task noisy(Scheduler& s, Rng& rng, std::vector<Time>& trace, Channel<int>& ch, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await delay(s, rng.next_below(100) + 1);
    trace.push_back(s.now());
    ch.push(i);
    (void)co_await ch.recv();
  }
}

TEST(Determinism, IdenticalSeedsIdenticalTraces) {
  auto run_once = [](std::uint64_t seed) {
    Scheduler s;
    Rng rng(seed);
    Channel<int> ch(s);
    std::vector<Time> trace;
    for (int i = 0; i < 4; ++i) s.spawn(noisy(s, rng, trace, ch, 25));
    s.run();
    return trace;
  };
  EXPECT_EQ(run_once(99), run_once(99));
  EXPECT_NE(run_once(99), run_once(100));
}

// ---- Event-queue order against a reference model --------------------------

/// Mirrors every scheduling call into a reference queue ordered by
/// (at, seq), the scheduler's documented order, and checks at every event
/// that the scheduler runs exactly the reference's next event.
class OrderModel {
 public:
  explicit OrderModel(Scheduler& s) : s_(s) {}

  /// Call right before scheduling one event for `t`; returns its id.
  int expect(Time t) {
    const int id = next_id_++;
    ref_.insert({std::max(t, s_.now()), seq_++, id});
    return id;
  }

  /// Call from event `id` when it runs.
  void ran(int id) {
    ASSERT_FALSE(ref_.empty()) << "event " << id << " ran but none was expected";
    const auto [at, seq, want] = *ref_.begin();
    ref_.erase(ref_.begin());
    EXPECT_EQ(id, want) << "at t=" << s_.now();
    EXPECT_EQ(s_.now(), at) << "event " << id;
    order_.push_back(id);
  }

  bool drained() const { return ref_.empty(); }
  int scheduled() const { return next_id_; }
  const std::vector<int>& order() const { return order_; }

 private:
  Scheduler& s_;
  std::set<std::tuple<Time, std::uint64_t, int>> ref_;
  std::uint64_t seq_ = 0;
  int next_id_ = 0;
  std::vector<int> order_;
};

/// Seeded random workload: every event schedules up to three more, mixing
/// call_at in the past / now / future with coroutine resume_at, post and
/// spawn_after. Future times come from a coarse grid, so heap events due
/// at the current time are routinely pending while same-time work is
/// added behind them.
class OrderFuzz {
 public:
  OrderFuzz(Scheduler& s, std::uint64_t seed, int budget)
      : s_(s), rng_(seed), model_(s), budget_(budget) {}

  void start() {
    for (int i = 0; i < 4; ++i) schedule_one();
  }

  /// Body shared by every event: schedule 0-3 follow-ups.
  void act() {
    const std::uint64_t n = rng_.next_below(4);
    for (std::uint64_t i = 0; i < n; ++i) schedule_one();
  }

  Time pick_time() {
    const Time now = s_.now();
    switch (rng_.next_below(5)) {
      case 0: return now > 3 ? now - 3 : 0;  // past: clamps to now
      case 1: return now;
      default: return now + 1 + rng_.next_below(3);
    }
  }

  /// Suspends its coroutine at `t` (resume_at) or now (post), recording
  /// the wake in the model first.
  struct Wake {
    OrderFuzz& f;
    bool use_post;
    Time t;
    int id = -1;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      if (use_post) {
        id = f.model_.expect(f.s_.now());
        f.s_.post(h);
      } else {
        id = f.model_.expect(t);
        f.s_.resume_at(t, h);
      }
    }
    int await_resume() const noexcept { return id; }
  };

  static Task proc(OrderFuzz& f, int first_id, int wakes) {
    f.model_.ran(first_id);
    f.act();
    for (int i = 0; i < wakes && f.budget_ > 0; ++i) {
      --f.budget_;
      const bool use_post = f.rng_.next_below(2) == 0;
      const Time t = f.pick_time();
      const int id = co_await Wake{f, use_post, t};
      f.model_.ran(id);
      f.act();
    }
  }

  void schedule_one() {
    if (budget_ <= 0) return;
    --budget_;
    if (rng_.next_below(3) != 0) {
      const Time t = pick_time();
      const int id = model_.expect(t);
      s_.call_at(t, [this, id] {
        model_.ran(id);
        act();
      });
    } else {
      const Dur d = rng_.next_below(3);
      const int id = model_.expect(s_.now() + d);
      s_.spawn_after(d, proc(*this, id, static_cast<int>(rng_.next_below(4))));
    }
  }

  const OrderModel& model() const { return model_; }

 private:
  Scheduler& s_;
  Rng rng_;
  OrderModel model_;
  int budget_;
};

TEST(SchedulerOrder, RandomMixMatchesReferenceModel) {
  for (std::uint64_t seed : {1u, 2u, 3u, 42u}) {
    Scheduler s;
    OrderFuzz fuzz(s, seed, 4000);
    fuzz.start();
    s.run();
    EXPECT_TRUE(fuzz.model().drained()) << "seed " << seed;
    EXPECT_EQ(static_cast<int>(fuzz.model().order().size()), fuzz.model().scheduled());
    EXPECT_EQ(s.events_processed(), fuzz.model().order().size()) << "seed " << seed;
    EXPECT_EQ(s.live_task_count(), 0u);
  }
}

TEST(SchedulerOrder, SameSeedSameOrder) {
  auto order = [](std::uint64_t seed) {
    Scheduler s;
    OrderFuzz fuzz(s, seed, 2000);
    fuzz.start();
    s.run();
    return fuzz.model().order();
  };
  EXPECT_EQ(order(7), order(7));
}

TEST(SchedulerOrder, HeapEventsDueNowRunBeforeSameTimeWork) {
  Scheduler s;
  std::vector<std::string> log;
  s.call_at(10, [&] {
    log.push_back("a");
    // Scheduled at t=10 while b and c (also due at 10) are still queued:
    // it must run after them.
    s.call_at(s.now(), [&] { log.push_back("a-now"); });
    s.call_at(0, [&] { log.push_back("a-past"); });
  });
  s.call_at(10, [&] { log.push_back("b"); });
  s.call_at(10, [&] {
    log.push_back("c");
    s.call_at(s.now(), [&] { log.push_back("c-now"); });
  });
  s.call_at(11, [&] { log.push_back("d"); });
  s.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "c", "a-now", "a-past", "c-now", "d"}));
  EXPECT_EQ(s.events_processed(), 7u);
}

TEST(SchedulerOrder, RunUntilIsExclusiveAcrossReadyRingAndHeap) {
  Scheduler s;
  std::vector<std::string> log;
  s.call_at(5, [&] {
    log.push_back("a");
    s.call_at(s.now(), [&] { log.push_back("ring"); });
    s.call_at(6, [&] { log.push_back("heap"); });
  });
  ASSERT_TRUE(s.step());  // runs a at t=5; "ring" is now due at t=5
  EXPECT_TRUE(s.run_until(5));  // the ready ring is due at 5, not before
  EXPECT_EQ(log, (std::vector<std::string>{"a"}));
  EXPECT_TRUE(s.run_until(6));  // ring runs; the heap event at 6 does not
  EXPECT_EQ(log, (std::vector<std::string>{"a", "ring"}));
  EXPECT_EQ(s.now(), 5u);
  EXPECT_FALSE(s.run_until(7));
  EXPECT_EQ(log, (std::vector<std::string>{"a", "ring", "heap"}));
  EXPECT_EQ(s.events_processed(), 3u);
}

Task parked(Scheduler& s) { co_await delay(s, micros(1)); }

TEST(SchedulerOrder, TerminatedSchedulerIgnoresReadyRingAndHeap) {
  Scheduler s;
  int ran = 0;
  s.call_at(0, [&] { ++ran; });
  s.call_at(10, [&] { ++ran; });
  s.drain_tasks();
  EXPECT_TRUE(s.idle());
  s.call_at(s.now(), [&] { ++ran; });      // ready-ring path
  s.call_after(micros(5), [&] { ++ran; });  // heap path
  s.spawn(parked(s));                       // post
  s.spawn_after(micros(2), parked(s));      // resume_at
  EXPECT_TRUE(s.idle());
  EXPECT_FALSE(s.step());
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(s.events_processed(), 0u);
  s.drain_tasks();  // frees the two never-started frames
  EXPECT_EQ(s.live_task_count(), 0u);
}

// ---- Coroutine frame pool --------------------------------------------------

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAsanBuild = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kAsanBuild = true;
#else
constexpr bool kAsanBuild = false;
#endif
#else
constexpr bool kAsanBuild = false;
#endif

/// Yields the address of the awaiting coroutine's frame without suspending.
struct FrameAddress {
  void* addr = nullptr;
  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) noexcept {
    addr = h.address();
    return false;
  }
  void* await_resume() const noexcept { return addr; }
};

Co<void*> frame_of_call() { co_return co_await FrameAddress{}; }

Task two_calls(void*& first, void*& second) {
  first = co_await frame_of_call();
  second = co_await frame_of_call();  // the first frame is freed by now
}

TEST(FramePool, FreedFrameIsReusedByNextFrameOfItsClass) {
  EXPECT_EQ(frame_pool::kEnabled, !kAsanBuild);
  Scheduler s;
  void* first = nullptr;
  void* second = nullptr;
  s.spawn(two_calls(first, second));
  s.run();
  ASSERT_NE(first, nullptr);
  if (frame_pool::kEnabled) {
    EXPECT_EQ(first, second);
    // Any size in the same 64-byte class takes the freed block; another
    // class does not.
    void* a = frame_pool::allocate(130);
    frame_pool::deallocate(a, 130);
    void* b = frame_pool::allocate(192);
    EXPECT_EQ(a, b);
    void* c = frame_pool::allocate(100);
    EXPECT_NE(b, c);
    frame_pool::deallocate(b, 192);
    frame_pool::deallocate(c, 100);
  } else {
    // Under ASan frames come straight from the heap: a freed frame sits in
    // quarantine, so a use after free would be reported.
    EXPECT_NE(first, second);
  }
}

}  // namespace
}  // namespace rpcoib::sim
