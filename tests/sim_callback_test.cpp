// sim::Callback: the move-only, small-buffer event callable used by the
// scheduler and the fabric. Covers move-only captures, the heap path for
// captures over the inline size, std::function interop through the fabric,
// and release of captures held by events that never run.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>

#include "net/testbed.hpp"
#include "sim/callback.hpp"
#include "sim/scheduler.hpp"

namespace rpcoib::sim {
namespace {

TEST(Callback, MoveOnlyCapture) {
  Scheduler s;
  int got = 0;
  auto value = std::make_unique<int>(7);
  Callback cb([value = std::move(value), &got] { got = *value; });
  Callback moved(std::move(cb));
  EXPECT_FALSE(cb);
  ASSERT_TRUE(moved);
  moved();
  EXPECT_EQ(got, 7);

  s.call_after(micros(1), [owned = std::make_unique<int>(9), &got] { got = *owned; });
  s.run();
  EXPECT_EQ(got, 9);
}

TEST(Callback, CaptureOverInlineSizeTakesHeapPath) {
  std::array<std::uint64_t, 6> fits{1, 2, 3, 4, 5, 6};
  std::array<std::uint64_t, 7> spills{1, 2, 3, 4, 5, 6, 7};
  std::uint64_t sum = 0;
  auto small = [fits] { (void)fits; };
  auto big = [spills, &sum] {
    for (std::uint64_t v : spills) sum += v;
  };
  static_assert(sizeof(small) == Callback::kInlineBytes);
  static_assert(Callback::stores_inline<decltype(small)>);
  static_assert(sizeof(big) > Callback::kInlineBytes);
  static_assert(!Callback::stores_inline<decltype(big)>);

  auto token = std::make_shared<int>(0);
  Callback boxed([spills, &sum, token] {
    for (std::uint64_t v : spills) sum += v;
  });
  Callback moved = std::move(boxed);  // moves the box pointer, not the capture
  EXPECT_EQ(token.use_count(), 2);
  moved();
  EXPECT_EQ(sum, 28u);
  moved.reset();
  EXPECT_EQ(token.use_count(), 1);

  Scheduler s;
  s.call_at(3, big);
  s.run();
  EXPECT_EQ(sum, 56u);
}

TEST(Callback, StdFunctionForwardedThroughDeliverFlow) {
  Scheduler s;
  net::Testbed tb(s, net::Testbed::cluster_b());
  Time arrived = 0;
  int calls = 0;
  std::function<void()> on_arrival = [&] {
    arrived = s.now();
    ++calls;
  };
  Time flow_clock = 0;
  const Time due = tb.fabric().deliver_flow(0, 1, net::Transport::kIBVerbs, 256, flow_clock,
                                            on_arrival);
  EXPECT_TRUE(on_arrival);  // passed as an lvalue: copied, not consumed
  s.run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(arrived, due);
  EXPECT_EQ(flow_clock, due);
}

TEST(Callback, DrainReleasesCapturesOfEventsThatNeverRan) {
  Scheduler s;
  net::Testbed tb(s, net::Testbed::cluster_b());
  auto token = std::make_shared<int>(0);
  std::array<std::uint64_t, 8> pad{};
  s.call_at(0, [token] {});                     // ready ring, inline
  s.call_at(micros(50), [token] {});            // heap, inline
  s.call_at(micros(60), [token, pad] { (void)pad; });  // heap, boxed
  Time flow_clock = 0;
  tb.fabric().deliver_flow(0, 1, net::Transport::kIBVerbs, 64, flow_clock, [token] {});
  EXPECT_EQ(token.use_count(), 5);

  s.drain_tasks();
  EXPECT_EQ(token.use_count(), 1);
  // A terminated scheduler drops new callbacks (and their captures) at once.
  s.call_after(micros(1), [token] {});
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Callback, CapturesReleasedRightAfterTheEventRuns) {
  Scheduler s;
  auto token = std::make_shared<int>(0);
  long seen = 0;
  s.call_at(5, [token, &seen] { seen = token.use_count(); });
  s.call_at(6, [&] { seen += 100 * token.use_count(); });
  s.run();
  EXPECT_EQ(seen, 2 + 100 * 1);
}

}  // namespace
}  // namespace rpcoib::sim
