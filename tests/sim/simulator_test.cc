#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace zstor::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0u);
  EXPECT_TRUE(s.idle());
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.ScheduleIn(30, [&] { order.push_back(3); });
  s.ScheduleIn(10, [&] { order.push_back(1); });
  s.ScheduleIn(20, [&] { order.push_back(2); });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30u);
}

TEST(Simulator, SameTimeEventsRunFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.ScheduleIn(100, [&, i] { order.push_back(i); });
  }
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator s;
  int fired = 0;
  s.ScheduleIn(1, [&] {
    ++fired;
    s.ScheduleIn(1, [&] {
      ++fired;
      s.ScheduleIn(1, [&] { ++fired; });
    });
  });
  s.Run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(s.now(), 3u);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator s;
  int fired = 0;
  s.ScheduleIn(10, [&] { ++fired; });
  s.ScheduleIn(20, [&] { ++fired; });
  s.ScheduleIn(30, [&] { ++fired; });
  s.RunUntil(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), 20u);
  s.RunUntil(25);  // no events in (20, 25]; clock still advances
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), 25u);
  s.Run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunReturnsEventCount) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.ScheduleIn(static_cast<Time>(i), [] {});
  EXPECT_EQ(s.Run(), 7u);
}

TEST(Simulator, ZeroDelayEventRunsAtCurrentTime) {
  Simulator s;
  Time seen = 12345;
  s.ScheduleIn(50, [&] { s.ScheduleIn(0, [&] { seen = s.now(); }); });
  s.Run();
  EXPECT_EQ(seen, 50u);
}

// Same-timestamp events stay FIFO even when they land in different
// containers: events scheduled for a future time wait in the timed heap,
// while zero-delay events scheduled *at* that time go through the ready
// ring. The global sequence number must still order them.
TEST(Simulator, FifoHoldsAcrossReadyRingAndHeap) {
  Simulator s;
  std::vector<int> order;
  s.ScheduleIn(100, [&] {
    order.push_back(0);
    s.ScheduleIn(0, [&] { order.push_back(2); });    // ready ring
    s.ScheduleAt(100, [&] { order.push_back(3); });  // ring (at now)
    s.ScheduleIn(0, [&] {
      order.push_back(4);
      s.ScheduleIn(0, [&] { order.push_back(5); });
    });
  });
  s.ScheduleIn(100, [&] { order.push_back(1); });  // heap, earlier seq
  s.Run();
  // The heap-resident [1] must run before the ready-ring [2..] pushed
  // after it, even though the ring normally bypasses the heap.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(s.now(), 100u);
}

TEST(Simulator, FifoSurvivesReadyRingGrowth) {
  Simulator s;
  std::vector<int> order;
  s.ScheduleIn(5, [&] {
    // Far more zero-delay events than the ring's initial capacity, so
    // it grows (and relocates pending events) mid-burst.
    for (int i = 0; i < 100; ++i) {
      s.ScheduleIn(0, [&, i] { order.push_back(i); });
    }
  });
  s.Run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, RunUntilFiresEventExactlyAtBoundary) {
  Simulator s;
  bool fired = false;
  s.ScheduleAt(20, [&] { fired = true; });
  s.RunUntil(20);  // when == until is inclusive
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.now(), 20u);
}

TEST(Simulator, QuietUntilIsNowWhileASameTimeEventIsReady) {
  Simulator s;
  Time seen = 0;
  s.ScheduleAt(40, [] {});
  s.ScheduleIn(10, [&] {
    s.ScheduleIn(0, [] {});  // ready at now: it may run before any wake
    seen = s.quiet_until();
  });
  s.Run();
  EXPECT_EQ(seen, 10u);
}

TEST(Simulator, QuietUntilIsTheHeapMinimumUnderRun) {
  Simulator s;
  Time with_next = 0;
  Time alone = 0;
  s.ScheduleAt(10, [&] { with_next = s.quiet_until(); });
  s.ScheduleAt(70, [&] { alone = s.quiet_until(); });
  s.Run();
  EXPECT_EQ(with_next, 70u);
  EXPECT_EQ(alone, kNever);  // nothing pending and no RunUntil bound
}

TEST(Simulator, QuietUntilIsCappedByTheRunUntilBound) {
  Simulator s;
  std::vector<Time> seen;
  s.ScheduleAt(10, [&] { seen.push_back(s.quiet_until()); });
  s.ScheduleAt(500, [&] { seen.push_back(s.quiet_until()); });
  s.ScheduleAt(900, [] {});
  s.RunUntil(100);  // the heap minimum (500) lies past the bound
  s.RunUntil(600);  // now the heap minimum (900) does
  s.ScheduleAt(650, [&] { seen.push_back(s.quiet_until()); });
  s.Run();          // the bound is lifted again
  EXPECT_EQ(seen, (std::vector<Time>{100, 600, 900}));
  // Outside an event, too: after Run() nothing bounds an empty heap.
  EXPECT_EQ(s.quiet_until(), kNever);
}

TEST(SimulatorDeathTest, SchedulingIntoThePastAborts) {
  Simulator s;
  s.ScheduleIn(100, [&] {
    EXPECT_DEATH(s.ScheduleAt(50, [] {}), "scheduling into the past");
  });
  s.Run();
}

TEST(TimeHelpers, ConversionsRoundTrip) {
  EXPECT_EQ(Microseconds(11.36), 11360u);
  EXPECT_EQ(Milliseconds(16.19), 16190000u);
  EXPECT_EQ(Seconds(2), 2'000'000'000u);
  EXPECT_DOUBLE_EQ(ToMicroseconds(11360), 11.36);
  EXPECT_DOUBLE_EQ(ToMilliseconds(16190000), 16.19);
  EXPECT_DOUBLE_EQ(ToSeconds(kSecond), 1.0);
}

}  // namespace
}  // namespace zstor::sim
