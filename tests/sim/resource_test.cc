#include "sim/resource.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/task.h"

namespace zstor::sim {
namespace {

// A FIFO resource (a NAND die, a channel, a lock) is a Semaphore held
// through Hold()'s guard. A single-slot one serializes its users: with N
// users each holding the slot for S ns, user i finishes at (i+1)*S.
TEST(FifoResource, SingleSlotSerializesUsers) {
  Simulator s;
  Semaphore r(s, 1);
  std::vector<Time> finish;
  auto user = [&]() -> Task<> {
    auto g = co_await r.Hold();
    co_await s.Delay(100);
    finish.push_back(s.now());
  };
  for (int i = 0; i < 4; ++i) Spawn(user());
  s.Run();
  ASSERT_EQ(finish.size(), 4u);
  EXPECT_EQ(finish, (std::vector<Time>{100, 200, 300, 400}));
}

TEST(FifoResource, MultiSlotAllowsParallelism) {
  Simulator s;
  Semaphore r(s, 3);
  std::vector<Time> finish;
  auto user = [&]() -> Task<> {
    auto g = co_await r.Hold();
    co_await s.Delay(100);
    finish.push_back(s.now());
  };
  for (int i = 0; i < 6; ++i) Spawn(user());
  s.Run();
  ASSERT_EQ(finish.size(), 6u);
  // First wave of 3 at t=100, second wave at t=200.
  EXPECT_EQ(finish, (std::vector<Time>{100, 100, 100, 200, 200, 200}));
}

TEST(FifoResource, GuardReleaseAllowsEarlyHandoff) {
  Simulator s;
  Semaphore r(s, 1);
  Time second_started = 0;
  auto first = [&]() -> Task<> {
    auto g = co_await r.Hold();
    co_await s.Delay(50);
    g.Release();          // give up the slot early
    co_await s.Delay(50);  // keep running without the slot
  };
  auto second = [&]() -> Task<> {
    co_await s.Delay(1);
    auto g = co_await r.Hold();
    second_started = s.now();
  };
  Spawn(first());
  Spawn(second());
  s.Run();
  EXPECT_EQ(second_started, 50u);
}

TEST(FifoResource, QueueLengthReflectsWaiters) {
  Simulator s;
  Semaphore r(s, 1);
  auto holder = [&]() -> Task<> {
    auto g = co_await r.Hold();
    co_await s.Delay(100);
  };
  auto waiter = [&]() -> Task<> {
    co_await s.Delay(1);
    auto g = co_await r.Hold();
  };
  Spawn(holder());
  Spawn(waiter());
  Spawn(waiter());
  s.RunUntil(10);
  EXPECT_EQ(r.available(), 0u);
  EXPECT_EQ(r.waiting(), 2u);
  s.Run();
  EXPECT_EQ(r.available(), 1u);
  EXPECT_EQ(r.waiting(), 0u);
}

// The key property for the ZNS firmware model: low-priority (background)
// waiters only get the server when no high-priority work is queued.
TEST(PriorityResource, HighPriorityBypassesQueuedBackgroundWork) {
  Simulator s;
  PriorityResource r(s);
  std::vector<char> order;
  auto bg = [&]() -> Task<> {
    co_await s.Delay(1);
    auto g = co_await r.Acquire(1);
    order.push_back('B');
    co_await s.Delay(10);
  };
  auto io = [&]() -> Task<> {
    co_await s.Delay(2);
    auto g = co_await r.Acquire(0);
    order.push_back('I');
    co_await s.Delay(10);
  };
  // Occupy the server first so both bg and io must queue.
  auto holder = [&]() -> Task<> {
    auto g = co_await r.Acquire(0);
    order.push_back('H');
    co_await s.Delay(100);
  };
  Spawn(holder());
  Spawn(bg());  // queues at t=1 (low prio)
  Spawn(io());  // queues at t=2 (high prio) — must run before bg
  s.Run();
  EXPECT_EQ(order, (std::vector<char>{'H', 'I', 'B'}));
}

TEST(PriorityResource, FifoWithinSamePriority) {
  Simulator s;
  PriorityResource r(s);
  std::vector<int> order;
  auto holder = [&]() -> Task<> {
    auto g = co_await r.Acquire(0);
    co_await s.Delay(100);
  };
  Spawn(holder());
  auto w = [&](int id) -> Task<> {
    co_await s.Delay(static_cast<Time>(1 + id));
    auto g = co_await r.Acquire(1);
    order.push_back(id);
  };
  for (int i = 0; i < 3; ++i) Spawn(w(i));
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(PriorityResource, BackgroundRunsWhenNoForegroundPending) {
  Simulator s;
  PriorityResource r(s);
  Time bg_ran_at = 0;
  auto bg = [&]() -> Task<> {
    auto g = co_await r.Acquire(1);
    bg_ran_at = s.now();
  };
  Spawn(bg());
  s.Run();
  EXPECT_EQ(bg_ran_at, 0u);  // nothing contended; ran immediately
}

// Background work sliced into small acquisitions lets foreground work
// interleave: the foreground's extra wait is bounded by one slice.
TEST(PriorityResource, SlicedBackgroundBoundsForegroundDelay) {
  Simulator s;
  PriorityResource r(s);
  constexpr Time kSlice = 5;
  bool bg_done = false;
  auto bg = [&]() -> Task<> {
    for (int i = 0; i < 100; ++i) {
      auto g = co_await r.Acquire(1);
      co_await s.Delay(kSlice);
    }
    bg_done = true;
  };
  Time io_latency = 0;
  auto io = [&]() -> Task<> {
    co_await s.Delay(17);  // arrive mid-slice
    Time start = s.now();
    auto g = co_await r.Acquire(0);
    io_latency = s.now() - start;
  };
  Spawn(bg());
  Spawn(io());
  s.Run();
  EXPECT_TRUE(bg_done);
  EXPECT_LE(io_latency, kSlice);  // waited at most one background slice
}

}  // namespace
}  // namespace zstor::sim
