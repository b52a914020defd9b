#include "sim/sync.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/task.h"

namespace zstor::sim {
namespace {

TEST(Semaphore, AcquireSucceedsWhenUnitsAvailable) {
  Simulator s;
  Semaphore sem(s, 2);
  int acquired = 0;
  auto worker = [&]() -> Task<> {
    co_await sem.Acquire();
    ++acquired;
  };
  Spawn(worker());
  Spawn(worker());
  s.Run();
  EXPECT_EQ(acquired, 2);
  EXPECT_EQ(sem.available(), 0u);
}

TEST(Semaphore, ThirdAcquirerWaitsForRelease) {
  Simulator s;
  Semaphore sem(s, 1);
  std::vector<int> order;
  auto holder = [&]() -> Task<> {
    co_await sem.Acquire();
    order.push_back(1);
    co_await s.Delay(100);
    order.push_back(2);
    sem.Release();
  };
  auto waiter = [&]() -> Task<> {
    co_await s.Delay(1);  // ensure holder acquires first
    co_await sem.Acquire();
    order.push_back(3);
    sem.Release();
  };
  Spawn(holder());
  Spawn(waiter());
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sem.available(), 1u);
}

TEST(Semaphore, WaitersWakeInFifoOrder) {
  Simulator s;
  Semaphore sem(s, 0);
  std::vector<int> order;
  auto w = [&](int id) -> Task<> {
    co_await s.Delay(static_cast<Time>(id));  // stagger arrival
    co_await sem.Acquire();
    order.push_back(id);
  };
  for (int i = 0; i < 4; ++i) Spawn(w(i));
  s.ScheduleIn(100, [&] {
    for (int i = 0; i < 4; ++i) sem.Release();
  });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(WaitGroup, WaitReturnsImmediatelyWhenCountZero) {
  Simulator s;
  WaitGroup wg(s);
  bool joined = false;
  auto j = [&]() -> Task<> {
    co_await wg.Wait();
    joined = true;
  };
  Spawn(j());
  EXPECT_TRUE(joined);  // no suspension needed
  s.Run();
}

TEST(WaitGroup, JoinsAllWorkers) {
  Simulator s;
  WaitGroup wg(s);
  int finished = 0;
  Time joined_at = 0;
  auto w = [&](Time d) -> Task<> {
    co_await s.Delay(d);
    ++finished;
    wg.Done();
  };
  for (int i = 1; i <= 3; ++i) {
    wg.Add();
    Spawn(w(static_cast<Time>(i * 10)));
  }
  auto joiner = [&]() -> Task<> {
    co_await wg.Wait();
    joined_at = s.now();
  };
  Spawn(joiner());
  s.Run();
  EXPECT_EQ(finished, 3);
  EXPECT_EQ(joined_at, 30u);
}

TEST(WaitGroup, BroadcastWakesWaitersInArrivalOrder) {
  Simulator s;
  WaitGroup wg(s);
  wg.Add();
  std::vector<int> order;
  auto w = [&](int id) -> Task<> {
    co_await s.Delay(static_cast<Time>(10 - id));  // arrive 3, 2, 1, 0
    co_await wg.Wait();
    order.push_back(id);
  };
  for (int i = 0; i < 4; ++i) Spawn(w(i));
  s.ScheduleIn(100, [&] { wg.Done(); });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 0}));
}

// A WaitGroup of one is a one-shot event: Done() wakes every waiter in
// arrival order, and a later Wait() passes without suspending.
TEST(WaitGroup, OfOneWakesWaitersInArrivalOrderAndPassesLateOnes) {
  Simulator s;
  WaitGroup ev(s);
  ev.Add();
  std::vector<int> order;
  auto w = [&](int id, Time arrive) -> Task<> {
    co_await s.Delay(arrive);
    co_await ev.Wait();
    order.push_back(id);
  };
  Spawn(w(0, 5));
  Spawn(w(1, 1));
  Spawn(w(2, 3));
  s.ScheduleIn(100, [&] { ev.Done(); });
  Spawn(w(3, 200));  // already done: passes without suspending
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0, 3}));
}

TEST(Condition, NotifyAllWakesCurrentWaitersAndRearms) {
  Simulator s;
  Condition cond(s);
  std::vector<std::pair<int, Time>> woken;  // (waiter, time)
  auto w = [&](int id, Time arrive) -> Task<> {
    co_await s.Delay(arrive);
    co_await cond.Wait();
    woken.emplace_back(id, s.now());
  };
  Spawn(w(0, 3));
  Spawn(w(1, 1));
  Spawn(w(2, 2));
  Spawn(w(3, 150));  // arrives after the first broadcast: waits again
  s.ScheduleIn(100, [&] { cond.NotifyAll(); });
  s.ScheduleIn(200, [&] { cond.NotifyAll(); });
  s.Run();
  EXPECT_EQ(woken, (std::vector<std::pair<int, Time>>{
                       {1, 100}, {2, 100}, {0, 100}, {3, 200}}));
}

// A FIFO resource (buffer slots, a lock) is a Semaphore held through
// Hold()'s guard. A single-slot one serializes its users: with N
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
TEST(Semaphore, HighPriorityBypassesQueuedBackgroundWork) {
  Simulator s;
  Semaphore r(s, 1);
  std::vector<char> order;
  auto bg = [&]() -> Task<> {
    co_await s.Delay(1);
    auto g = co_await r.Hold(1);
    order.push_back('B');
    co_await s.Delay(10);
  };
  auto io = [&]() -> Task<> {
    co_await s.Delay(2);
    auto g = co_await r.Hold(0);
    order.push_back('I');
    co_await s.Delay(10);
  };
  // Occupy the server first so both bg and io must queue.
  auto holder = [&]() -> Task<> {
    auto g = co_await r.Hold(0);
    order.push_back('H');
    co_await s.Delay(100);
  };
  Spawn(holder());
  Spawn(bg());  // queues at t=1 (low prio)
  Spawn(io());  // queues at t=2 (high prio) — must run before bg
  s.Run();
  EXPECT_EQ(order, (std::vector<char>{'H', 'I', 'B'}));
}

TEST(Semaphore, FifoWithinSamePriority) {
  Simulator s;
  Semaphore r(s, 1);
  std::vector<int> order;
  auto holder = [&]() -> Task<> {
    auto g = co_await r.Hold(0);
    co_await s.Delay(100);
  };
  Spawn(holder());
  auto w = [&](int id) -> Task<> {
    co_await s.Delay(static_cast<Time>(1 + id));
    auto g = co_await r.Hold(1);
    order.push_back(id);
  };
  for (int i = 0; i < 3; ++i) Spawn(w(i));
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Semaphore, BackgroundRunsWhenNoForegroundPending) {
  Simulator s;
  Semaphore r(s, 1);
  Time bg_ran_at = 0;
  auto bg = [&]() -> Task<> {
    auto g = co_await r.Hold(1);
    bg_ran_at = s.now();
  };
  Spawn(bg());
  s.Run();
  EXPECT_EQ(bg_ran_at, 0u);  // nothing contended; ran immediately
}

// Background work sliced into small acquisitions lets foreground work
// interleave: the foreground's extra wait is bounded by one slice.
TEST(Semaphore, SlicedBackgroundBoundsForegroundDelay) {
  Simulator s;
  Semaphore r(s, 1);
  constexpr Time kSlice = 5;
  bool bg_done = false;
  auto bg = [&]() -> Task<> {
    for (int i = 0; i < 100; ++i) {
      auto g = co_await r.Hold(1);
      co_await s.Delay(kSlice);
    }
    bg_done = true;
  };
  Time io_latency = 0;
  auto io = [&]() -> Task<> {
    co_await s.Delay(17);  // arrive mid-slice
    Time start = s.now();
    auto g = co_await r.Hold(0);
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
