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

TEST(OneShotEvent, BroadcastWakesWaitersInArrivalOrder) {
  Simulator s;
  OneShotEvent ev(s);
  std::vector<int> order;
  auto w = [&](int id, Time arrive) -> Task<> {
    co_await s.Delay(arrive);
    co_await ev.Wait();
    order.push_back(id);
  };
  Spawn(w(0, 5));
  Spawn(w(1, 1));
  Spawn(w(2, 3));
  s.ScheduleIn(100, [&] { ev.Set(); });
  Spawn(w(3, 200));  // already set: passes without suspending
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

}  // namespace
}  // namespace zstor::sim
