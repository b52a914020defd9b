#include "sim/sync.h"

#include <gtest/gtest.h>

#include <string>
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

TEST(Queue, PopBlocksUntilPush) {
  Simulator s;
  Queue<int> q(s);
  int got = 0;
  Time got_at = 0;
  auto consumer = [&]() -> Task<> {
    got = co_await q.Pop();
    got_at = s.now();
  };
  Spawn(consumer());
  s.ScheduleIn(500, [&] { q.Push(99); });
  s.Run();
  EXPECT_EQ(got, 99);
  EXPECT_EQ(got_at, 500u);
}

TEST(Queue, BufferedItemsPopImmediately) {
  Simulator s;
  Queue<std::string> q(s);
  q.Push("a");
  q.Push("b");
  std::vector<std::string> got;
  auto consumer = [&]() -> Task<> {
    got.push_back(co_await q.Pop());
    got.push_back(co_await q.Pop());
  };
  Spawn(consumer());
  s.Run();
  EXPECT_EQ(got, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(q.empty());
}

TEST(Queue, MultipleConsumersServedFifo) {
  Simulator s;
  Queue<int> q(s);
  std::vector<std::pair<int, int>> got;  // (consumer, item)
  auto consumer = [&](int id) -> Task<> {
    co_await s.Delay(static_cast<Time>(id));
    int item = co_await q.Pop();
    got.emplace_back(id, item);
  };
  for (int c = 0; c < 3; ++c) Spawn(consumer(c));
  s.ScheduleIn(10, [&] {
    q.Push(100);
    q.Push(200);
    q.Push(300);
  });
  s.Run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], (std::pair<int, int>{0, 100}));
  EXPECT_EQ(got[1], (std::pair<int, int>{1, 200}));
  EXPECT_EQ(got[2], (std::pair<int, int>{2, 300}));
}

TEST(Queue, ProducerConsumerPipelineConservesItems) {
  Simulator s;
  Queue<int> q(s);
  long sum = 0;
  const int kN = 1000;
  auto producer = [&]() -> Task<> {
    for (int i = 1; i <= kN; ++i) {
      co_await s.Delay(3);
      q.Push(i);
    }
  };
  auto consumer = [&]() -> Task<> {
    for (int i = 0; i < kN; ++i) {
      sum += co_await q.Pop();
      co_await s.Delay(5);  // slower than producer: queue builds up
    }
  };
  Spawn(producer());
  Spawn(consumer());
  s.Run();
  EXPECT_EQ(sum, static_cast<long>(kN) * (kN + 1) / 2);
  EXPECT_TRUE(q.empty());
}

// Pops interleaved with pushes walk the buffer's head forward; the buffer
// reuses its popped prefix and keeps FIFO order across that compaction.
TEST(Queue, InterleavedPushPopKeepsFifoOrder) {
  Simulator s;
  Queue<int> q(s);
  std::vector<int> got;
  int next = 0;
  auto consumer = [&]() -> Task<> {
    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < 3; ++i) q.Push(next++);
      for (int i = 0; i < 2; ++i) got.push_back(co_await q.Pop());
    }
    while (!q.empty()) got.push_back(co_await q.Pop());
  };
  Spawn(consumer());
  s.Run();
  std::vector<int> want(150);
  for (int i = 0; i < 150; ++i) want[i] = i;
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace zstor::sim
