#include "sim/task.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "sim/simulator.h"

namespace zstor::sim {
namespace {

Task<> Sleeper(Simulator& s, Time d, int& out) {
  co_await s.Delay(d);
  out = 42;
}

TEST(Task, RunsEagerlyUntilFirstSuspension) {
  Simulator s;
  int stage = 0;
  auto body = [&](Simulator& sim) -> Task<> {
    stage = 1;
    co_await sim.Delay(10);
    stage = 2;
  };
  auto t = body(s);
  EXPECT_EQ(stage, 1);  // ran to the first co_await synchronously
  EXPECT_FALSE(t.Done());
  s.Run();
  EXPECT_EQ(stage, 2);
  EXPECT_TRUE(t.Done());
}

TEST(Task, DelayAdvancesVirtualTime) {
  Simulator s;
  int out = 0;
  auto t = Sleeper(s, Microseconds(5), out);
  s.Run();
  EXPECT_EQ(out, 42);
  EXPECT_EQ(s.now(), Microseconds(5));
  EXPECT_TRUE(t.Done());
}

Task<int> Answer(Simulator& s) {
  co_await s.Delay(1);
  co_return 7;
}

Task<> Caller(Simulator& s, int& out) {
  out = co_await Answer(s);
}

TEST(Task, AwaitingATaskYieldsItsValue) {
  Simulator s;
  int out = 0;
  auto t = Caller(s, out);
  s.Run();
  EXPECT_EQ(out, 7);
  EXPECT_TRUE(t.Done());
}

Task<int> Immediate() { co_return 3; }

Task<> AwaitsImmediate(int& out) { out = co_await Immediate(); }

TEST(Task, AwaitingAnAlreadyDoneTaskDoesNotSuspend) {
  int out = 0;
  auto t = AwaitsImmediate(out);
  EXPECT_EQ(out, 3);
  EXPECT_TRUE(t.Done());
}

Task<> Chain(Simulator& s, int depth, Time& finished_at) {
  if (depth > 0) {
    co_await s.Delay(1);
    co_await Chain(s, depth - 1, finished_at);
  } else {
    finished_at = s.now();
  }
}

TEST(Task, DeepAwaitChainsAccumulateDelays) {
  Simulator s;
  Time finished_at = 0;
  auto t = Chain(s, 100, finished_at);
  s.Run();
  EXPECT_EQ(finished_at, 100u);
  EXPECT_TRUE(t.Done());
}

TEST(Task, DetachedTaskKeepsRunningAndSelfDestructs) {
  Simulator s;
  int out = 0;
  Spawn(Sleeper(s, 10, out));
  EXPECT_EQ(out, 0);
  s.Run();
  EXPECT_EQ(out, 42);
}

TEST(Task, DetachOfCompletedTaskIsSafe) {
  Simulator s;
  int out = 0;
  auto body = [&]() -> Task<> {
    out = 1;
    co_return;
  };
  auto t = body();
  EXPECT_TRUE(t.Done());
  std::move(t).Detach();  // frame destroyed immediately; no leak (ASAN-clean)
  EXPECT_EQ(out, 1);
}

TEST(Task, ManyConcurrentDetachedTasksInterleaveByTime) {
  Simulator s;
  int done = 0;
  auto body = [&](Time d) -> Task<> {
    co_await s.Delay(d);
    ++done;
  };
  for (int i = 0; i < 1000; ++i) {
    Spawn(body(static_cast<Time>(1000 - i)));
  }
  s.Run();
  EXPECT_EQ(done, 1000);
  EXPECT_EQ(s.now(), 1000u);
}

TEST(TaskFrames, FreedOnAnotherThread) {
  // Allocated here, completed and freed on a worker (the lane engine's
  // pattern): the frame joins the worker's cache, drained at its exit.
  Simulator s;
  int out = 0;
  Spawn(Sleeper(s, 10, out));
  std::thread([&s] { s.Run(); }).join();
  EXPECT_EQ(out, 42);

  // And the reverse: allocated on a worker, freed here.
  std::vector<Task<int>> tasks;
  std::thread([&tasks] {
    for (int i = 0; i < 64; ++i) tasks.push_back(Immediate());
  }).join();
  for (const Task<int>& t : tasks) EXPECT_TRUE(t.Done());
  tasks.clear();
  int again = 0;
  auto t = AwaitsImmediate(again);  // may reuse a frame freed just above
  EXPECT_EQ(again, 3);
}

TEST(TaskDeathTest, DestroyingARunningTaskAborts) {
  EXPECT_DEATH(
      {
        Simulator s;
        int out = 0;
        { auto t = Sleeper(s, 10, out); }  // destroyed before completion
      },
      "destroyed while still running");
}

}  // namespace
}  // namespace zstor::sim
