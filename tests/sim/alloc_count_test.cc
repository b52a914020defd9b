// Runtime half of EventFn's performance contract (event_fn.h): once the
// simulator's containers are warm, the coroutine-resume path and the
// small-lambda scheduling path perform ZERO heap allocations per event,
// (task.h) neither does spawning a task once its frame size has been
// recycled, and (parallel_sim.h) neither does a cross-lane message once
// the mailboxes have grown.
// Every global allocation in this binary bumps a counter; the tests
// read the delta across a measured window.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "sim/parallel_sim.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// GCC's mismatched-new-delete analysis peers through replacement
// operators into their malloc/free innards and misfires.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace zstor::sim {
namespace {

TEST(AllocCount, CoroutineResumePathIsAllocationFree) {
  Simulator s;
  bool done = false;
  auto body = [&]() -> Task<> {
    for (int i = 0; i < 5000; ++i) co_await s.Delay(1);
    done = true;
  };
  auto t = body();  // allocates the coroutine frame (once)
  // Warm-up: the first few events grow the timed heap to capacity.
  s.RunUntil(100);
  std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  s.RunUntil(4900);  // ~4800 schedule+resume round trips
  std::uint64_t delta =
      g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(delta, 0u) << "coroutine resume path allocated";
  s.Run();
  EXPECT_TRUE(done);
}

TEST(AllocCount, SmallLambdaSchedulingIsAllocationFree) {
  Simulator s;
  // Warm the containers well past anything the chain below needs.
  for (int i = 0; i < 256; ++i) s.ScheduleIn(1, [] {});
  s.Run();

  int count = 0;
  struct Chain {
    Simulator* s;
    int* count;
    void operator()() const {
      if (++*count < 3000) s->ScheduleIn(1, *this);
    }
  };
  std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  s.ScheduleIn(1, Chain{&s, &count});
  s.Run();
  std::uint64_t delta =
      g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(count, 3000);
  EXPECT_EQ(delta, 0u) << "small-callable scheduling path allocated";
}

TEST(AllocCount, ZeroDelayReadyRingPathIsAllocationFree) {
  Simulator s;
  // Warm the ready ring past the burst size used below.
  s.ScheduleIn(1, [&] {
    for (int i = 0; i < 64; ++i) s.ScheduleIn(0, [] {});
  });
  s.Run();

  int count = 0;
  std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  s.ScheduleIn(1, [&] {
    for (int i = 0; i < 32; ++i) {
      s.ScheduleIn(0, [&count] { ++count; });
    }
  });
  s.Run();
  std::uint64_t delta =
      g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(count, 32);
  EXPECT_EQ(delta, 0u) << "ready-ring path allocated";
}

Task<> ShortTask(Simulator& s) { co_await s.Delay(1); }

struct Padding {
  char bytes[256];
};
// The by-value parameter lives in the frame: a second frame size class.
Task<> PaddedTask(Simulator& s, Padding pad) {
  co_await s.Delay(1);
  (void)pad;
}

TEST(AllocCount, SpawnedTasksRecycleFrames) {
  if (!kFramePoolEnabled) GTEST_SKIP() << "frame pool compiled out (ASan)";
  Simulator s;
  auto round = [&s] {
    for (int i = 0; i < 500; ++i) {
      Spawn(ShortTask(s));
      Spawn(PaddedTask(s, Padding{}));
    }
    s.Run();
  };
  round();  // warm-up: fills this thread's free lists and the event heap
  std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  round();  // 1000 spawn + complete round trips, two frame sizes
  std::uint64_t delta =
      g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(delta, 0u) << "spawning a task allocated its frame";
}

// A request/reply ping-pong between two lanes: every round trip crosses
// a mailbox twice and closes two conservative-sync windows.
TEST(AllocCount, LaneHandoffIsAllocationFree) {
  ParallelSimulator ps(2, 250);
  ps.SetSpontaneous(0, true);
  struct PingPong {
    ParallelSimulator* ps;
    int remaining;
    void Send() {
      if (remaining-- == 0) return;
      ps->Post(0, 1, ps->lane(0).now() + 250, MsgKind::kRequest,
               EventFn([this] {
                 ps->Post(1, 0, ps->lane(1).now() + 250, MsgKind::kReply,
                          EventFn([this] { Send(); }));
               }));
    }
  } pp{&ps, 1};
  auto round = [&](int trips) {
    pp.remaining = trips;
    ps.lane(0).ScheduleIn(1, [&pp] { pp.Send(); });
    ps.Run(1);
  };
  round(1);  // warm-up: grows the mailboxes, drain staging and heaps
  std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  round(500);
  std::uint64_t delta =
      g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(ps.messages(), 2u * (1 + 500));  // every round trip ran
  EXPECT_EQ(delta, 0u) << "cross-lane handoff allocated";
}

}  // namespace
}  // namespace zstor::sim
