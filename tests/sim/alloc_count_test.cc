// Runtime half of EventFn's performance contract (event_fn.h): once the
// simulator's containers are warm, the coroutine-resume path, the
// small-lambda scheduling path and timers on fixed delays (the delay
// FIFOs) perform ZERO heap allocations per event,
// (task.h) neither does spawning a task once its frame size has been
// recycled, and (parallel_sim.h) neither does a cross-lane message once
// the mailboxes have grown. Waiting allocates nothing either: not on any
// sync.h/token_bucket.h primitive, not per command through
// a warm mq-deadline stack and ZNS device, not per attempt of a
// retrying stack racing each one against its timeout, not in a reset
// holding the FCP on the slice chain beside host reads, and not per page
// of a conventional FTL's GC migration or host I/O. A warm zkv store adds
// nothing of its own per operation, flushes and compactions included.
// Every global allocation in this binary bumps a counter; the tests
// read the delta across a measured window.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>

#include "ftl/conv_device.h"
#include "hostif/host_stack.h"
#include "hostif/resilient_stack.h"
#include "sim/parallel_sim.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sim/token_bucket.h"
#include "workload/zipf.h"
#include "zkv/kv_store.h"
#include "zns/zns_device.h"

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

// Timers on a device's fixed costs: four chains per delay, each re-arming
// itself with its own delay, beside one-off delays. Each round runs one of
// two disjoint delay sets, so a container one round's delay used passes
// to another delay in the next. Warm, none of it allocates.
TEST(AllocCount, WarmFixedDelayTimersAllocateNothing) {
  struct Timers {
    Simulator& s;
    std::array<Time, 6> delays{};
    int left = 0;
    int fired = 0;
  };
  struct Tick {
    Timers* t;
    std::size_t i;
    void operator()() const {
      ++t->fired;
      if (i == 0) t->s.ScheduleIn(1 + t->fired % 613, [] {});  // one-off
      if (--t->left > 0) t->s.ScheduleIn(t->delays[i], *this);
    }
  };
  Simulator s;
  Timers timers{s};
  auto round = [&](const std::array<Time, 6>& delays) {
    timers.delays = delays;
    timers.left = 6000;
    for (std::size_t i = 0; i < delays.size(); ++i) {
      for (int chain = 0; chain < 4; ++chain) {
        s.ScheduleIn(delays[i], Tick{&timers, i});
      }
    }
    s.Run();
  };
  constexpr std::array<Time, 6> kA = {3050, 1070, 3200, 500, 2000, 750};
  constexpr std::array<Time, 6> kB = {3060, 1090, 3210, 520, 2030, 760};
  round(kA);
  round(kB);  // warm-up: both sets, each after the other
  timers.fired = 0;
  std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  round(kA);
  round(kB);
  std::uint64_t delta =
      g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_GT(timers.fired, 2 * 6000);
  EXPECT_EQ(delta, 0u) << "a warm fixed-delay timer allocated";
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

// Every waiting primitive; one round builds, waits on, wakes and
// destroys all of them.
struct Primitives {
  explicit Primitives(Simulator& s)
      : sem(s, 0), wg(s), cond(s), server(s, 1), tb(s, 1e9, 1) {}
  Semaphore sem;
  WaitGroup wg;
  Condition cond;
  Semaphore server;  // one unit, held in the background class
  TokenBucket tb;
};

Task<> WaitOnEach(Simulator& s, std::optional<Primitives>& p, int* passed) {
  co_await s.Delay(1);  // the primitives are built meanwhile
  co_await p->sem.Acquire();
  co_await p->wg.Wait();
  co_await p->cond.Wait();
  {
    auto g = co_await p->server.Hold(1);
    co_await s.Delay(1);  // hold the slot: the next waiter queues
  }
  co_await p->tb.Take(2);  // over the burst: queues for the pump
  ++*passed;
}

Task<> WakeEach(Simulator& s, std::optional<Primitives>& p, int waiters) {
  co_await s.Delay(1);
  p->wg.Add();
  co_await s.Delay(10);
  for (int i = 0; i < waiters; ++i) p->sem.Release();
  co_await s.Delay(10);
  p->wg.Done();
  co_await s.Delay(10);
  p->cond.NotifyAll();
}

// The coroutine frames are made before the window (so this holds with the
// frame pool compiled out too); the primitives live only inside it.
TEST(AllocCount, WaitingOnEveryPrimitiveIsAllocationFree) {
  Simulator s;
  // Warm the ready ring and the timed heap past what the round needs.
  s.ScheduleIn(1, [&] {
    for (int i = 0; i < 64; ++i) {
      s.ScheduleIn(0, [] {});
      s.ScheduleIn(1 + i, [] {});
    }
  });
  s.Run();

  constexpr int kWaiters = 3;
  std::optional<Primitives> p;
  int passed = 0;
  std::optional<Task<>> waiters[kWaiters];
  for (auto& w : waiters) w.emplace(WaitOnEach(s, p, &passed));
  Task<> waker = WakeEach(s, p, kWaiters);
  std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  p.emplace(s);
  s.Run();
  p.reset();
  std::uint64_t delta =
      g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(passed, kWaiters);
  EXPECT_EQ(delta, 0u) << "a waiting primitive allocated";
}

// A warm kernel mq-deadline stack over a Tiny ZnsDevice: sequential
// 4 KiB writes that the scheduler merges, and 64 KiB reads that span four
// NAND pages (a WaitGroup join per read), allocate nothing per command.
TEST(AllocCount, WarmMqDeadlineZnsCommandsAreAllocationFree) {
  if (!kFramePoolEnabled) GTEST_SKIP() << "frame pool compiled out (ASan)";
  Simulator s;
  zns::ZnsDevice dev(s, zns::TinyProfile());
  hostif::KernelStack stack(s, dev, hostif::Scheduler::kMqDeadline);
  constexpr nvme::Lba kRoundLbas = 256;  // 1 MiB of 4 KiB writes
  constexpr std::uint32_t kReadLbas = 16;
  nvme::Lba next_write = 0;
  std::uint64_t commands = 0;
  std::uint64_t failed = 0;
  auto writer = [&](nvme::Lba end) -> Task<> {
    while (next_write < end) {
      auto tc = co_await stack.Submit(
          {.opcode = nvme::Opcode::kWrite, .slba = next_write++, .nlb = 1});
      ++commands;
      failed += tc.completion.ok() ? 0 : 1;
    }
  };
  auto reader = [&](nvme::Lba first, int reads) -> Task<> {
    for (int i = 0; i < reads; ++i) {
      auto tc = co_await stack.Submit(
          {.opcode = nvme::Opcode::kRead,
           .slba = first + (static_cast<nvme::Lba>(i) * kReadLbas) % kRoundLbas,
           .nlb = kReadLbas});
      ++commands;
      failed += tc.completion.ok() ? 0 : 1;
    }
  };
  // Round r writes [r, r + 1) MiB of zone 0 at QD 8 and, after the
  // first, reads its first MiB at QD 2.
  auto round = [&](int r) {
    for (int i = 0; i < 8; ++i) Spawn(writer((r + 1) * kRoundLbas));
    if (r > 0) {
      for (int i = 0; i < 2; ++i) Spawn(reader(i * kReadLbas, 64));
    }
    s.Run();
  };
  round(0);
  round(1);  // warm-up: frame sizes, zone state, scheduler and device
  commands = 0;
  std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  round(2);
  std::uint64_t delta =
      g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(commands, kRoundLbas + 2 * 64);
  EXPECT_GT(stack.scheduler_stats().merged_writes, 0u);
  EXPECT_EQ(delta, 0u) << "a warm mq-deadline command allocated";
}

// A warm ResilientStack with a 20 us per-attempt timeout over SPDK and a
// Tiny ZnsDevice. Each attempt races the device against a watchdog event
// in one spawned frame: 4 KiB writes beat the watchdog, 64 KiB reads lose
// to it on both attempts (their late completions are dropped). None of
// it allocates.
TEST(AllocCount, WarmTimedRetryAttemptsAllocateNothing) {
  if (!kFramePoolEnabled) GTEST_SKIP() << "frame pool compiled out (ASan)";
  Simulator s;
  zns::ZnsProfile p = zns::TinyProfile();
  // No NAND backend: how reads interleave with programs decides when
  // the array's settle bookkeeping grows, and this window is about the
  // retry layer.
  p.use_nand_backend = false;
  zns::ZnsDevice dev(s, p);
  hostif::SpdkStack spdk(s, dev);
  hostif::ResilientStack stack(s, spdk,
                               {.max_attempts = 2,
                                .backoff = Microseconds(5),
                                .timeout = Microseconds(20)});
  dev.DebugFillZone(0, dev.profile().zone_cap_bytes);  // the readers' zone
  constexpr std::uint32_t kReadLbas = 16;
  std::uint64_t in_time = 0;
  auto writer = [&](nvme::Lba first, int writes) -> Task<> {
    for (int i = 0; i < writes; ++i) {
      auto tc = co_await stack.Submit({.opcode = nvme::Opcode::kWrite,
                                       .slba = first + i,
                                       .nlb = 1});
      in_time += tc.completion.ok() ? 1 : 0;
    }
  };
  auto reader = [&](int reads) -> Task<> {
    for (int i = 0; i < reads; ++i) {
      auto tc = co_await stack.Submit(
          {.opcode = nvme::Opcode::kRead,
           .slba = (static_cast<nvme::Lba>(i) * kReadLbas) % 512,
           .nlb = kReadLbas});
      in_time += tc.completion.ok() ? 1 : 0;
      co_await s.Delay(Microseconds(500));  // the dropped attempts drain
    }
  };
  // Round r writes the r-th 64 LBAs of zone 1 at QD1 beside one reader.
  auto round = [&](std::uint32_t r) {
    Spawn(writer(dev.ZoneStartLba(1) + r * 64, 64));
    Spawn(reader(16));
    s.Run();
  };
  round(0);
  round(1);  // warm-up: frame sizes, heap and ready ring
  const hostif::ResilienceStats st0 = stack.stats();
  in_time = 0;
  std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  round(2);
  std::uint64_t delta = g_allocs.load(std::memory_order_relaxed) - before;
  const hostif::ResilienceStats& st = stack.stats();
  EXPECT_EQ(st.commands - st0.commands, 64u + 16);
  EXPECT_EQ(st.timeouts - st0.timeouts, 2u * 16);
  EXPECT_EQ(in_time, 64u);
  EXPECT_EQ(delta, 0u) << "a warm timed attempt allocated";
}

// A warm Tiny ZnsDevice resetting a full zone while a reader keeps
// asking for the FCP. The reset holds the FCP on the simulator's slice
// chain; each read materializes it at the next boundary, the reset takes
// the FCP back after the read's service and chains again, and each read
// that completes drains the device and caps the chain. None of it —
// chain start, advance, materialize, cap or re-chain — allocates.
TEST(AllocCount, WarmResetFoldingBesideHostIoAllocatesNothing) {
  if (!kFramePoolEnabled) GTEST_SKIP() << "frame pool compiled out (ASan)";
  Simulator s;
  zns::ZnsDevice dev(s, zns::TinyProfile());
  const std::uint64_t cap = dev.profile().zone_cap_bytes;
  dev.DebugFillZone(0, cap);  // the reader's zone
  std::uint64_t reads = 0;
  std::uint64_t failed = 0;
  Time reset_latency = 0;
  auto reset = [&](std::uint32_t zone, bool* done) -> Task<> {
    const Time t0 = s.now();
    nvme::Completion c = co_await dev.Execute(
        {.opcode = nvme::Opcode::kZoneMgmtSend,
         .slba = dev.ZoneStartLba(zone),
         .zone_action = nvme::ZoneAction::kReset});
    failed += c.ok() ? 0 : 1;
    reset_latency = s.now() - t0;
    *done = true;
  };
  auto reader = [&](const bool* done) -> Task<> {
    while (!*done) {
      nvme::Completion c = co_await dev.Execute(
          {.opcode = nvme::Opcode::kRead, .slba = 0, .nlb = 1});
      failed += c.ok() ? 0 : 1;
      ++reads;
      co_await s.Delay(Microseconds(20));
    }
  };
  auto round = [&](std::uint32_t zone) {
    bool done = false;
    Spawn(reader(&done));
    Spawn(reset(zone, &done));
    return s.Run();
  };
  for (std::uint32_t z = 1; z <= 3; ++z) dev.DebugFillZone(z, cap);
  round(1);
  round(2);  // warm-up: frame sizes, heap and ready ring
  reads = 0;
  std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const std::uint64_t events = round(3);
  std::uint64_t delta = g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(failed, 0u);
  EXPECT_GT(reads, 20u);
  // Folded: far fewer events than the reset's slices alone.
  EXPECT_LT(events, reset_latency / dev.profile().reset.slice / 4);
  EXPECT_EQ(delta, 0u) << "a warm folding reset allocated";
}

// A warm NAND array's noisy reads allocate nothing, though every
// NoiseStream::kChunkDraws draws its noise stream hands a chunk to the
// helper thread (the first draw took the stream's storage and started
// the helper). A rebuilt array takes the storage its predecessor left.
TEST(AllocCount, WarmNoisyNandReadsAllocateNothing) {
  Simulator s;
  const zns::ZnsProfile p = zns::Zn540Profile();
  ASSERT_GT(p.nand_timing.read_sigma, 0.0);
  nand::FlashArray fa(s, p.nand_geometry, p.nand_timing);
  fa.DebugProgramRange(0, 0, 1);
  struct Chain : nand::NandOp {
    int left = 0;
  } op;
  op.kind = nand::NandOp::Kind::kRead;
  op.addr = {0, 0, 0};
  op.bytes = 4096;
  op.on_done = [](nand::NandOp& o) { --static_cast<Chain&>(o).left; };
  auto reads = [&](int n) {
    for (op.left = n; op.left > 0;) {
      ASSERT_TRUE(fa.Start(op));
      s.Run();
    }
  };
  reads(4 * static_cast<int>(sim::NoiseStream::kChunkDraws));
  const std::uint64_t reads0 = fa.counters().page_reads;
  std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  reads(10 * static_cast<int>(sim::NoiseStream::kChunkDraws));
  std::uint64_t delta = g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(fa.counters().page_reads - reads0,
            10 * sim::NoiseStream::kChunkDraws);
  EXPECT_EQ(delta, 0u) << "a warm noisy NAND read allocated";

  { sim::NoiseStream gone(1, {0.1}); gone.Multiplier(0); }
  before = g_allocs.load(std::memory_order_relaxed);
  {
    sim::NoiseStream again(2, {0.1, 0.2, 0.3});
    for (int i = 0; i < 1000; ++i) again.Multiplier(i % 3);
  }
  delta = g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(delta, 0u) << "a rebuilt noise stream allocated";
}

// A warm Tiny ZnsDevice with its NAND backend: four appenders fill a
// fresh zone each round while a reader keeps the dies busy with reads of
// a full zone. Reads queued between a zone's programs make the dies
// settle them out of page order, so the zone keeps a list of pages
// settled beyond its durable prefix; the list takes the capacity an
// earlier zone's drained list left behind, so a round in a zone that
// never held one allocates nothing.
TEST(AllocCount, WarmNandAppendsBesideReadsAllocateNothing) {
  if (!kFramePoolEnabled) GTEST_SKIP() << "frame pool compiled out (ASan)";
  Simulator s;
  zns::ZnsDevice dev(s, zns::TinyProfile());
  ASSERT_NE(dev.flash(), nullptr);
  const std::uint64_t cap = dev.profile().zone_cap_bytes;
  dev.DebugFillZone(0, cap);  // the reader's zone
  constexpr std::uint32_t kAppendLbas = 8;  // 32 KiB: two NAND pages
  std::uint64_t failed = 0;
  auto appender = [&](std::uint32_t zone, int appends) -> Task<> {
    for (int i = 0; i < appends; ++i) {
      nvme::Completion c = co_await dev.Execute(
          {.opcode = nvme::Opcode::kAppend,
           .slba = dev.ZoneStartLba(zone),
           .nlb = kAppendLbas});
      failed += c.ok() ? 0 : 1;
    }
  };
  auto reader = [&](int reads) -> Task<> {
    for (int i = 0; i < reads; ++i) {
      nvme::Completion c = co_await dev.Execute(
          {.opcode = nvme::Opcode::kRead,
           .slba = static_cast<nvme::Lba>(i) * 4 % 512,
           .nlb = 4});
      failed += c.ok() ? 0 : 1;
    }
  };
  // Round r appends half of zone 1 + r; the round ends with every
  // program settled.
  const int appends = static_cast<int>(cap / 4096 / kAppendLbas / 2 / 4);
  auto round = [&](std::uint32_t r) {
    for (int w = 0; w < 4; ++w) Spawn(appender(1 + r, appends));
    Spawn(reader(4 * appends));
    s.Run();
  };
  round(0);
  round(1);  // warm-up: frame sizes, heap, ready ring and settle lists
  const std::uint64_t torn0 = dev.counters().torn_pages;
  std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  round(2);
  std::uint64_t delta = g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(dev.counters().torn_pages, torn0);
  EXPECT_EQ(dev.ZoneWrittenBytes(3), cap / 2);
  EXPECT_EQ(delta, 0u) << "a warm NAND append or read allocated";
}

// Building a ZnsDevice allocates its tables, not one object per zone: a
// ZN540 with 904 zones costs as many allocations as one with 16.
TEST(AllocCount, ZnsDeviceBuildAllocatesNothingPerZone) {
  auto build = [](std::uint32_t zones) {
    Simulator s;
    zns::ZnsProfile p = zns::Zn540Profile();
    p.num_zones = zones;
    std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    { zns::ZnsDevice dev(s, p); }
    return g_allocs.load(std::memory_order_relaxed) - before;
  };
  EXPECT_EQ(build(904), build(16));
}

// A warm Tiny ConvDevice under GC pressure: page writes and unit reads
// while GC migrates victims (page reads, page programs, an erase each).
// NAND ops are records in their callers' frames and a victim's pages are
// records in reused per-worker arrays, so nothing here is per page. With
// the frame pool every frame is recycled and the window allocates
// nothing. Without it (ASan) each command may still make its own frames
// (Execute, the opcode body, ProgramHostPage or ReadPhysPage, and
// AcquireFreeBlock when a write opens a block) and each GC pass one
// MigrateAndErase frame — but no migrated page adds any.
TEST(AllocCount, WarmConvGcMigrationAndHostIoAllocateNothingPerPage) {
  Simulator s;
  ftl::ConvDevice dev(s, ftl::TinyConvProfile());
  dev.DebugPrefill();
  const std::uint32_t upp = dev.profile().units_per_page();
  const nvme::Lba pages = dev.info().capacity_lbas / upp;
  std::uint64_t commands = 0;
  std::uint64_t failed = 0;
  std::uint64_t x = 1;  // LCG: a scattered overwrite pattern
  auto next_page = [&] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<nvme::Lba>((x >> 33) % pages);
  };
  auto writer = [&](int n) -> Task<> {
    for (int i = 0; i < n; ++i) {
      const nvme::Completion c = co_await dev.Execute(
          {.opcode = nvme::Opcode::kWrite, .slba = next_page() * upp,
           .nlb = upp});
      ++commands;
      failed += c.ok() ? 0 : 1;
    }
  };
  auto reader = [&](int n) -> Task<> {
    for (int i = 0; i < n; ++i) {
      const nvme::Completion c = co_await dev.Execute(
          {.opcode = nvme::Opcode::kRead, .slba = next_page() * upp,
           .nlb = 1});
      ++commands;
      failed += c.ok() ? 0 : 1;
    }
  };
  // Four writers and two readers; `writes` page writes each.
  auto round = [&](int writes) {
    std::optional<Task<>> t[6];
    for (int i = 0; i < 4; ++i) t[i].emplace(writer(writes));
    for (int i = 4; i < 6; ++i) t[i].emplace(reader(writes / 2));
    s.Run();
  };
  // Warm-up: the device overwrites itself several times over, so GC has
  // run with every worker, and every frame size and container is warm.
  for (int r = 0; r < 8; ++r) round(1024);
  ASSERT_GT(dev.counters().gc_blocks_erased, 100u);
  const ftl::ConvCounters c0 = dev.counters();
  const std::uint64_t reads0 = dev.flash().counters().page_reads;
  commands = 0;
  failed = 0;
  std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  round(64);
  std::uint64_t delta =
      g_allocs.load(std::memory_order_relaxed) - before;
  const std::uint64_t passes =
      dev.counters().gc_invocations - c0.gc_invocations;
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(commands, 4u * 64 + 2u * 32);
  EXPECT_GT(dev.counters().gc_blocks_erased, c0.gc_blocks_erased);
  const std::uint64_t migrated_pages =
      (dev.counters().gc_units_migrated - c0.gc_units_migrated) / upp;
  EXPECT_GT(migrated_pages, 4 * passes) << "passes migrated too little";
  EXPECT_GT(dev.flash().counters().page_reads - reads0, migrated_pages);
  EXPECT_LE(delta, 4 * commands + passes)
      << "a GC migration allocated per page (" << migrated_pages
      << " pages in " << passes << " passes)";
  if (kFramePoolEnabled) {
    EXPECT_EQ(delta, 0u) << "a warm conv command or GC pass allocated";
  }
}

// Counts the reads that ask for payload-tag readback: the ZNS device
// returns those tags in a fresh Completion::payload_tags vector, one
// allocation per read that belongs to the device, not to the store.
class TagReadCounter final : public hostif::Stack {
 public:
  explicit TagReadCounter(hostif::Stack& inner) : inner_(inner) {}
  Task<nvme::TimedCompletion> Submit(nvme::Command cmd) override {
    if (cmd.opcode == nvme::Opcode::kRead && cmd.payload_tag != 0) ++reads;
    co_return co_await inner_.Submit(cmd);
  }
  const nvme::NamespaceInfo& info() const override { return inner_.info(); }
  std::uint64_t reads = 0;

 private:
  hostif::Stack& inner_;
};

// YCSB-A (half zipfian gets, half 4 KiB puts, four workers) through a
// warm zkv store on a ZNS device. The memtables swap reused sorted
// arrays, the WAL ledger and free-zone list are rings, tables come from
// the store's pool and compaction merges into a store-owned buffer, so
// the measured window (many flushes and compactions, zone resets too)
// allocates exactly the device's tag vectors and nothing else.
TEST(AllocCount, WarmKvStoreOpsFlushesAndCompactionsAllocateNothing) {
  if (!kFramePoolEnabled) GTEST_SKIP() << "frame pool compiled out (ASan)";
  Simulator s;
  zns::ZnsProfile p = zns::TinyProfile();
  p.num_zones = 32;
  p.max_open_zones = 8;
  p.max_active_zones = 10;
  p.nand_geometry.blocks_per_die = 96;
  // No NAND backend: the array's per-zone bookkeeping keeps growing for
  // a long while (WarmMqDeadlineZnsCommandsAreAllocationFree pins that
  // path), and this window is about the store.
  p.use_nand_backend = false;
  zns::ZnsDevice dev(s, p);
  hostif::SpdkStack spdk(s, dev);
  TagReadCounter stack(spdk);
  zkv::KvStore kv(s, stack,
                  {.zone_count = 32,
                   .memtable_bytes = 64 * 1024,
                   .l0_compact_trigger = 2,
                   .l0_stall_limit = 4});
  constexpr std::uint64_t kRecords = 2048;
  const workload::ZipfGenerator zipf(kRecords, 0.99);
  std::uint64_t failed = 0;
  auto key_of = [](std::uint64_t rank) { return rank * 0x9E3779B97F4A7C15ull; };
  auto worker = [&](std::uint64_t seed, int ops) -> Task<> {
    Rng rng(seed);
    for (int i = 0; i < ops; ++i) {
      const std::uint64_t key = key_of(zipf.Next(rng));
      bool found = false;
      const nvme::Status st = rng.UniformU64(2) == 0
                                  ? co_await kv.Get(key, &found)
                                  : co_await kv.Put(key, 4096);
      failed += st == nvme::Status::kSuccess ? 0 : 1;
    }
  };
  auto round = [&](std::uint64_t r, int ops) {
    std::optional<Task<>> t[4];
    for (std::uint64_t w = 0; w < 4; ++w) t[w].emplace(worker(r * 4 + w, ops));
    s.Run();
  };
  auto load = [&]() -> Task<> {
    for (std::uint64_t k = 0; k < kRecords; ++k) {
      failed += co_await kv.Put(key_of(k), 4096) == nvme::Status::kSuccess
                    ? 0
                    : 1;
    }
  };
  {
    Task<> t = load();
    s.Run();
  }
  for (std::uint64_t r = 0; r < 8; ++r) round(r, 2000);  // warm-up
  const zkv::KvStats k0 = kv.stats();
  const std::uint64_t reads0 = stack.reads;
  std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  round(8, 1000);
  std::uint64_t delta = g_allocs.load(std::memory_order_relaxed) - before;
  const zkv::KvStats& k1 = kv.stats();
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(k1.gets + k1.puts - k0.gets - k0.puts, 4u * 1000);
  EXPECT_GT(k1.flushes, k0.flushes);
  EXPECT_GT(k1.compactions, k0.compactions);
  EXPECT_GT(k1.zone_resets, k0.zone_resets);
  EXPECT_GT(stack.reads, reads0);
  EXPECT_EQ(delta, stack.reads - reads0)
      << "the store allocated beyond the device's tag vectors";
}

}  // namespace
}  // namespace zstor::sim
