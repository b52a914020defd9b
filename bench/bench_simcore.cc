// Simulator-engine micro-benchmarks (google-benchmark): the cost of the
// event loop, coroutine machinery, resources and statistics. These bound
// how much virtual time per wall second the experiment harness can cover.
//
// Besides the google-benchmark reporters, a self-timed counter section
// measures events/sec and heap allocations/event for the hot loops
// (event scheduling, coroutine ping-pong, task spawn, cross-lane
// handoff) and records them into the
// shared --json output, so `--json=BENCH_simcore.json` yields a
// machine-readable regression baseline (see tools/validate_results.py).
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

#include "harness/bench_flags.h"
#include "harness/table.h"
#include "nand/flash_array.h"
#include "sim/parallel_sim.h"
#include "sim/resource.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "sim/task.h"
#include "zns/zns_device.h"

// Counting allocator: every global heap allocation in this binary bumps
// one counter, so the section below can report allocations per event.
// Deltas are read only around our own measured loops. GCC's
// mismatched-new-delete analysis peers through these replacements into
// their malloc/free innards and misfires; it has nothing to check here.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(al),
                                   (n + static_cast<std::size_t>(al) - 1) &
                                       ~(static_cast<std::size_t>(al) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace zstor;

void BM_EventScheduling(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    for (int i = 0; i < 1000; ++i) {
      s.ScheduleIn(static_cast<sim::Time>(i), [] {});
    }
    benchmark::DoNotOptimize(s.Run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventScheduling);

void BM_CoroutinePingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    auto body = [&]() -> sim::Task<> {
      for (int i = 0; i < 1000; ++i) co_await s.Delay(1);
    };
    auto t = body();
    s.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CoroutinePingPong);

void BM_FifoResourceContention(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    sim::FifoResource r(s, 2);
    auto user = [&]() -> sim::Task<> {
      for (int i = 0; i < 50; ++i) {
        auto g = co_await r.Acquire();
        co_await s.Delay(10);
      }
    };
    for (int u = 0; u < 8; ++u) sim::Spawn(user());
    s.Run();
  }
  state.SetItemsProcessed(state.iterations() * 400);
}
BENCHMARK(BM_FifoResourceContention);

// A request/reply ping-pong between two lanes of the parallel engine:
// every round trip crosses the mailbox twice and closes two
// conservative-sync windows, so items/sec here is the ceiling on
// cross-lane command throughput (DESIGN.md §12). Arg = worker threads;
// Arg(1) isolates the window machinery, Arg(2) adds the barrier cost.
void BM_LaneHandoff(benchmark::State& state) {
  const unsigned threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    sim::ParallelSimulator ps(2, 250);
    ps.SetSpontaneous(0, true);
    struct PingPong {
      sim::ParallelSimulator* ps;
      int remaining;
      void Send() {
        if (remaining-- == 0) return;
        ps->Post(0, 1, ps->lane(0).now() + 250, sim::MsgKind::kRequest,
                 sim::EventFn([this] {
                   ps->Post(1, 0, ps->lane(1).now() + 250,
                            sim::MsgKind::kReply,
                            sim::EventFn([this] { Send(); }));
                 }));
      }
    } pp{&ps, 256};
    ps.lane(0).ScheduleIn(1, [&pp] { pp.Send(); });
    ps.Run(threads);
  }
  state.SetItemsProcessed(state.iterations() * 512);  // messages
}
BENCHMARK(BM_LaneHandoff)->Arg(1)->Arg(2);

void BM_LatencyHistogramRecord(benchmark::State& state) {
  sim::LatencyHistogram h;
  sim::Rng rng(1);
  for (auto _ : state) {
    h.Record(1000 + rng.UniformU64(1'000'000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatencyHistogramRecord);

void BM_RngNext(benchmark::State& state) {
  sim::Rng rng(7);
  std::uint64_t acc = 0;
  for (auto _ : state) acc += rng.NextU64();
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNext);

void BM_ZnsWritePath(benchmark::State& state) {
  // End-to-end device model throughput: simulated 4 KiB writes/sec of
  // wall time (the figure that sizes every experiment above).
  for (auto _ : state) {
    sim::Simulator s;
    zns::ZnsProfile p = zns::TinyProfile();
    p.io_sigma = 0;
    zns::ZnsDevice dev(s, p);
    auto body = [&]() -> sim::Task<> {
      nvme::Lba wp = 0;
      for (int i = 0; i < 256; ++i) {
        auto c = co_await dev.Execute(
            {.opcode = nvme::Opcode::kWrite, .slba = wp, .nlb = 1});
        ZSTOR_CHECK(c.ok());
        ++wp;
      }
    };
    auto t = body();
    s.Run();
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_ZnsWritePath);

// ---- self-timed counter section ------------------------------------
//
// Complements the google-benchmark numbers above with the figures the
// engine's performance model cares about (DESIGN.md §1, §12): events
// per wall second and heap allocations per event, on the
// pure-scheduling loop, the coroutine resume loop, the task spawn loop
// and the cross-lane handoff loop. Recorded into the shared --json
// results document as `simcore_events_per_sec` /
// `simcore_allocs_per_event`.

struct CounterResult {
  double events_per_sec = 0;
  double allocs_per_event = 0;
  std::uint64_t events = 0;
};

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

CounterResult MeasureEventScheduling(double min_seconds) {
  CounterResult out;
  std::uint64_t allocs0 = g_alloc_count.load(std::memory_order_relaxed);
  auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0;
  do {
    sim::Simulator s;
    for (int i = 0; i < 1000; ++i) {
      s.ScheduleIn(static_cast<sim::Time>(i), [] {});
    }
    s.Run();
    out.events += 1000;
    elapsed = SecondsSince(t0);
  } while (elapsed < min_seconds);
  std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  out.events_per_sec = static_cast<double>(out.events) / elapsed;
  out.allocs_per_event =
      static_cast<double>(allocs) / static_cast<double>(out.events);
  return out;
}

CounterResult MeasureCoroutinePingPong(double min_seconds) {
  CounterResult out;
  std::uint64_t allocs0 = g_alloc_count.load(std::memory_order_relaxed);
  auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0;
  do {
    sim::Simulator s;
    auto body = [&]() -> sim::Task<> {
      for (int i = 0; i < 1000; ++i) co_await s.Delay(1);
    };
    auto t = body();
    s.Run();
    out.events += 1000;
    elapsed = SecondsSince(t0);
  } while (elapsed < min_seconds);
  std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  out.events_per_sec = static_cast<double>(out.events) / elapsed;
  out.allocs_per_event =
      static_cast<double>(allocs) / static_cast<double>(out.events);
  return out;
}

sim::Task<> SpawnedShort(sim::Simulator& s) { co_await s.Delay(1); }

struct Padding {
  char bytes[256];
};
sim::Task<> SpawnedPadded(sim::Simulator& s, Padding pad) {
  co_await s.Delay(1);
  benchmark::DoNotOptimize(pad);
}

// Spawn + complete: each round spawns 1000 one-event tasks of two frame
// sizes into one simulator and runs them. After a warm-up round every
// frame comes from the recycled-frame pool (task.h), so a regression to
// per-spawn heap allocation shows up in allocs/event.
CounterResult MeasureSpawn(double min_seconds) {
  CounterResult out;
  sim::Simulator s;
  auto round = [&s] {
    for (int i = 0; i < 500; ++i) {
      sim::Spawn(SpawnedShort(s));
      sim::Spawn(SpawnedPadded(s, Padding{}));
    }
    s.Run();
  };
  round();
  std::uint64_t allocs0 = g_alloc_count.load(std::memory_order_relaxed);
  auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0;
  do {
    round();
    out.events += 1000;
    elapsed = SecondsSince(t0);
  } while (elapsed < min_seconds);
  std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  out.events_per_sec = static_cast<double>(out.events) / elapsed;
  out.allocs_per_event =
      static_cast<double>(allocs) / static_cast<double>(out.events);
  return out;
}

// Serial-windowed lane handoff: cross-lane messages per wall second
// through the parallel engine's mailbox + window machinery (threads=1,
// so no barrier noise — this is the engine overhead itself).
CounterResult MeasureLaneHandoff(double min_seconds) {
  CounterResult out;
  std::uint64_t allocs0 = g_alloc_count.load(std::memory_order_relaxed);
  auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0;
  do {
    sim::ParallelSimulator ps(2, 250);
    ps.SetSpontaneous(0, true);
    struct PingPong {
      sim::ParallelSimulator* ps;
      int remaining;
      void Send() {
        if (remaining-- == 0) return;
        ps->Post(0, 1, ps->lane(0).now() + 250, sim::MsgKind::kRequest,
                 sim::EventFn([this] {
                   ps->Post(1, 0, ps->lane(1).now() + 250,
                            sim::MsgKind::kReply,
                            sim::EventFn([this] { Send(); }));
                 }));
      }
    } pp{&ps, 500};
    ps.lane(0).ScheduleIn(1, [&pp] { pp.Send(); });
    ps.Run(1);
    out.events += 1000;  // two messages per round trip
    elapsed = SecondsSince(t0);
  } while (elapsed < min_seconds);
  std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  out.events_per_sec = static_cast<double>(out.events) / elapsed;
  out.allocs_per_event =
      static_cast<double>(allocs) / static_cast<double>(out.events);
  return out;
}

void RunCounterSection(double min_seconds) {
  CounterResult sched = MeasureEventScheduling(min_seconds);
  CounterResult ping = MeasureCoroutinePingPong(min_seconds);
  CounterResult spawn = MeasureSpawn(min_seconds);
  CounterResult handoff = MeasureLaneHandoff(min_seconds);

  auto& results = zstor::harness::Results();
  results.Config("counter_min_time_s", min_seconds);
  // The seed revision's numbers on the reference container, for
  // regression context (events/sec in millions).
  results.Config("seed_event_scheduling_meps", 12.2);
  results.Config("seed_coroutine_pingpong_meps", 36.7);
  results.Config("seed_lane_handoff_meps", 19.4);
  results.Series("simcore_events_per_sec", "events/s")
      .AddLabeled("event_scheduling", 0, sched.events_per_sec)
      .AddLabeled("coroutine_pingpong", 1, ping.events_per_sec)
      .AddLabeled("lane_handoff", 2, handoff.events_per_sec)
      .AddLabeled("spawn", 3, spawn.events_per_sec);
  results.Series("simcore_allocs_per_event", "allocs/event")
      .AddLabeled("event_scheduling", 0, sched.allocs_per_event)
      .AddLabeled("coroutine_pingpong", 1, ping.allocs_per_event)
      .AddLabeled("lane_handoff", 2, handoff.allocs_per_event)
      .AddLabeled("spawn", 3, spawn.allocs_per_event);

  zstor::harness::Banner("Simulator counters (self-timed)");
  zstor::harness::Table t(
      {"loop", "events/sec", "allocs/event", "events"});
  t.AddRow({"event scheduling",
            zstor::harness::Fmt(sched.events_per_sec / 1e6, 2) + "M",
            zstor::harness::Fmt(sched.allocs_per_event, 4),
            std::to_string(sched.events)});
  t.AddRow({"coroutine ping-pong",
            zstor::harness::Fmt(ping.events_per_sec / 1e6, 2) + "M",
            zstor::harness::Fmt(ping.allocs_per_event, 4),
            std::to_string(ping.events)});
  t.AddRow({"lane handoff",
            zstor::harness::Fmt(handoff.events_per_sec / 1e6, 2) + "M",
            zstor::harness::Fmt(handoff.allocs_per_event, 4),
            std::to_string(handoff.events)});
  t.AddRow({"task spawn",
            zstor::harness::Fmt(spawn.events_per_sec / 1e6, 2) + "M",
            zstor::harness::Fmt(spawn.allocs_per_event, 4),
            std::to_string(spawn.events)});
  t.Print();
}

}  // namespace

// Strip the shared --trace=/--metrics=/--json=/--logpages= bench flags
// (kept for a uniform CLI; no testbeds are built here) before
// google-benchmark rejects them as unrecognized. Wall-clock numbers live
// in google-benchmark's own reporters; the shared --json output carries
// the self-timed counter section, so its schema stays uniform across
// benches while BENCH_simcore.json doubles as a regression baseline.
int main(int argc, char** argv) {
  zstor::harness::InitBench(argc, argv);
  // `--counter_min_time=SECONDS` sizes the self-timed section (default
  // 0.3 s per loop); strip it before google-benchmark sees it.
  double counter_min_time = 0.3;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* kFlag = "--counter_min_time=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      counter_min_time = std::strtod(argv[i] + std::strlen(kFlag), nullptr);
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  zstor::harness::Results().Config(
      "note", "wall-clock micro-benchmarks; use --benchmark_format=json "
              "for per-benchmark numbers");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  RunCounterSection(counter_min_time);
  return 0;
}
