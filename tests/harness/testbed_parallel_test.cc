// Parallel-engine Testbed tests (DESIGN.md §12): WithSimThreads wiring,
// workload sharding across device lanes, and the determinism contract —
// results, device counters and timeline bytes must be identical for
// every worker-thread count, including under fault and power-loss
// injection, because N=1 executes the same bounded-window schedule
// serially.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "harness/testbed.h"
#include "workload/job.h"
#include "zns/zns_device.h"

namespace zstor {
namespace {

zns::ZnsProfile QuietTiny() {
  zns::ZnsProfile p = zns::TinyProfile();
  p.io_sigma = 0;
  p.reset.sigma = 0;
  p.finish.sigma = 0;
  return p;
}

workload::JobSpec ShardableAppendSpec(Testbed& tb, std::uint32_t ndev) {
  workload::JobSpec spec;
  spec.op = nvme::Opcode::kAppend;
  spec.request_bytes = 4096;
  spec.queue_depth = 2;
  spec.workers = ndev;
  spec.zones = tb.ZoneList(0, ndev);  // one zone -> one device per worker
  spec.partition_zones = true;
  spec.duration = sim::Milliseconds(10);
  spec.seed = 42;
  return spec;
}

struct RunOutcome {
  workload::JobResult result;
  std::vector<zns::ZnsCounters> counters;
  std::string timeline;
  /// The trace the lanes replayed into the testbed's ring at Finish.
  std::vector<telemetry::TraceEvent> trace;
};

/// Holds every event of the runs below without wrapping.
constexpr std::size_t kRingEvents = 1 << 16;

/// Command ids carry a per-testbed epoch in their top bits, which
/// differs between two testbeds in one process; the rest of the id is
/// allocated per lane and must match.
constexpr std::uint64_t kCmdIdMask =
    (1ull << telemetry::Tracer::kIdEpochShift) - 1;

/// Copies the ring's events out of a finished testbed.
std::vector<telemetry::TraceEvent> HarvestTrace(Testbed& tb) {
  EXPECT_NE(tb.ring(), nullptr);
  if (tb.ring() == nullptr) return {};
  EXPECT_EQ(tb.ring()->dropped(), 0u);
  EXPECT_GT(tb.ring()->total_events(), 0u);
  return tb.ring()->Events();
}

/// One complete experiment at a given thread count: build, run, finish,
/// harvest everything the determinism contract covers.
template <typename SpecFn>
RunOutcome RunAt(int sim_threads, std::uint32_t ndev, SpecFn make_spec,
                 const fault::FaultSpec* faults = nullptr) {
  RunOutcome out;
  TestbedBuilder b;
  TelemetryConfig cfg;
  cfg.ring_capacity = kRingEvents;
  cfg.timeline_capture = &out.timeline;
  cfg.sample_interval = sim::Milliseconds(2);
  b.WithZnsProfile(QuietTiny())
      .WithDevices(ndev)
      .WithStack(StackChoice::kSpdk)
      .WithTelemetry(cfg)
      .WithLabel("par")
      .WithSimThreads(sim_threads);
  if (faults != nullptr) b.WithFaults(*faults);
  Testbed tb = b.Build();
  out.result = tb.RunJob(make_spec(tb, ndev));
  for (std::uint32_t d = 0; d < ndev; ++d) {
    out.counters.push_back(tb.zns(d)->counters());
  }
  tb.Finish();
  out.trace = HarvestTrace(tb);
  return out;
}

void ExpectSameOutcome(const RunOutcome& a, const RunOutcome& b,
                       const char* what) {
  EXPECT_EQ(a.result.ops, b.result.ops) << what;
  EXPECT_EQ(a.result.bytes, b.result.bytes) << what;
  EXPECT_EQ(a.result.errors, b.result.errors) << what;
  EXPECT_EQ(a.result.measured_span, b.result.measured_span) << what;
  EXPECT_EQ(a.result.latency.count(), b.result.latency.count()) << what;
  EXPECT_DOUBLE_EQ(a.result.latency.mean_ns(), b.result.latency.mean_ns())
      << what;
  EXPECT_DOUBLE_EQ(a.result.latency.max_ns(), b.result.latency.max_ns())
      << what;
  ASSERT_EQ(a.counters.size(), b.counters.size()) << what;
  for (std::size_t d = 0; d < a.counters.size(); ++d) {
    EXPECT_EQ(a.counters[d].appends, b.counters[d].appends)
        << what << " d=" << d;
    EXPECT_EQ(a.counters[d].reads, b.counters[d].reads) << what << " d=" << d;
    EXPECT_EQ(a.counters[d].bytes_written, b.counters[d].bytes_written)
        << what << " d=" << d;
    EXPECT_EQ(a.counters[d].media_errors, b.counters[d].media_errors)
        << what << " d=" << d;
    EXPECT_EQ(a.counters[d].crashes, b.counters[d].crashes)
        << what << " d=" << d;
    EXPECT_EQ(a.counters[d].recoveries, b.counters[d].recoveries)
        << what << " d=" << d;
  }
  EXPECT_EQ(a.timeline, b.timeline) << what;  // byte-for-byte
  ASSERT_EQ(a.trace.size(), b.trace.size()) << what;
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    const telemetry::TraceEvent& x = a.trace[i];
    const telemetry::TraceEvent& y = b.trace[i];
    EXPECT_EQ(x.begin, y.begin) << what << " event " << i;
    EXPECT_EQ(x.end, y.end) << what << " event " << i;
    EXPECT_EQ(x.cmd & kCmdIdMask, y.cmd & kCmdIdMask) << what << " event " << i;
    EXPECT_EQ(x.layer, y.layer) << what << " event " << i;
    EXPECT_STREQ(x.name, y.name) << what << " event " << i;
    EXPECT_EQ(x.a, y.a) << what << " event " << i;
    EXPECT_EQ(x.b, y.b) << what << " event " << i;
  }
}

TEST(TestbedParallel, WithSimThreadsBuildsParallelWiring) {
  Testbed tb = TestbedBuilder()
                   .WithZnsProfile(QuietTiny())
                   .WithDevices(3)
                   .WithSimThreads(2)
                   .Build();
  ASSERT_NE(tb.parallel_sim(), nullptr);
  EXPECT_EQ(tb.parallel_sim()->num_lanes(), 4u);  // coordinator + 3 devices
  EXPECT_EQ(tb.sim_threads(), 2);
  EXPECT_EQ(&tb.sim(), &tb.parallel_sim()->lane(0));
  ASSERT_NE(tb.striped(), nullptr);
  for (std::size_t d = 0; d < 3; ++d) {
    EXPECT_NE(tb.lane_view(d), nullptr) << "d=" << d;
  }
}

TEST(TestbedParallel, SimThreadsZeroAndSingleDeviceStayClassic) {
  Testbed forced_off = TestbedBuilder()
                           .WithZnsProfile(QuietTiny())
                           .WithDevices(2)
                           .WithSimThreads(0)
                           .Build();
  EXPECT_EQ(forced_off.parallel_sim(), nullptr);
  Testbed single = TestbedBuilder()
                       .WithZnsProfile(QuietTiny())
                       .WithSimThreads(4)
                       .Build();
  EXPECT_EQ(single.parallel_sim(), nullptr);
  EXPECT_EQ(single.sim_threads(), 0);
}

TEST(TestbedParallel, ShardedAppendIsThreadCountInvariant) {
  RunOutcome ref = RunAt(1, 4, ShardableAppendSpec);
  EXPECT_GT(ref.result.ops, 0u);
  EXPECT_EQ(ref.result.errors, 0u);
  for (std::size_t d = 0; d < 4; ++d) {
    EXPECT_GT(ref.counters[d].appends, 0u) << "d=" << d;
  }
  ExpectSameOutcome(ref, RunAt(2, 4, ShardableAppendSpec), "threads=2");
  ExpectSameOutcome(ref, RunAt(4, 4, ShardableAppendSpec), "threads=4");
}

/// Random reads across every zone from every worker cannot shard (each
/// worker touches all devices), so the job runs on the coordinator and
/// every command crosses lanes through the MailboxStack proxies.
workload::JobSpec ProxiedReadSpec(Testbed& tb, std::uint32_t ndev) {
  workload::JobSpec spec;
  spec.op = nvme::Opcode::kRead;
  spec.random = true;
  spec.request_bytes = 4096;
  spec.queue_depth = 4;
  spec.workers = 2;
  spec.zones = tb.ZoneList(0, 2 * ndev);
  spec.duration = sim::Milliseconds(5);
  spec.seed = 7;
  return spec;
}

template <typename SpecFn>
RunOutcome RunFilledAt(int sim_threads, std::uint32_t ndev,
                       SpecFn make_spec) {
  RunOutcome out;
  TestbedBuilder b;
  TelemetryConfig cfg;
  cfg.ring_capacity = kRingEvents;
  cfg.timeline_capture = &out.timeline;
  cfg.sample_interval = sim::Milliseconds(2);
  Testbed tb = b.WithZnsProfile(QuietTiny())
                   .WithDevices(ndev)
                   .WithTelemetry(cfg)
                   .WithLabel("par")
                   .WithSimThreads(sim_threads)
                   .Build();
  tb.FillZones(0, 2 * ndev);
  out.result = tb.RunJob(make_spec(tb, ndev));
  for (std::uint32_t d = 0; d < ndev; ++d) {
    out.counters.push_back(tb.zns(d)->counters());
  }
  tb.Finish();
  out.trace = HarvestTrace(tb);
  return out;
}

TEST(TestbedParallel, ProxiedReadsCrossLanesAndStayInvariant) {
  RunOutcome ref = RunFilledAt(1, 2, ProxiedReadSpec);
  EXPECT_GT(ref.result.ops, 0u);
  EXPECT_EQ(ref.result.errors, 0u);
  ExpectSameOutcome(ref, RunFilledAt(2, 2, ProxiedReadSpec), "threads=2");
  ExpectSameOutcome(ref, RunFilledAt(3, 2, ProxiedReadSpec), "threads=3");
}

TEST(TestbedParallel, ProxiedReadsActuallyUseTheMailboxes) {
  TestbedBuilder b;
  Testbed tb = b.WithZnsProfile(QuietTiny())
                   .WithDevices(2)
                   .WithTelemetry({.ring_capacity = 1})
                   .WithSimThreads(2)
                   .Build();
  tb.FillZones(0, 4);
  workload::JobSpec spec = ProxiedReadSpec(tb, 2);
  workload::JobResult r = tb.RunJob(spec);
  EXPECT_GT(r.ops, 0u);
  // Every proxied command is one kRequest plus one kReply.
  EXPECT_GE(tb.parallel_sim()->messages(), 2 * r.ops);
  EXPECT_GT(tb.parallel_sim()->windows(), 1u);
  // Snapshots (--metrics) carry the same engine shape.
  telemetry::Snapshot snap = tb.TakeSnapshot();
  ASSERT_NE(snap.Find("psim.messages"), nullptr);
  ASSERT_NE(snap.Find("psim.windows"), nullptr);
  EXPECT_EQ(snap.Find("psim.messages")->value,
            static_cast<double>(tb.parallel_sim()->messages()));
  EXPECT_EQ(snap.Find("psim.windows")->value,
            static_cast<double>(tb.parallel_sim()->windows()));
  EXPECT_EQ(snap.Find("sim.events"), nullptr);  // classic engine only
}

/// Resets beside appends: a reset job walks full zones on every device
/// while an append job keeps every device busy, so the resets run in
/// background slices that fold up to each window horizon (DESIGN.md §3,
/// item 5). The resets shard, one worker per device; each append worker
/// writes zones on both devices, so the appends run on the coordinator
/// and reach the folding device lanes through the mailboxes. The appends
/// are rate-limited, so a device lane often owes no reply and its window
/// horizon comes from the coordinator: the appends then land inside
/// what would otherwise be one long fold.
struct ResetOutcome {
  std::vector<workload::JobResult> results;  // resets, appends
  std::vector<zns::ZnsCounters> counters;
  std::string timeline;
  std::uint64_t windows = 0;  // lane engine only
};

ResetOutcome RunResetsBesideAppends(int sim_threads) {
  constexpr std::uint32_t kDevs = 2;
  ResetOutcome out;
  TelemetryConfig cfg;
  cfg.timeline_capture = &out.timeline;
  cfg.sample_interval = sim::Milliseconds(2);
  zns::ZnsProfile p = QuietTiny();
  p.reset.coef = sim::Milliseconds(1);  // 3.5 ms per full zone
  Testbed tb = TestbedBuilder()
                   .WithZnsProfile(p)
                   .WithDevices(kDevs)
                   .WithStack(StackChoice::kSpdk)
                   .WithTelemetry(cfg)
                   .WithLabel("par")
                   .WithSimThreads(sim_threads)
                   .Build();
  tb.FillZones(0, 2 * kDevs);
  workload::JobSpec resets;
  resets.op = nvme::Opcode::kZoneMgmtSend;
  resets.zone_action = nvme::ZoneAction::kReset;
  resets.workers = kDevs;
  resets.partition_zones = true;
  // Logical zone z lives on device z % kDevs: give each worker the two
  // full zones of its own device.
  for (std::uint32_t d = 0; d < kDevs; ++d) {
    for (std::uint32_t k = 0; k < 2; ++k) resets.zones.push_back(k * kDevs + d);
  }
  resets.duration = sim::Milliseconds(30);  // ends when zones run out
  workload::JobSpec appends = ShardableAppendSpec(tb, kDevs);
  appends.zones = tb.ZoneList(2 * kDevs, 3 * kDevs);
  appends.duration = sim::Milliseconds(12);
  appends.rate_bytes_per_sec = 4096.0 * 20000;  // one append per 50 us
  out.results = tb.RunJobs({resets, appends});
  if (tb.parallel_sim() != nullptr) out.windows = tb.parallel_sim()->windows();
  for (std::uint32_t d = 0; d < kDevs; ++d) {
    out.counters.push_back(tb.zns(d)->counters());
  }
  tb.Finish();
  return out;
}

TEST(TestbedParallel, ResetsBesideAppendsMatchOnEveryEngine) {
  ResetOutcome ref = RunResetsBesideAppends(1);
  ASSERT_EQ(ref.results.size(), 2u);
  EXPECT_EQ(ref.results[0].ops, 4u);  // every full zone was reset
  EXPECT_EQ(ref.results[0].errors, 0u);
  EXPECT_EQ(ref.results[1].ops, 439u);
  EXPECT_EQ(ref.results[1].errors, 0u);
  EXPECT_GT(ref.windows, 1u);
  ResetOutcome two = RunResetsBesideAppends(2);
  for (std::size_t j = 0; j < 2; ++j) {
    ExpectSameOutcome({ref.results[j], ref.counters, ref.timeline},
                      {two.results[j], two.counters, two.timeline},
                      j == 0 ? "threads=2 resets" : "threads=2 appends");
  }
  // A coordinator command pays one interconnect hop each way on the
  // lanes (lane_stacks.h) and none on the classic engine, so each engine
  // is pinned to its own exact figures: a fold that moved any event
  // would move them.
  ResetOutcome classic = RunResetsBesideAppends(0);
  ASSERT_EQ(classic.results.size(), 2u);
  EXPECT_EQ(classic.results[0].ops, 4u);
  EXPECT_EQ(classic.results[1].ops, 439u);
  EXPECT_EQ(ref.results[0].latency.mean_ns(), 3641139.0);
  EXPECT_EQ(classic.results[0].latency.mean_ns(), 3644777.5);
  EXPECT_EQ(ref.results[0].latency.max_ns(), 3789050.0);
  EXPECT_EQ(classic.results[0].latency.max_ns(), 3789050.0);
  EXPECT_DOUBLE_EQ(ref.results[1].latency.mean_ns(), 16617.612756264243);
  EXPECT_DOUBLE_EQ(classic.results[1].latency.mean_ns(), 16116.560364464702);
  EXPECT_EQ(ref.results[1].latency.max_ns(), 24050.0);
  EXPECT_EQ(classic.results[1].latency.max_ns(), 23550.0);
  for (std::size_t d = 0; d < 2; ++d) {
    EXPECT_EQ(classic.counters[d].resets, ref.counters[d].resets);
    EXPECT_EQ(classic.counters[d].appends, ref.counters[d].appends);
  }
}

TEST(TestbedParallel, CrashInjectionMatchesSingleThreadedReference) {
  // Power losses mid-append plus uncorrectable read noise: the retry
  // layer pins jobs to the coordinator, the per-device crash drivers
  // fire lane-locally, and the whole run must still be thread-count
  // invariant.
  fault::FaultSpec fs;
  fs.enabled = true;
  fs.seed = 99;
  fs.crashes = {sim::Milliseconds(3), sim::Milliseconds(7)};
  RunOutcome ref = RunAt(1, 3, ShardableAppendSpec, &fs);
  EXPECT_GT(ref.result.ops, 0u);
  std::uint64_t crashes = 0;
  for (const auto& c : ref.counters) crashes += c.crashes;
  EXPECT_GT(crashes, 0u);
  ExpectSameOutcome(ref, RunAt(2, 3, ShardableAppendSpec, &fs), "threads=2");
  ExpectSameOutcome(ref, RunAt(4, 3, ShardableAppendSpec, &fs), "threads=4");
}

TEST(TestbedParallel, LaneTelemetryMergesIntoFinalSnapshot) {
  std::string timeline;
  TelemetryConfig cfg;
  cfg.timeline_capture = &timeline;
  cfg.sample_interval = sim::Milliseconds(2);
  Testbed tb = TestbedBuilder()
                   .WithZnsProfile(QuietTiny())
                   .WithDevices(2)
                   .WithTelemetry(cfg)
                   .WithLabel("merge")
                   .WithSimThreads(2)
                   .Build();
  workload::JobSpec spec = ShardableAppendSpec(tb, 2);
  workload::JobResult r = tb.RunJob(spec);
  telemetry::Snapshot snap = tb.TakeSnapshot();
  // The aggregate "zns." counters must cover BOTH device lanes even
  // though the devices live outside the coordinator's registry.
  std::uint64_t appends = 0;
  for (std::uint32_t d = 0; d < 2; ++d) appends += tb.zns(d)->counters().appends;
  const auto* m = snap.Find("zns.appends");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->value, static_cast<double>(appends));
  EXPECT_GE(appends, static_cast<std::uint64_t>(r.ops));
  tb.Finish();
  // Lane timelines were concatenated in lane order; every lane's label
  // must appear in the merged capture.
  EXPECT_NE(timeline.find("\"merge\""), std::string::npos);
  EXPECT_NE(timeline.find("merge/lane0"), std::string::npos);
  EXPECT_NE(timeline.find("merge/lane1"), std::string::npos);
}

}  // namespace
}  // namespace zstor
