// Workload engine tests: job mechanics, rate limiting, zone policies,
// statistics windows — on the Tiny device so they run instantly.
#include <gtest/gtest.h>

#include "hostif/host_stack.h"
#include "workload/runner.h"
#include "zns/zns_device.h"

namespace zstor::workload {
namespace {

using hostif::SpdkStack;
using nvme::Opcode;
using zns::ZnsProfile;

struct Fixture {
  explicit Fixture(ZnsProfile p = QuietProfile())
      : dev(sim, std::move(p)), stack(sim, dev) {}

  static ZnsProfile QuietProfile() {
    ZnsProfile p = zns::TinyProfile();
    p.io_sigma = 0;
    p.reset.sigma = 0;
    p.finish.sigma = 0;
    return p;
  }

  sim::Simulator sim;
  zns::ZnsDevice dev;
  SpdkStack stack;
};

TEST(Runner, SequentialWriteJobWritesExpectedBytes) {
  Fixture f;
  JobSpec spec;
  spec.op = Opcode::kWrite;
  spec.request_bytes = 16 * 1024;
  spec.zones = {0, 1};
  spec.duration = sim::Milliseconds(50);
  JobResult r = RunJob(f.sim, f.stack, spec);
  EXPECT_GT(r.ops, 0u);
  EXPECT_EQ(r.bytes, r.ops * spec.request_bytes);
  EXPECT_EQ(r.errors, 0u);
  // Device saw exactly what the job acknowledged (plus nothing).
  EXPECT_EQ(f.dev.counters().bytes_written, r.bytes);
}

TEST(Runner, WriterAdvancesAcrossZonesWhenFull) {
  Fixture f;
  JobSpec spec;
  spec.op = Opcode::kWrite;
  spec.request_bytes = 256 * 1024;
  spec.zones = {0, 1, 2};
  spec.on_full = JobSpec::OnFull::kAdvance;
  spec.duration = sim::Seconds(5);  // long enough to fill all three
  JobResult r = RunJob(f.sim, f.stack, spec);
  EXPECT_EQ(f.dev.GetZoneState(0), zns::ZoneState::kFull);
  EXPECT_EQ(f.dev.GetZoneState(1), zns::ZoneState::kFull);
  EXPECT_EQ(f.dev.GetZoneState(2), zns::ZoneState::kFull);
  // 3 zones x 3 MiB cap.
  EXPECT_EQ(r.bytes, 3u * 3 * 1024 * 1024);
  EXPECT_EQ(r.errors, 0u);
}

TEST(Runner, WriterStopsWhenConfiguredTo) {
  Fixture f;
  JobSpec spec;
  spec.op = Opcode::kWrite;
  spec.request_bytes = 256 * 1024;
  spec.zones = {0};
  spec.on_full = JobSpec::OnFull::kStop;
  spec.duration = sim::Seconds(5);
  JobResult r = RunJob(f.sim, f.stack, spec);
  EXPECT_EQ(r.bytes, 3u * 1024 * 1024);  // exactly one zone capacity
}

TEST(Runner, WriterResetsAndRecyclesZone) {
  Fixture f;
  JobSpec spec;
  spec.op = Opcode::kWrite;
  spec.request_bytes = 256 * 1024;
  spec.zones = {0};
  spec.on_full = JobSpec::OnFull::kReset;
  spec.duration = sim::Seconds(2);
  JobResult r = RunJob(f.sim, f.stack, spec);
  // Wrote more than one zone capacity: the zone was recycled.
  EXPECT_GT(r.bytes, 3u * 1024 * 1024);
  EXPECT_GT(f.dev.counters().resets, 0u);
  EXPECT_GT(r.reset_latency.count(), 0u);
  EXPECT_EQ(r.errors, 0u);
}

TEST(Runner, RandomAppendJobSpreadsOverZones) {
  Fixture f;
  JobSpec spec;
  spec.op = Opcode::kAppend;
  spec.random = true;
  spec.request_bytes = 16 * 1024;
  spec.zones = {0, 1, 2};
  spec.duration = sim::Milliseconds(20);
  JobResult r = RunJob(f.sim, f.stack, spec);
  EXPECT_EQ(r.errors, 0u);
  int zones_touched = 0;
  for (std::uint32_t z : {0u, 1u, 2u}) {
    if (f.dev.ZoneWrittenBytes(z) > 0) ++zones_touched;
  }
  EXPECT_GE(zones_touched, 2);
}

TEST(Runner, RandomReadJobStaysInBounds) {
  Fixture f;
  f.dev.DebugFillZone(0, f.dev.profile().zone_cap_bytes);
  f.dev.DebugFillZone(1, f.dev.profile().zone_cap_bytes);
  JobSpec spec;
  spec.op = Opcode::kRead;
  spec.random = true;
  spec.request_bytes = 4096;
  spec.zones = {0, 1};
  spec.duration = sim::Milliseconds(20);
  JobResult r = RunJob(f.sim, f.stack, spec);
  EXPECT_GT(r.ops, 0u);
  EXPECT_EQ(r.errors, 0u);
}

TEST(Runner, RateLimitCapsThroughput) {
  Fixture f;
  f.dev.DebugFillZone(0, f.dev.profile().zone_cap_bytes);
  JobSpec spec;
  spec.op = Opcode::kRead;
  spec.random = true;
  spec.request_bytes = 4096;
  spec.queue_depth = 8;
  spec.zones = {0};
  spec.rate_bytes_per_sec = 1.0 * 1024 * 1024;  // 1 MiB/s
  spec.duration = sim::Seconds(1);
  JobResult r = RunJob(f.sim, f.stack, spec);
  EXPECT_NEAR(r.MibPerSec(), 1.0, 0.1);
}

TEST(Runner, UnlimitedReadThroughputExceedsRateLimited) {
  auto run = [](double rate) {
    Fixture f;
    f.dev.DebugFillZone(0, f.dev.profile().zone_cap_bytes);
    JobSpec spec;
    spec.op = Opcode::kRead;
    spec.random = true;
    spec.queue_depth = 4;
    spec.zones = {0};
    spec.rate_bytes_per_sec = rate;
    spec.duration = sim::Milliseconds(200);
    return RunJob(f.sim, f.stack, spec).BytesPerSec();
  };
  EXPECT_GT(run(0), 2 * run(512.0 * 1024));
}

TEST(Runner, WarmupExcludesEarlyCompletions) {
  Fixture f;
  f.dev.DebugFillZone(0, f.dev.profile().zone_cap_bytes);
  JobSpec with_warmup;
  with_warmup.op = Opcode::kRead;
  with_warmup.zones = {0};
  with_warmup.duration = sim::Milliseconds(100);
  with_warmup.warmup = sim::Milliseconds(50);
  JobResult r = RunJob(f.sim, f.stack, with_warmup);
  EXPECT_EQ(r.measured_span, sim::Milliseconds(50));
  // IOPS over the window should match the device's read rate regardless
  // of the warmup cut.
  EXPECT_GT(r.Iops(), 1000.0);
}

TEST(Runner, QueueDepthRaisesReadThroughput) {
  auto run = [](std::uint32_t qd) {
    Fixture f;
    f.dev.DebugFillZone(0, f.dev.profile().zone_cap_bytes);
    JobSpec spec;
    spec.op = Opcode::kRead;
    spec.random = true;
    spec.queue_depth = qd;
    spec.zones = {0};
    spec.duration = sim::Milliseconds(100);
    return RunJob(f.sim, f.stack, spec).Iops();
  };
  double q1 = run(1), q4 = run(4);
  EXPECT_GT(q4, 2.0 * q1);  // Tiny device has 4 dies: QD4 ~ up to 4x
}

TEST(Runner, PartitionedWorkersSplitZonesEvenly) {
  Fixture f;
  JobSpec spec;
  spec.op = Opcode::kWrite;
  spec.workers = 3;
  spec.partition_zones = true;
  spec.request_bytes = 16 * 1024;
  spec.zones = {0, 1, 2};
  spec.duration = sim::Milliseconds(10);
  JobResult r = RunJob(f.sim, f.stack, spec);
  EXPECT_EQ(r.errors, 0u);
  // Each worker wrote its own zone.
  EXPECT_GT(f.dev.ZoneWrittenBytes(0), 0u);
  EXPECT_GT(f.dev.ZoneWrittenBytes(1), 0u);
  EXPECT_GT(f.dev.ZoneWrittenBytes(2), 0u);
}

TEST(Runner, MgmtJobResetsItsZoneList) {
  Fixture f;
  for (std::uint32_t z = 0; z < 4; ++z) {
    f.dev.DebugFillZone(z, f.dev.profile().zone_cap_bytes);
  }
  JobSpec spec;
  spec.op = Opcode::kZoneMgmtSend;
  spec.zone_action = nvme::ZoneAction::kReset;
  spec.zones = {0, 1, 2, 3};
  spec.duration = sim::Seconds(5);
  JobResult r = RunJob(f.sim, f.stack, spec);
  EXPECT_EQ(r.ops, 4u);
  EXPECT_GT(r.latency.mean_ns(), 0.0);
  for (std::uint32_t z = 0; z < 4; ++z) {
    EXPECT_EQ(f.dev.GetZoneState(z), zns::ZoneState::kEmpty);
  }
}

TEST(Runner, ConcurrentJobsShareTheDevice) {
  Fixture f;
  f.dev.DebugFillZone(7, f.dev.profile().zone_cap_bytes);
  JobSpec writer;
  writer.op = Opcode::kAppend;
  writer.zones = {0};
  writer.on_full = JobSpec::OnFull::kReset;
  writer.request_bytes = 16 * 1024;
  writer.duration = sim::Milliseconds(50);
  JobSpec reader;
  reader.op = Opcode::kRead;
  reader.random = true;
  reader.zones = {7};
  reader.duration = sim::Milliseconds(50);
  auto results = RunJobs(f.sim, {{&f.stack, writer}, {&f.stack, reader}});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_GT(results[0].ops, 0u);
  EXPECT_GT(results[1].ops, 0u);
  EXPECT_EQ(results[0].errors + results[1].errors, 0u);
}

TEST(Runner, SeriesRecordsThroughputOverTime) {
  Fixture f;
  f.dev.DebugFillZone(0, f.dev.profile().zone_cap_bytes);
  JobSpec spec;
  spec.op = Opcode::kRead;
  spec.random = true;
  spec.zones = {0};
  spec.duration = sim::Milliseconds(100);
  spec.series_bin = sim::Milliseconds(10);
  JobResult r = RunJob(f.sim, f.stack, spec);
  EXPECT_GE(r.series.num_bins(), 9u);
  // Steady single-op workload: roughly flat rate series over the interior
  // bins (the first and last bins are partially filled).
  sim::Welford interior;
  for (std::size_t i = 1; i + 1 < r.series.num_bins(); ++i) {
    interior.Record(r.series.BinRate(i));
  }
  EXPECT_LT(interior.cv(), 0.2);
}

}  // namespace
}  // namespace zstor::workload
