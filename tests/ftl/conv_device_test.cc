// Conventional-FTL device tests: mapping correctness, GC mechanics, write
// amplification, and the throughput/latency dynamics behind Obs. 11.
#include <gtest/gtest.h>

#include "ftl/conv_device.h"
#include "hostif/host_stack.h"
#include "sim/task.h"
#include "workload/runner.h"

namespace zstor::ftl {
namespace {

using nvme::Opcode;
using nvme::Status;

struct Fixture {
  explicit Fixture(ConvProfile p = TinyConvProfile())
      : dev(sim, std::move(p)), stack(sim, dev) {}

  nvme::Completion Run(nvme::Command cmd, sim::Time* latency = nullptr) {
    nvme::Completion out;
    sim::Time t0 = 0, t1 = 0;
    auto body = [&]() -> sim::Task<> {
      t0 = sim.now();
      auto tc = co_await stack.Submit(cmd);
      out = tc.completion;
      t1 = sim.now();
    };
    auto t = body();
    sim.Run();
    if (latency != nullptr) *latency = t1 - t0;
    return out;
  }

  sim::Simulator sim;
  ConvDevice dev;
  hostif::SpdkStack stack;
};

TEST(ConvDevice, NamespaceIsNotZoned) {
  Fixture f;
  EXPECT_FALSE(f.dev.info().zoned);
  EXPECT_EQ(f.dev.info().capacity_lbas,
            f.dev.profile().logical_bytes() / 4096);
}

TEST(ConvDevice, WritesAndReadsAnywhere) {
  Fixture f;
  // Unlike ZNS, random-address writes just work.
  EXPECT_TRUE(f.Run({.opcode = Opcode::kWrite, .slba = 1000, .nlb = 4}).ok());
  EXPECT_TRUE(f.Run({.opcode = Opcode::kWrite, .slba = 17, .nlb = 1}).ok());
  EXPECT_TRUE(f.Run({.opcode = Opcode::kRead, .slba = 1000, .nlb = 4}).ok());
  EXPECT_EQ(f.dev.counters().writes, 2u);
  EXPECT_EQ(f.dev.counters().reads, 1u);
}

TEST(ConvDevice, OverwritesAreAccepted) {
  Fixture f;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(f.Run({.opcode = Opcode::kWrite, .slba = 5, .nlb = 1}).ok());
  }
  EXPECT_EQ(f.dev.counters().host_rejects, 0u);
  EXPECT_EQ(f.dev.counters().media_errors, 0u);
}

TEST(ConvDevice, OutOfRangeIsRejected) {
  Fixture f;
  auto cap = f.dev.info().capacity_lbas;
  EXPECT_EQ(f.Run({.opcode = Opcode::kWrite, .slba = cap, .nlb = 1}).status,
            Status::kLbaOutOfRange);
  EXPECT_EQ(f.Run({.opcode = Opcode::kRead, .slba = cap - 1, .nlb = 2}).status,
            Status::kLbaOutOfRange);
}

TEST(ConvDevice, ZoneCommandsAreInvalid) {
  Fixture f;
  EXPECT_EQ(f.Run({.opcode = Opcode::kZoneMgmtSend,
                   .slba = 0,
                   .zone_action = nvme::ZoneAction::kReset})
                .status,
            Status::kInvalidOpcode);
  EXPECT_EQ(f.Run({.opcode = Opcode::kAppend, .slba = 0, .nlb = 1}).status,
            Status::kInvalidOpcode);
}

// A tag read-back without a host buffer to land in is refused.
TEST(ConvDevice, TagReadBackWithoutABufferIsAnInvalidField) {
  Fixture f;
  ASSERT_TRUE(f.Run({.opcode = Opcode::kWrite, .slba = 0, .nlb = 4}).ok());
  EXPECT_EQ(f.Run({.opcode = Opcode::kRead,
                   .slba = 0,
                   .nlb = 4,
                   .payload_tag = 1})
                .status,
            Status::kInvalidField);
  EXPECT_EQ(f.dev.counters().reads, 0u);
  EXPECT_TRUE(f.Run({.opcode = Opcode::kRead, .slba = 0, .nlb = 4}).ok());
}

TEST(ConvDevice, PrefillMapsTheWholeLogicalSpace) {
  Fixture f;
  f.dev.DebugPrefill();
  // Every logical unit readable; reads hit NAND (not the buffer).
  EXPECT_TRUE(f.Run({.opcode = Opcode::kRead, .slba = 0, .nlb = 1}).ok());
  sim::Time lat = 0;
  EXPECT_TRUE(
      f.Run({.opcode = Opcode::kRead,
             .slba = f.dev.info().capacity_lbas - 1,
             .nlb = 1},
            &lat)
          .ok());
  EXPECT_GT(sim::ToMicroseconds(lat), 60.0);  // paid a real tR
}

TEST(ConvDevice, SustainedOverwriteTriggersGcAndAmplifiesWrites) {
  Fixture f;
  f.dev.DebugPrefill();
  workload::JobSpec spec;
  spec.op = Opcode::kWrite;
  spec.random = true;
  spec.request_bytes = 16 * 1024;
  spec.queue_depth = 8;
  spec.duration = sim::Seconds(3);
  // Random overwrites over the full device.
  auto r = workload::RunJob(f.sim, f.stack, spec);
  EXPECT_GT(r.ops, 0u);
  EXPECT_EQ(r.errors, 0u);
  const ConvCounters& c = f.dev.counters();
  EXPECT_GT(c.gc_blocks_erased, 0u) << "GC never ran";
  EXPECT_GT(c.gc_units_migrated, 0u);
  // Uniform random traffic at 25% OP: WA comfortably above 1.
  EXPECT_GT(c.WriteAmplification(), 1.3);
  EXPECT_LT(c.WriteAmplification(), 12.0);
}

TEST(ConvDevice, GcPreservesAllData) {
  // Mapping integrity through GC churn: every logical unit written maps
  // to a valid physical unit whose reverse mapping agrees.
  Fixture f;
  f.dev.DebugPrefill();
  workload::JobSpec spec;
  spec.op = Opcode::kWrite;
  spec.random = true;
  spec.request_bytes = 4096;
  spec.queue_depth = 4;
  spec.duration = sim::Seconds(2);
  (void)workload::RunJob(f.sim, f.stack, spec);
  // All reads still succeed after heavy churn.
  for (std::uint64_t lba = 0; lba < f.dev.info().capacity_lbas;
       lba += 97) {
    ASSERT_TRUE(f.Run({.opcode = Opcode::kRead, .slba = lba, .nlb = 1}).ok());
  }
}

TEST(ConvDevice, FreeBlocksStayAboveZeroUnderPressure) {
  Fixture f;
  f.dev.DebugPrefill();
  workload::JobSpec spec;
  spec.op = Opcode::kWrite;
  spec.random = true;
  spec.request_bytes = 16 * 1024;
  spec.queue_depth = 16;
  spec.duration = sim::Seconds(2);
  (void)workload::RunJob(f.sim, f.stack, spec);
  // The GC reserve plus watermarks keep the pool functional (no deadlock
  // happened, or this test would have hung).
  EXPECT_GE(f.dev.counters().gc_blocks_erased, 1u);
}

TEST(ConvDevice, ReadLatencyDegradesUnderWritePressure) {
  // The §III-F mechanism: reads queue behind GC/program/erase die time.
  auto read_p95_us = [](bool with_writes) {
    Fixture f;
    f.dev.DebugPrefill();
    std::vector<std::pair<hostif::Stack*, workload::JobSpec>> jobs;
    workload::JobSpec reader;
    reader.op = Opcode::kRead;
    reader.random = true;
    reader.queue_depth = 4;
    reader.duration = sim::Seconds(2);
    reader.warmup = sim::Milliseconds(500);
    jobs.emplace_back(&f.stack, reader);
    if (with_writes) {
      workload::JobSpec writer;
      writer.op = Opcode::kWrite;
      writer.random = true;
      writer.request_bytes = 16 * 1024;
      writer.queue_depth = 8;
      writer.duration = sim::Seconds(2);
      jobs.emplace_back(&f.stack, writer);
    }
    auto results = workload::RunJobs(f.sim, std::move(jobs));
    return results[0].latency.p95_ns() / 1000.0;
  };
  double idle = read_p95_us(false);
  double busy = read_p95_us(true);
  EXPECT_GT(busy, 3.0 * idle);
}

TEST(ConvDevice, WriteThroughputFluctuatesUnderGc) {
  // Obs. 11's conventional half: unlimited random writes produce a high
  // coefficient of variation in the throughput-over-time series.
  Fixture f;
  f.dev.DebugPrefill();
  workload::JobSpec spec;
  spec.op = Opcode::kWrite;
  spec.random = true;
  spec.request_bytes = 16 * 1024;
  spec.queue_depth = 16;
  spec.duration = sim::Seconds(4);
  spec.series_bin = sim::Milliseconds(100);
  auto r = workload::RunJob(f.sim, f.stack, spec);
  // Skip the pre-GC honeymoon (first second). The tiny device reaches a
  // fairly steady GC-limited regime; full-scale contrast with ZNS is
  // asserted in calibration (Obs. 11 via the Fig. 6 experiment).
  auto cv = r.series.RateMoments(10).cv();
  EXPECT_GT(cv, 0.10);
}

}  // namespace
}  // namespace zstor::ftl
