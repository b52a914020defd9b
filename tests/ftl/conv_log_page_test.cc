// Conventional-device log pages: the SMART log must mirror the FTL's
// counters — including GC activity and the write-amplification figure
// the paper's Fig. 6 explanation rests on — and the Die Utilization log
// must mirror the flash array.
#include <gtest/gtest.h>

#include "ftl/conv_device.h"
#include "sim/task.h"
#include "workload/runner.h"
#include "hostif/host_stack.h"
#include "ztrace/json_value.h"

namespace zstor::ftl {
namespace {

using nvme::Opcode;
using ztrace::JsonValue;

TEST(ConvSmartLog, MirrorsCountersAndFlashActivity) {
  sim::Simulator sim;
  ConvDevice dev(sim, TinyConvProfile());
  hostif::SpdkStack stack(sim, dev);
  auto body = [&]() -> sim::Task<> {
    for (int i = 0; i < 8; ++i) {
      auto w = co_await stack.Submit(
          {.opcode = Opcode::kWrite, .slba = static_cast<nvme::Lba>(i * 8),
           .nlb = 8});
      EXPECT_TRUE(w.completion.ok());
    }
    auto r = co_await stack.Submit(
        {.opcode = Opcode::kRead, .slba = 0, .nlb = 8});
    EXPECT_TRUE(r.completion.ok());
  };
  auto t = body();
  sim.Run();

  nvme::SmartLog s = dev.GetSmartLog();
  EXPECT_EQ(s.device, "conv");
  EXPECT_EQ(s.host_writes, dev.counters().writes);
  EXPECT_EQ(s.host_reads, dev.counters().reads);
  EXPECT_EQ(s.bytes_written, dev.counters().bytes_written);
  EXPECT_EQ(s.media_page_programs, dev.flash().counters().page_programs);
  EXPECT_GT(s.media_page_programs, 0u);
  EXPECT_DOUBLE_EQ(s.write_amplification,
                   dev.counters().WriteAmplification());
  // Zone fields never apply to the conventional model.
  EXPECT_EQ(s.zone_resets, 0u);
  EXPECT_EQ(s.zone_transitions, 0u);
}

TEST(ConvSmartLog, ReportsGcActivityOnceItRuns) {
  // A prefilled device under sustained random overwrites must invoke GC;
  // the SMART log carries the invocation count and the resulting WA > 1.
  sim::Simulator sim;
  ConvDevice dev(sim, TinyConvProfile());
  dev.DebugPrefill();
  hostif::SpdkStack stack(sim, dev);
  workload::JobSpec spec;
  spec.op = Opcode::kWrite;
  spec.random = true;
  spec.request_bytes = 64 * 1024;
  spec.queue_depth = 8;
  spec.duration = sim::Seconds(2);
  workload::RunJob(sim, stack, spec);

  nvme::SmartLog s = dev.GetSmartLog();
  EXPECT_EQ(s.gc_invocations, dev.counters().gc_invocations);
  EXPECT_EQ(s.gc_units_migrated, dev.counters().gc_units_migrated);
  EXPECT_EQ(s.gc_blocks_erased, dev.counters().gc_blocks_erased);
  EXPECT_GT(s.gc_invocations, 0u);
  EXPECT_GT(s.gc_units_migrated, 0u);
  EXPECT_GT(s.write_amplification, 1.0);

  nvme::DieUtilLog dies = dev.GetDieUtilLog();
  ASSERT_FALSE(dies.dies.empty());
  std::uint64_t erases = 0;
  for (const auto& d : dies.dies) {
    EXPECT_GE(d.utilization, 0.0);
    EXPECT_LE(d.utilization, 1.0);
    erases += d.erases;
  }
  EXPECT_EQ(erases, dev.flash().counters().block_erases);
  EXPECT_GT(erases, 0u);
}

TEST(ConvSmartLog, JsonRendersAndParses) {
  sim::Simulator sim;
  ConvDevice dev(sim, TinyConvProfile());
  auto parsed = JsonValue::Parse(dev.GetSmartLog().ToJson());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->StringOr("device", ""), "conv");
  EXPECT_DOUBLE_EQ(parsed->NumberOr("write_amplification", 0), 1.0);
}

}  // namespace
}  // namespace zstor::ftl
