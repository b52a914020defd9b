// End-to-end fault injection: the full degradation lifecycle driven
// through the public NVMe command path (Testbed -> host stack -> device),
// host-side retries recovering transient read errors, and the log pages
// reflecting all of it.
#include <gtest/gtest.h>

#include <cstdint>

#include "fault/fault_plan.h"
#include "harness/testbed.h"
#include "hostif/resilient_stack.h"
#include "nvme/log_page.h"

namespace zstor {
namespace {

using nvme::Status;
using zns::ZoneState;

zns::ZnsProfile QuietTiny() {
  zns::ZnsProfile p = zns::TinyProfile();
  p.io_sigma = 0;
  p.reset.sigma = 0;
  p.finish.sigma = 0;
  return p;
}

/// Runs one command through the testbed's (resilient) stack and drains the
/// simulator to idle, so background NAND programs — and any degradation
/// they cause — have fully settled before the next assertion.
nvme::Completion RunCmd(Testbed& tb, nvme::Command cmd) {
  nvme::Completion out;
  auto body = [&]() -> sim::Task<> {
    nvme::TimedCompletion tc = co_await tb.stack().Submit(cmd);
    out = tc.completion;
  };
  auto t = body();
  tb.sim().Run();
  return out;
}

nvme::Completion WriteAtWp(Testbed& tb, std::uint32_t zone,
                           std::uint32_t nlb) {
  return RunCmd(tb, {.opcode = nvme::Opcode::kWrite,
                  .slba = tb.zns()->ZoneWritePointerLba(zone),
                  .nlb = nlb});
}

nvme::Completion Read(Testbed& tb, std::uint32_t zone, std::uint64_t off,
                      std::uint32_t nlb) {
  return RunCmd(tb, {.opcode = nvme::Opcode::kRead,
                  .slba = tb.zns()->ZoneStartLba(zone) + off,
                  .nlb = nlb});
}

TEST(FaultInjection, DegradationLifecycleThroughThePublicCommandPath) {
  // One spare block: the first program failure degrades its zone to
  // ReadOnly (spare consumed), the second exhausts the spares and sends
  // that zone Offline. Every program fails under this plan.
  zns::ZnsProfile p = QuietTiny();
  p.spare_blocks = 1;
  fault::FaultSpec spec;
  spec.enabled = true;
  spec.program_fail_rate = 1.0;
  spec.seed = 7;
  Testbed tb = TestbedBuilder()
                   .WithZnsProfile(p)
                   .WithFaults(spec)
                   .Build();
  ASSERT_NE(tb.resilient(), nullptr);  // faults imply the retry layer
  zns::ZnsDevice& dev = *tb.zns();
  ASSERT_EQ(dev.GetZoneState(0), ZoneState::kEmpty);

  // --- Empty -> (program failure) -> ReadOnly -------------------------
  // One full 16 KiB stripe page: the write buffers fine (and completes
  // Success), then the NAND program fails in the background.
  EXPECT_TRUE(WriteAtWp(tb, 0, 4).ok());
  EXPECT_EQ(dev.GetZoneState(0), ZoneState::kReadOnly);
  EXPECT_EQ(dev.counters().retired_blocks, 1u);
  EXPECT_EQ(dev.counters().spare_blocks_used, 1u);
  EXPECT_EQ(dev.counters().zones_degraded_readonly, 1u);

  // The lost buffered data is reported exactly once (kWriteFault), after
  // which the zone's degraded state speaks for itself. kWriteFault is
  // terminal for the host retry layer: re-issuing cannot recover data.
  EXPECT_EQ(WriteAtWp(tb, 0, 4).status, Status::kWriteFault);
  EXPECT_GE(tb.resilient()->stats().terminal_errors, 1u);
  EXPECT_EQ(WriteAtWp(tb, 0, 4).status, Status::kZoneIsReadOnly);

  // ReadOnly zones still serve reads of the data they hold.
  EXPECT_TRUE(Read(tb, 0, 0, 4).ok());

  // --- spare exhaustion -> Offline ------------------------------------
  EXPECT_TRUE(WriteAtWp(tb, 1, 4).ok());
  EXPECT_EQ(dev.GetZoneState(1), ZoneState::kOffline);
  EXPECT_EQ(dev.counters().zones_failed_offline, 1u);
  EXPECT_EQ(dev.counters().retired_blocks, 2u);
  EXPECT_EQ(dev.counters().spare_blocks_used, 1u);  // budget was spent
  EXPECT_EQ(Read(tb, 1, 0, 1).status, Status::kZoneIsOffline);

  // A flush cannot honor the durability barrier for data that never
  // reached NAND; the second flush is clean.
  EXPECT_EQ(RunCmd(tb, {.opcode = nvme::Opcode::kFlush}).status,
            Status::kWriteFault);
  EXPECT_TRUE(RunCmd(tb, {.opcode = nvme::Opcode::kFlush}).ok());

  // --- log pages reflect the damage -----------------------------------
  nvme::SmartLog smart = tb.Smart();
  EXPECT_EQ(smart.write_faults, 2u);
  EXPECT_EQ(smart.retired_blocks, 2u);
  EXPECT_EQ(smart.spare_blocks_used, 1u);
  EXPECT_EQ(smart.spare_blocks_total, 1u);
  EXPECT_GE(smart.media_errors, 2u);  // kWriteFault completions
  EXPECT_EQ(smart.zones_degraded_readonly, 1u);
  EXPECT_EQ(smart.zones_failed_offline, 1u);

  nvme::ZoneReportLog report = tb.ZoneReport();
  EXPECT_EQ(report.read_only_zones, 1u);
  EXPECT_EQ(report.offline_zones, 1u);
  std::uint32_t retired = 0;
  for (const nvme::ZoneReportEntry& e : report.zones) {
    retired += e.retired_blocks;
  }
  EXPECT_EQ(retired, 2u);

  // The fault plan's own accounting agrees.
  EXPECT_EQ(tb.faults()->counters().program_failures, 2u);
}

TEST(FaultInjection, AppendAfterAFailedProgramReportsTheFaultOnce) {
  // The append branch of the device's shared write path: a zone whose
  // buffered data was lost to a failed program reports kWriteFault to
  // exactly one append, then its ReadOnly state to every later one.
  zns::ZnsProfile p = QuietTiny();
  p.spare_blocks = 1;
  fault::FaultSpec spec;
  spec.enabled = true;
  spec.program_fail_rate = 1.0;
  spec.seed = 7;
  Testbed tb = TestbedBuilder().WithZnsProfile(p).WithFaults(spec).Build();
  zns::ZnsDevice& dev = *tb.zns();
  const nvme::Command append = {.opcode = nvme::Opcode::kAppend,
                                .slba = dev.ZoneStartLba(0),
                                .nlb = 4};

  const nvme::Completion first = RunCmd(tb, append);
  EXPECT_TRUE(first.ok());
  EXPECT_EQ(first.result_lba, dev.ZoneStartLba(0));
  EXPECT_EQ(dev.GetZoneState(0), ZoneState::kReadOnly);

  EXPECT_EQ(RunCmd(tb, append).status, Status::kWriteFault);
  EXPECT_EQ(RunCmd(tb, append).status, Status::kZoneIsReadOnly);
  EXPECT_EQ(RunCmd(tb, append).status, Status::kZoneIsReadOnly);
  EXPECT_EQ(tb.Smart().write_faults, 1u);
  EXPECT_EQ(dev.counters().appends, 1u);
}

TEST(FaultInjection, HostRetriesRecoverATransientReadError) {
  // One scheduled uncorrectable read error: the first NAND read after t=0
  // fails, the host retries, and the retry succeeds — the caller never
  // sees the fault.
  fault::FaultSpec spec;
  spec.enabled = true;
  spec.scheduled.push_back({.at = 0,
                            .kind = fault::FaultKind::kReadUncorrectable,
                            .die = fault::kAnySite,
                            .block = fault::kAnySite});
  Testbed tb = TestbedBuilder()
                   .WithZnsProfile(QuietTiny())
                   .WithFaults(spec)
                   .WithRetryPolicy({.max_attempts = 4,
                                     .backoff = sim::Microseconds(50)})
                   .Build();
  zns::ZnsDevice& dev = *tb.zns();

  EXPECT_TRUE(WriteAtWp(tb, 0, 4).ok());
  EXPECT_TRUE(RunCmd(tb, {.opcode = nvme::Opcode::kFlush}).ok());

  nvme::Completion c = Read(tb, 0, 0, 4);
  EXPECT_TRUE(c.ok()) << ToString(c.status);
  const hostif::ResilienceStats& rs = tb.resilient()->stats();
  EXPECT_EQ(rs.retries, 1u);
  EXPECT_EQ(rs.recovered, 1u);
  // The device saw (and counted) the failed attempt even though the
  // caller did not.
  EXPECT_EQ(dev.counters().read_faults, 1u);
  EXPECT_EQ(dev.counters().media_errors, 1u);
  nvme::SmartLog smart = tb.Smart();
  EXPECT_EQ(smart.read_faults, 1u);
  EXPECT_EQ(tb.faults()->counters().uncorrectable_read_errors, 1u);
  EXPECT_EQ(tb.faults()->counters().scheduled_fired, 1u);
}

TEST(FaultInjection, DisabledFaultsLeaveTheTestbedUnwrapped) {
  // No faults, no retry policy: Build() must not insert the resilient
  // layer (fault-free benchmark timing stays byte-identical).
  Testbed tb = TestbedBuilder().WithZnsProfile(QuietTiny()).Build();
  EXPECT_EQ(tb.resilient(), nullptr);
  EXPECT_EQ(tb.faults(), nullptr);
  EXPECT_TRUE(WriteAtWp(tb, 0, 4).ok());
  nvme::SmartLog smart = tb.Smart();
  EXPECT_EQ(smart.media_errors, 0u);
  EXPECT_EQ(smart.write_faults, 0u);
  EXPECT_EQ(smart.retired_blocks, 0u);
}

}  // namespace
}  // namespace zstor
