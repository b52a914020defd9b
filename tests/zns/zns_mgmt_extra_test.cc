// Tests for the extended ZNS command surface: zone reports (Zone
// Management Receive), reset-all (select_all), flush, and the NAND
// endurance / wear-out model.
#include <gtest/gtest.h>

#include <vector>

#include "zns_test_util.h"

namespace zstor::zns {
namespace {

using nvme::Status;
using nvme::ZoneAction;
using zstor::zns::testing::Harness;
using zstor::zns::testing::QuietTiny;

/// A zone report's completion and the descriptors the device wrote into
/// the command's buffer, cut to the count it reported.
struct Report {
  nvme::Completion completion;
  std::vector<nvme::ZoneDescriptor> report;
  bool ok() const { return completion.ok(); }
};

Report RunReport(Harness& h, nvme::Lba slba, std::uint32_t max = 0,
                 sim::Time* latency = nullptr) {
  Report r;
  r.report.resize(h.dev.info().num_zones);
  r.completion = h.Run({.opcode = nvme::Opcode::kZoneMgmtRecv,
                        .slba = slba,
                        .nlb = 0,
                        .report_max = max,
                        .data = r.report.data()},
                       latency);
  r.report.resize(r.completion.count);
  return r;
}

TEST(ZoneReport, ReportsAllZonesFromStart) {
  Harness h(QuietTiny());
  auto c = RunReport(h, 0);
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c.report.size(), h.dev.info().num_zones);
  for (std::uint32_t z = 0; z < c.report.size(); ++z) {
    EXPECT_EQ(c.report[z].zslba, h.dev.ZoneStartLba(z));
    EXPECT_EQ(c.report[z].write_pointer, h.dev.ZoneStartLba(z));
    EXPECT_EQ(c.report[z].zone_cap_lbas, h.dev.info().zone_cap_lbas);
    EXPECT_EQ(static_cast<ZoneState>(c.report[z].state_raw),
              ZoneState::kEmpty);
  }
}

TEST(ZoneReport, ReflectsStateAndWritePointer) {
  Harness h(QuietTiny());
  ASSERT_TRUE(h.Write(0, 0, 5).ok());
  ASSERT_TRUE(h.Write(1, 0, 2).ok());
  ASSERT_TRUE(h.Close(1).ok());
  h.dev.DebugFillZone(2, h.dev.profile().zone_cap_bytes);
  auto c = RunReport(h, 0, 3);
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c.report.size(), 3u);
  EXPECT_EQ(static_cast<ZoneState>(c.report[0].state_raw),
            ZoneState::kImplicitlyOpened);
  EXPECT_EQ(c.report[0].write_pointer, h.dev.ZoneStartLba(0) + 5);
  EXPECT_EQ(static_cast<ZoneState>(c.report[1].state_raw),
            ZoneState::kClosed);
  EXPECT_EQ(static_cast<ZoneState>(c.report[2].state_raw),
            ZoneState::kFull);
}

TEST(ZoneReport, PartialReportFromMiddle) {
  Harness h(QuietTiny());
  auto c = RunReport(h, h.dev.ZoneStartLba(10), 4);
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c.report.size(), 4u);
  EXPECT_EQ(c.report[0].zslba, h.dev.ZoneStartLba(10));
  // Clamped at the end of the namespace.
  auto tail = RunReport(h, h.dev.ZoneStartLba(14), 100);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail.report.size(), 2u);
}

TEST(ZoneReport, CostScalesWithDescriptorCount) {
  Harness h(QuietTiny());
  sim::Time small = 0, large = 0;
  ASSERT_TRUE(RunReport(h, 0, 1, &small).ok());
  ASSERT_TRUE(RunReport(h, 0, 16, &large).ok());
  EXPECT_GT(large, small);
}

// Returned data needs a host buffer: a report or a tag read-back
// without one is refused, and the read transfers nothing.
TEST(ZoneReport, ReportOrTagReadBackWithoutABufferIsAnInvalidField) {
  Harness h(QuietTiny());
  ASSERT_TRUE(h.Write(0, 0, 4).ok());
  EXPECT_EQ(h.Run({.opcode = nvme::Opcode::kZoneMgmtRecv}).status,
            Status::kInvalidField);
  EXPECT_EQ(h.Run({.opcode = nvme::Opcode::kRead,
                   .slba = 0,
                   .nlb = 4,
                   .payload_tag = 1})
                .status,
            Status::kInvalidField);
  EXPECT_EQ(h.dev.counters().reads, 0u);
  // Without a tag request a read needs no buffer.
  EXPECT_TRUE(h.Run({.opcode = nvme::Opcode::kRead, .slba = 0, .nlb = 4}).ok());
}

TEST(ResetAll, ResetsEveryNonEmptyZone) {
  Harness h(QuietTiny());
  ASSERT_TRUE(h.Write(0, 0, 4).ok());
  ASSERT_TRUE(h.Write(3, 0, 4).ok());
  h.dev.DebugFillZone(5, h.dev.profile().zone_cap_bytes);
  auto c = h.Run({.opcode = nvme::Opcode::kZoneMgmtSend,
                  .slba = 0,
                  .zone_action = ZoneAction::kReset,
                  .select_all = true});
  ASSERT_TRUE(c.ok());
  for (std::uint32_t z = 0; z < h.dev.info().num_zones; ++z) {
    EXPECT_EQ(h.dev.GetZoneState(z), ZoneState::kEmpty) << "zone " << z;
  }
  EXPECT_EQ(h.dev.active_zone_count(), 0u);
  EXPECT_EQ(h.dev.counters().resets, 3u);  // only the non-empty zones
}

TEST(ResetAll, SelectAllWithOtherActionsIsInvalid) {
  Harness h(QuietTiny());
  auto c = h.Run({.opcode = nvme::Opcode::kZoneMgmtSend,
                  .slba = 0,
                  .zone_action = ZoneAction::kFinish,
                  .select_all = true});
  EXPECT_EQ(c.status, Status::kInvalidField);
}

TEST(Flush, WaitsForTheNandDrain) {
  Harness h(QuietTiny());
  // 16 pages of data: the drain takes ~16/4dies * tPROG.
  ASSERT_TRUE(h.Write(0, 0, 64).ok());
  sim::Time lat = 0;
  auto c = h.Run({.opcode = nvme::Opcode::kFlush}, &lat);
  ASSERT_TRUE(c.ok());
  // Flush completed only after all programs landed.
  EXPECT_EQ(h.dev.flash()->counters().page_programs, 16u);
  EXPECT_EQ(h.dev.counters().flushes, 1u);
}

TEST(Flush, IsCheapWhenIdle) {
  Harness h(QuietTiny());
  sim::Time lat = 0;
  ASSERT_TRUE(h.Run({.opcode = nvme::Opcode::kFlush}, &lat).ok());
  EXPECT_LT(sim::ToMicroseconds(lat), 20.0);
}

TEST(Wear, ZoneGoesOfflineAtPeCycleLimit) {
  ZnsProfile p = QuietTiny();
  p.pe_cycle_limit = 3;
  Harness h(p);
  // Two full write/reset cycles leave the blocks at 2 P/E: still fine.
  for (int cycle = 0; cycle < 2; ++cycle) {
    h.FillZone(0);
    ASSERT_TRUE(h.Reset(0).ok());
    ASSERT_EQ(h.dev.GetZoneState(0), ZoneState::kEmpty);
  }
  // The third cycle reaches the limit: the zone retires.
  h.FillZone(0);
  ASSERT_TRUE(h.Reset(0).ok());
  EXPECT_EQ(h.dev.GetZoneState(0), ZoneState::kOffline);
  EXPECT_EQ(h.dev.counters().zones_worn_offline, 1u);
  // Offline zones reject everything.
  EXPECT_EQ(h.Write(0, 0, 1).status, Status::kZoneIsOffline);
  EXPECT_EQ(h.Reset(0).status, Status::kZoneInvalidStateTransition);
  EXPECT_EQ(h.Open(0).status, Status::kZoneInvalidStateTransition);
  // Other zones are unaffected.
  EXPECT_TRUE(h.Write(1, 0, 1).ok());
}

TEST(Wear, UnlimitedEnduranceByDefault) {
  Harness h(QuietTiny());
  for (int cycle = 0; cycle < 6; ++cycle) {
    h.FillZone(0);
    ASSERT_TRUE(h.Reset(0).ok());
  }
  EXPECT_EQ(h.dev.GetZoneState(0), ZoneState::kEmpty);
  EXPECT_EQ(h.dev.counters().zones_worn_offline, 0u);
}

TEST(Wear, PeCyclesAreCountedPerBlock) {
  Harness h(QuietTiny());
  h.FillZone(0);
  ASSERT_TRUE(h.Reset(0).ok());
  // Zone 0's blocks cycled once; zone 1's not at all.
  std::uint32_t bpz = h.dev.layout().blocks_per_zone_per_die;
  EXPECT_EQ(h.dev.flash()->BlockPeCycles(0, 0), 1u);
  EXPECT_EQ(h.dev.flash()->BlockPeCycles(0, bpz), 0u);  // zone 1's block
}

}  // namespace
}  // namespace zstor::zns
