// Zone state machine tests: the Fig.-1 transitions, resource limits, and
// write-pointer semantics of the ZNS command set.
#include <gtest/gtest.h>

#include "zns_test_util.h"

namespace zstor::zns {
namespace {

using nvme::Status;
using nvme::ZoneAction;
using zstor::zns::testing::Harness;
using zstor::zns::testing::QuietTiny;

TEST(ZnsStateMachine, AllZonesStartEmpty) {
  Harness h(QuietTiny());
  for (std::uint32_t z = 0; z < h.dev.info().num_zones; ++z) {
    EXPECT_EQ(h.dev.GetZoneState(z), ZoneState::kEmpty);
    EXPECT_EQ(h.dev.ZoneWrittenBytes(z), 0u);
  }
  EXPECT_EQ(h.dev.open_zone_count(), 0u);
  EXPECT_EQ(h.dev.active_zone_count(), 0u);
}

TEST(ZnsStateMachine, WriteImplicitlyOpensAnEmptyZone) {
  Harness h(QuietTiny());
  EXPECT_TRUE(h.Write(0, 0, 1).ok());
  EXPECT_EQ(h.dev.GetZoneState(0), ZoneState::kImplicitlyOpened);
  EXPECT_EQ(h.dev.open_zone_count(), 1u);
  EXPECT_EQ(h.dev.active_zone_count(), 1u);
  EXPECT_EQ(h.dev.counters().implicit_opens, 1u);
}

TEST(ZnsStateMachine, AppendImplicitlyOpensAnEmptyZone) {
  Harness h(QuietTiny());
  auto c = h.Append(2, 1);
  EXPECT_TRUE(c.ok());
  EXPECT_EQ(c.result_lba, h.dev.ZoneStartLba(2));
  EXPECT_EQ(h.dev.GetZoneState(2), ZoneState::kImplicitlyOpened);
}

TEST(ZnsStateMachine, ExplicitOpenThenWrite) {
  Harness h(QuietTiny());
  EXPECT_TRUE(h.Open(1).ok());
  EXPECT_EQ(h.dev.GetZoneState(1), ZoneState::kExplicitlyOpened);
  EXPECT_EQ(h.dev.counters().explicit_opens, 1u);
  EXPECT_TRUE(h.Write(1, 0, 4).ok());
  EXPECT_EQ(h.dev.GetZoneState(1), ZoneState::kExplicitlyOpened);
  EXPECT_EQ(h.dev.counters().implicit_opens, 0u);
}

TEST(ZnsStateMachine, OpenOfImplicitlyOpenedZonePinsIt) {
  Harness h(QuietTiny());
  EXPECT_TRUE(h.Write(0, 0, 1).ok());
  EXPECT_TRUE(h.Open(0).ok());
  EXPECT_EQ(h.dev.GetZoneState(0), ZoneState::kExplicitlyOpened);
  EXPECT_EQ(h.dev.open_zone_count(), 1u);  // no double count
}

TEST(ZnsStateMachine, CloseWrittenZoneKeepsItActive) {
  Harness h(QuietTiny());
  EXPECT_TRUE(h.Write(0, 0, 1).ok());
  EXPECT_TRUE(h.Close(0).ok());
  EXPECT_EQ(h.dev.GetZoneState(0), ZoneState::kClosed);
  EXPECT_EQ(h.dev.open_zone_count(), 0u);
  EXPECT_EQ(h.dev.active_zone_count(), 1u);
}

TEST(ZnsStateMachine, CloseUnwrittenOpenZoneReturnsItToEmpty) {
  Harness h(QuietTiny());
  EXPECT_TRUE(h.Open(0).ok());
  EXPECT_TRUE(h.Close(0).ok());
  EXPECT_EQ(h.dev.GetZoneState(0), ZoneState::kEmpty);
  EXPECT_EQ(h.dev.active_zone_count(), 0u);
}

TEST(ZnsStateMachine, CloseOfClosedZoneIsANoOp) {
  Harness h(QuietTiny());
  EXPECT_TRUE(h.Write(0, 0, 1).ok());
  EXPECT_TRUE(h.Close(0).ok());
  EXPECT_TRUE(h.Close(0).ok());
  EXPECT_EQ(h.dev.GetZoneState(0), ZoneState::kClosed);
}

TEST(ZnsStateMachine, CloseOfEmptyZoneIsAnError) {
  Harness h(QuietTiny());
  EXPECT_EQ(h.Close(0).status, Status::kZoneInvalidStateTransition);
}

TEST(ZnsStateMachine, WritingToCapacityMakesZoneFullAndReleasesResources) {
  Harness h(QuietTiny());
  h.FillZone(0);
  EXPECT_EQ(h.dev.GetZoneState(0), ZoneState::kFull);
  EXPECT_EQ(h.dev.open_zone_count(), 0u);
  EXPECT_EQ(h.dev.active_zone_count(), 0u);
  EXPECT_EQ(h.dev.ZoneWrittenBytes(0), h.dev.profile().zone_cap_bytes);
}

TEST(ZnsStateMachine, WriteToFullZoneFails) {
  Harness h(QuietTiny());
  h.FillZone(0);
  EXPECT_EQ(h.Write(0, 0, 1).status, Status::kZoneIsFull);
}

TEST(ZnsStateMachine, AppendToFullZoneFails) {
  Harness h(QuietTiny());
  h.FillZone(0);
  EXPECT_EQ(h.Append(0, 1).status, Status::kZoneIsFull);
}

TEST(ZnsStateMachine, WriteNotAtWritePointerFails) {
  Harness h(QuietTiny());
  EXPECT_TRUE(h.Write(0, 0, 4).ok());
  EXPECT_EQ(h.Write(0, 8, 1).status, Status::kZoneInvalidWrite);  // gap
  EXPECT_EQ(h.Write(0, 2, 1).status, Status::kZoneInvalidWrite);  // rewind
  EXPECT_TRUE(h.Write(0, 4, 1).ok());  // exactly at WP
}

TEST(ZnsStateMachine, WriteBeyondZoneCapacityFails) {
  Harness h(QuietTiny());
  std::uint64_t cap = h.dev.info().zone_cap_lbas;
  EXPECT_EQ(h.Write(0, cap - 1, 2).status, Status::kZoneBoundaryError);
}

TEST(ZnsStateMachine, AppendBeyondRemainingCapacityFails) {
  Harness h(QuietTiny());
  std::uint64_t cap = h.dev.info().zone_cap_lbas;
  EXPECT_TRUE(h.Append(0, static_cast<std::uint32_t>(cap - 1)).ok());
  EXPECT_EQ(h.Append(0, 2).status, Status::kZoneBoundaryError);
  EXPECT_TRUE(h.Append(0, 1).ok());  // exactly fills
  EXPECT_EQ(h.dev.GetZoneState(0), ZoneState::kFull);
}

TEST(ZnsStateMachine, IoAcrossZoneBoundaryFails) {
  Harness h(QuietTiny());
  std::uint64_t size = h.dev.info().zone_size_lbas;
  auto c = h.Run({.opcode = nvme::Opcode::kRead, .slba = size - 1, .nlb = 2});
  EXPECT_EQ(c.status, Status::kZoneBoundaryError);
}

TEST(ZnsStateMachine, LbaOutOfRangeFails) {
  Harness h(QuietTiny());
  auto c = h.Run({.opcode = nvme::Opcode::kRead,
                  .slba = h.dev.info().capacity_lbas,
                  .nlb = 1});
  EXPECT_EQ(c.status, Status::kLbaOutOfRange);
}

TEST(ZnsStateMachine, ExplicitOpensAreLimitedAndNotEvictable) {
  Harness h(QuietTiny());  // max_open = 3
  EXPECT_TRUE(h.Open(0).ok());
  EXPECT_TRUE(h.Open(1).ok());
  EXPECT_TRUE(h.Open(2).ok());
  EXPECT_EQ(h.Open(3).status, Status::kTooManyOpenZones);
  // An implicit open (write) cannot evict explicitly-opened zones either.
  EXPECT_EQ(h.Write(3, 0, 1).status, Status::kTooManyOpenZones);
}

TEST(ZnsStateMachine, ImplicitOpenEvictsLruImplicitlyOpenedZone) {
  Harness h(QuietTiny());  // max_open = 3
  EXPECT_TRUE(h.Write(0, 0, 1).ok());
  EXPECT_TRUE(h.Write(1, 0, 1).ok());
  EXPECT_TRUE(h.Write(2, 0, 1).ok());
  EXPECT_EQ(h.dev.open_zone_count(), 3u);
  // Fourth implicit open: zone 0 (the LRU) is closed to make room.
  EXPECT_TRUE(h.Write(3, 0, 1).ok());
  EXPECT_EQ(h.dev.GetZoneState(0), ZoneState::kClosed);
  EXPECT_EQ(h.dev.GetZoneState(3), ZoneState::kImplicitlyOpened);
  EXPECT_EQ(h.dev.open_zone_count(), 3u);
  EXPECT_EQ(h.dev.active_zone_count(), 4u);
  EXPECT_EQ(h.dev.counters().implicit_open_evictions, 1u);
}

TEST(ZnsStateMachine, ActiveLimitBlocksNewZones) {
  Harness h(QuietTiny());  // max_active = 5, max_open = 3
  // Activate 5 zones (write one LBA, then close to stay under max_open).
  for (std::uint32_t z = 0; z < 5; ++z) {
    ASSERT_TRUE(h.Write(z, 0, 1).ok());
    ASSERT_TRUE(h.Close(z).ok());
  }
  EXPECT_EQ(h.dev.active_zone_count(), 5u);
  EXPECT_EQ(h.Write(5, 0, 1).status, Status::kTooManyActiveZones);
  EXPECT_EQ(h.Open(5).status, Status::kTooManyActiveZones);
  // Resetting one active zone frees a slot.
  EXPECT_TRUE(h.Reset(0).ok());
  EXPECT_TRUE(h.Write(5, 0, 1).ok());
}

TEST(ZnsStateMachine, ReopeningAClosedZoneNeedsNoActiveSlot) {
  Harness h(QuietTiny());
  for (std::uint32_t z = 0; z < 5; ++z) {
    ASSERT_TRUE(h.Write(z, 0, 1).ok());
    ASSERT_TRUE(h.Close(z).ok());
  }
  // All 5 active slots used, but writing to an already-active zone is fine.
  EXPECT_TRUE(h.WriteAtWp(2, 1).ok());
  EXPECT_EQ(h.dev.GetZoneState(2), ZoneState::kImplicitlyOpened);
}

TEST(ZnsStateMachine, FinishOnEmptyAndFullZonesIsRejected) {
  Harness h(QuietTiny());
  EXPECT_EQ(h.Finish(0).status, Status::kZoneIsEmpty);
  h.FillZone(1);
  EXPECT_EQ(h.Finish(1).status, Status::kZoneIsFull);
}

TEST(ZnsStateMachine, FinishPadsZoneToFull) {
  Harness h(QuietTiny());
  EXPECT_TRUE(h.Write(0, 0, 4).ok());
  EXPECT_TRUE(h.Finish(0).ok());
  EXPECT_EQ(h.dev.GetZoneState(0), ZoneState::kFull);
  EXPECT_EQ(h.dev.ZoneWrittenBytes(0), h.dev.profile().zone_cap_bytes);
  EXPECT_EQ(h.dev.open_zone_count(), 0u);
  EXPECT_EQ(h.dev.active_zone_count(), 0u);
  // The padded region is readable.
  EXPECT_TRUE(h.Read(0, h.dev.info().zone_cap_lbas - 1, 1).ok());
}

TEST(ZnsStateMachine, FinishOfClosedZoneWorks) {
  Harness h(QuietTiny());
  EXPECT_TRUE(h.Write(0, 0, 2).ok());
  EXPECT_TRUE(h.Close(0).ok());
  EXPECT_TRUE(h.Finish(0).ok());
  EXPECT_EQ(h.dev.GetZoneState(0), ZoneState::kFull);
}

TEST(ZnsStateMachine, ResetReturnsZoneToEmpty) {
  Harness h(QuietTiny());
  EXPECT_TRUE(h.Write(0, 0, 8).ok());
  EXPECT_TRUE(h.Reset(0).ok());
  EXPECT_EQ(h.dev.GetZoneState(0), ZoneState::kEmpty);
  EXPECT_EQ(h.dev.ZoneWrittenBytes(0), 0u);
  EXPECT_EQ(h.dev.active_zone_count(), 0u);
  // The zone is immediately rewritable from the start.
  EXPECT_TRUE(h.Write(0, 0, 1).ok());
}

TEST(ZnsStateMachine, ResetOfEmptyZoneSucceeds) {
  Harness h(QuietTiny());
  EXPECT_TRUE(h.Reset(0).ok());
  EXPECT_EQ(h.dev.GetZoneState(0), ZoneState::kEmpty);
}

TEST(ZnsStateMachine, ResetOfFullZoneRecyclesIt) {
  Harness h(QuietTiny());
  h.FillZone(0);
  EXPECT_TRUE(h.Reset(0).ok());
  EXPECT_EQ(h.dev.GetZoneState(0), ZoneState::kEmpty);
  h.FillZone(0);  // full write-reset-write cycle works
  EXPECT_EQ(h.dev.GetZoneState(0), ZoneState::kFull);
}

TEST(ZnsStateMachine, ResetCountsNandErases) {
  Harness h(QuietTiny());
  h.FillZone(0);
  ASSERT_NE(h.dev.flash(), nullptr);
  EXPECT_TRUE(h.Reset(0).ok());
  EXPECT_GT(h.dev.flash()->counters().block_erases, 0u);
}

TEST(ZnsStateMachine, AppendReturnsConsecutiveLbas) {
  Harness h(QuietTiny());
  nvme::Lba expected = h.dev.ZoneStartLba(0);
  for (int i = 0; i < 5; ++i) {
    auto c = h.Append(0, 2);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(c.result_lba, expected);
    expected += 2;
  }
}

TEST(ZnsStateMachine, AppendMustTargetZoneStartLba) {
  Harness h(QuietTiny());
  auto c = h.Run({.opcode = nvme::Opcode::kAppend,
                  .slba = h.dev.ZoneStartLba(0) + 1,
                  .nlb = 1});
  EXPECT_EQ(c.status, Status::kInvalidField);
}

TEST(ZnsStateMachine, ReadBeyondWritePointerReturnsDeallocatedData) {
  Harness h(QuietTiny());
  EXPECT_TRUE(h.Write(0, 0, 1).ok());
  EXPECT_TRUE(h.Read(0, 100, 4).ok());  // unwritten: zeroes, still success
}

TEST(ZnsStateMachine, ReadInTheZoneGapSucceeds) {
  Harness h(QuietTiny());
  // LBAs between zone capacity and zone size are addressable, unwritable.
  std::uint64_t gap_lba = h.dev.info().zone_cap_lbas + 1;
  EXPECT_TRUE(h.Read(0, gap_lba, 1).ok());
  EXPECT_EQ(h.Write(0, gap_lba, 1).status, Status::kZoneBoundaryError);
}

TEST(ZnsStateMachine, ErrorCountsAreTracked) {
  Harness h(QuietTiny());
  EXPECT_EQ(h.Close(0).status, Status::kZoneInvalidStateTransition);
  EXPECT_EQ(h.Write(0, 5, 1).status, Status::kZoneInvalidWrite);
  EXPECT_EQ(h.dev.counters().host_rejects, 2u);
  EXPECT_EQ(h.dev.counters().media_errors, 0u);
}

TEST(ZnsStateMachine, DebugFillMatchesRealFillObservably) {
  Harness h(QuietTiny());
  h.FillZone(0);
  h.dev.DebugFillZone(1, h.dev.profile().zone_cap_bytes);
  EXPECT_EQ(h.dev.GetZoneState(0), h.dev.GetZoneState(1));
  EXPECT_EQ(h.dev.ZoneWrittenBytes(0), h.dev.ZoneWrittenBytes(1));
  // Both read and reset behave the same way afterwards.
  EXPECT_TRUE(h.Read(1, 0, 8).ok());
  sim::Time r0 = 0, r1 = 0;
  EXPECT_TRUE(h.Reset(0, &r0).ok());
  EXPECT_TRUE(h.Reset(1, &r1).ok());
  EXPECT_EQ(r0, r1);  // identical occupancy -> identical reset cost
}

TEST(ZnsStateMachine, DebugFillPartialConsumesActiveSlot) {
  Harness h(QuietTiny());
  h.dev.DebugFillZone(0, 1 << 20);
  EXPECT_EQ(h.dev.GetZoneState(0), ZoneState::kClosed);
  EXPECT_EQ(h.dev.active_zone_count(), 1u);
}

// A fill that ends inside a NAND page leaves that page's tail in the
// write-back buffer, like the tail of any write: the appends after it
// program that page next, and every LBA reads back.
TEST(ZnsStateMachine, DebugFillWithSubPageTailTakesAppendsUntilFull) {
  Harness h(QuietTiny());
  const std::uint32_t zone = 3;
  const std::uint64_t lba = h.dev.info().format.lba_bytes;
  h.dev.DebugFillZone(zone, h.dev.profile().nand_geometry.page_bytes + lba);
  const std::uint64_t cap = h.dev.info().zone_cap_lbas;
  std::uint64_t wp = (h.dev.profile().nand_geometry.page_bytes + lba) / lba;
  while (wp < cap) {
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(cap - wp, 4));
    auto c = h.Append(zone, n);
    ASSERT_TRUE(c.ok()) << "append at LBA offset " << wp;
    EXPECT_EQ(c.result_lba, h.dev.ZoneStartLba(zone) + wp);
    wp += n;
  }
  EXPECT_EQ(h.dev.GetZoneState(zone), ZoneState::kFull);
  for (std::uint64_t off = 0; off < cap; ++off) {
    ASSERT_TRUE(h.Read(zone, off, 1).ok()) << "read at LBA offset " << off;
  }
}

TEST(ZnsStateMachine, NamespaceInfoMatchesProfile) {
  Harness h(QuietTiny());
  const auto& i = h.dev.info();
  EXPECT_TRUE(i.zoned);
  EXPECT_EQ(i.num_zones, 16u);
  EXPECT_EQ(i.zone_size_lbas, (4ull << 20) / 4096);
  EXPECT_EQ(i.zone_cap_lbas, (3ull << 20) / 4096);
  EXPECT_EQ(i.max_open_zones, 3u);
  EXPECT_EQ(i.max_active_zones, 5u);
  EXPECT_EQ(i.capacity_lbas, i.zone_size_lbas * 16);
}

TEST(ZnsStateMachine, ReadOnlyZoneServesReadsButRejectsMutation) {
  Harness h(QuietTiny());
  EXPECT_TRUE(h.Write(0, 0, 4).ok());
  h.dev.DebugSetZoneState(0, ZoneState::kReadOnly);
  EXPECT_EQ(h.dev.GetZoneState(0), ZoneState::kReadOnly);
  // Data written before degradation stays readable.
  EXPECT_TRUE(h.Read(0, 0, 4).ok());
  // All mutation is refused.
  EXPECT_EQ(h.WriteAtWp(0, 1).status, Status::kZoneIsReadOnly);
  EXPECT_EQ(h.Append(0, 1).status, Status::kZoneIsReadOnly);
  EXPECT_EQ(h.Open(0).status, Status::kZoneInvalidStateTransition);
  EXPECT_EQ(h.Close(0).status, Status::kZoneInvalidStateTransition);
  EXPECT_EQ(h.Finish(0).status, Status::kZoneInvalidStateTransition);
  EXPECT_EQ(h.Reset(0).status, Status::kZoneInvalidStateTransition);
  EXPECT_EQ(h.dev.GetZoneState(0), ZoneState::kReadOnly);
}

TEST(ZnsStateMachine, OfflineZoneRejectsEvenReads) {
  Harness h(QuietTiny());
  EXPECT_TRUE(h.Write(0, 0, 4).ok());
  h.dev.DebugSetZoneState(0, ZoneState::kOffline);
  // Offline zones lost their data: nothing works, including reads.
  EXPECT_EQ(h.Read(0, 0, 1).status, Status::kZoneIsOffline);
  EXPECT_EQ(h.WriteAtWp(0, 1).status, Status::kZoneIsOffline);
  EXPECT_EQ(h.Append(0, 1).status, Status::kZoneIsOffline);
  EXPECT_EQ(h.Open(0).status, Status::kZoneInvalidStateTransition);
  EXPECT_EQ(h.Close(0).status, Status::kZoneInvalidStateTransition);
  EXPECT_EQ(h.Finish(0).status, Status::kZoneInvalidStateTransition);
  EXPECT_EQ(h.Reset(0).status, Status::kZoneInvalidStateTransition);
}

TEST(ZnsStateMachine, DegradationReleasesOpenAndActiveSlots) {
  Harness h(QuietTiny());
  EXPECT_TRUE(h.Write(0, 0, 1).ok());  // implicitly opened
  EXPECT_EQ(h.dev.open_zone_count(), 1u);
  EXPECT_EQ(h.dev.active_zone_count(), 1u);
  h.dev.DebugSetZoneState(0, ZoneState::kReadOnly);
  // A degraded zone consumes no open/active resources: the slots return
  // to the pool for healthy zones.
  EXPECT_EQ(h.dev.open_zone_count(), 0u);
  EXPECT_EQ(h.dev.active_zone_count(), 0u);
  EXPECT_TRUE(h.Write(1, 0, 1).ok());
  EXPECT_EQ(h.dev.open_zone_count(), 1u);
}

TEST(ZnsStateMachine, DegradedZonesShowInTheZoneReport) {
  Harness h(QuietTiny());
  EXPECT_TRUE(h.Write(0, 0, 2).ok());
  h.dev.DebugSetZoneState(0, ZoneState::kReadOnly);
  h.dev.DebugSetZoneState(1, ZoneState::kOffline);
  nvme::ZoneReportLog log = h.dev.GetZoneReportLog();
  EXPECT_EQ(log.read_only_zones, 1u);
  EXPECT_EQ(log.offline_zones, 1u);
  // The degradation edges count as zone-state-machine transitions.
  EXPECT_GE(h.dev.counters().zone_transitions, 2u);
}

TEST(ZnsStateMachine, Lba512FormatScalesAddressing) {
  Harness h(QuietTiny(), /*lba_bytes=*/512);
  EXPECT_EQ(h.dev.info().zone_size_lbas, (4ull << 20) / 512);
  EXPECT_TRUE(h.Write(0, 0, 8).ok());  // 8 x 512 B = 4 KiB
  EXPECT_EQ(h.dev.ZoneWrittenBytes(0), 4096u);
}

}  // namespace
}  // namespace zstor::zns
