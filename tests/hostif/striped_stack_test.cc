// StripedStack tests: the zone round-robin address map (exhaustively, as
// a bijection), single-lane routing with append LBA translation, the
// host-side zone-boundary reject, broadcast and gather semantics, and
// per-lane accounting (report legs included) against the backing
// devices' own counters.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "hostif/stack_factory.h"
#include "hostif/striped_stack.h"
#include "sim/task.h"
#include "zns/zns_device.h"

namespace zstor::hostif {
namespace {

using sim::Time;

zns::ZnsProfile Quiet() {
  zns::ZnsProfile p = zns::TinyProfile();
  p.io_sigma = 0;
  p.reset.sigma = 0;
  p.finish.sigma = 0;
  return p;
}

/// N quiet Tiny devices, each behind its own SPDK lane, striped.
struct Rig {
  explicit Rig(std::size_t n, StackOptions opts = {}) {
    std::vector<std::unique_ptr<Stack>> lanes;
    for (std::size_t d = 0; d < n; ++d) {
      devs.push_back(std::make_unique<zns::ZnsDevice>(sim, Quiet()));
      lanes.push_back(
          MakeStack(StackChoice::kSpdk, sim, *devs.back(), opts).stack);
    }
    stack = std::make_unique<StripedStack>(sim, std::move(lanes));
  }

  nvme::TimedCompletion Run(nvme::Command cmd) {
    nvme::TimedCompletion out;
    auto body = [&]() -> sim::Task<> { out = co_await stack->Submit(cmd); };
    auto t = body();
    sim.Run();
    return out;
  }

  nvme::Lba ZoneStart(std::uint32_t lz) const {
    return nvme::Lba{lz} * stack->info().zone_size_lbas;
  }

  sim::Simulator sim;
  std::vector<std::unique_ptr<zns::ZnsDevice>> devs;
  std::unique_ptr<StripedStack> stack;
};

TEST(StripedStack, MergedInfoSumsGeometryAcrossLanes) {
  Rig r(4);
  const nvme::NamespaceInfo& one = r.devs[0]->info();
  const nvme::NamespaceInfo& all = r.stack->info();
  EXPECT_TRUE(all.zoned);
  EXPECT_EQ(all.zone_size_lbas, one.zone_size_lbas);
  EXPECT_EQ(all.zone_cap_lbas, one.zone_cap_lbas);
  EXPECT_EQ(all.num_zones, 4 * one.num_zones);
  EXPECT_EQ(all.capacity_lbas, 4 * one.capacity_lbas);
  EXPECT_EQ(all.max_open_zones, 4 * one.max_open_zones);
  EXPECT_EQ(all.max_active_zones, 4 * one.max_active_zones);
}

TEST(StripedStack, AddressMapIsAnExhaustiveBijection) {
  for (std::size_t n : {1u, 2u, 3u, 4u}) {
    Rig r(n);
    const std::uint64_t zsz = r.stack->info().zone_size_lbas;
    const StripeMap& map = r.stack->map();
    std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
    for (std::uint32_t lz = 0; lz < r.stack->info().num_zones; ++lz) {
      const std::uint32_t d = map.DeviceOf(lz);
      const std::uint32_t dz = map.DeviceZoneOf(lz);
      ASSERT_LT(d, n);
      ASSERT_LT(dz, r.devs[d]->info().num_zones);
      EXPECT_TRUE(seen.insert({d, dz}).second)
          << "n=" << n << " lz=" << lz << " double-maps device slot";
      // Forward and inverse translation round-trip at the zone start,
      // mid-zone, and the last LBA of the zone.
      for (std::uint64_t off : {std::uint64_t{0}, zsz / 2, zsz - 1}) {
        const nvme::Lba logical = nvme::Lba{lz} * zsz + off;
        const nvme::Lba device_lba = map.ToDeviceLba(logical);
        EXPECT_EQ(device_lba, nvme::Lba{dz} * zsz + off);
        EXPECT_EQ(map.ToLogicalLba(d, device_lba), logical);
        EXPECT_EQ(map.LogicalZoneOf(logical), lz);
      }
    }
    // Every (device, device-zone) slot is hit exactly once.
    EXPECT_EQ(seen.size(), r.stack->info().num_zones);
  }
}

TEST(StripedStack, RoutesEachZoneToItsMappedDevice) {
  Rig r(4);
  // One write into each of logical zones 0..7: zone z must land on
  // device z % 4, in device zone z / 4.
  for (std::uint32_t lz = 0; lz < 8; ++lz) {
    auto tc = r.Run({.opcode = nvme::Opcode::kWrite,
                     .slba = r.ZoneStart(lz),
                     .nlb = 1});
    ASSERT_TRUE(tc.completion.ok()) << "lz=" << lz;
  }
  for (std::uint32_t d = 0; d < 4; ++d) {
    EXPECT_EQ(r.devs[d]->counters().writes, 2u) << "d=" << d;
    EXPECT_EQ(r.devs[d]->ZoneWrittenBytes(0), 4096u);
    EXPECT_EQ(r.devs[d]->ZoneWrittenBytes(1), 4096u);
    EXPECT_EQ(r.stack->stats().lanes[d].issued, 2u);
    EXPECT_EQ(r.stack->stats().lanes[d].completed, 2u);
    EXPECT_EQ(r.stack->stats().lanes[d].in_flight, 0u);
  }
}

TEST(StripedStack, RejectsBoundaryCrossingIoHostSide) {
  Rig r(2);
  const std::uint64_t zsz = r.stack->info().zone_size_lbas;
  auto tc = r.Run({.opcode = nvme::Opcode::kWrite,
                   .slba = nvme::Lba{zsz} - 1,
                   .nlb = 2});  // tail would land on the other device
  EXPECT_EQ(tc.completion.status, nvme::Status::kZoneBoundaryError);
  EXPECT_EQ(r.stack->stats().boundary_rejects, 1u);
  // No lane ever saw the command.
  for (std::uint32_t d = 0; d < 2; ++d) {
    EXPECT_EQ(r.devs[d]->counters().writes, 0u);
    EXPECT_EQ(r.stack->stats().lanes[d].issued, 0u);
  }
}

TEST(StripedStack, AppendResultLbaIsTranslatedToLogicalSpace) {
  Rig r(4);
  // Logical zone 5 -> device 1, device zone 1. The device reports its
  // local append LBA; the stripe must hand back the logical one.
  const std::uint32_t lz = 5;
  auto a1 = r.Run({.opcode = nvme::Opcode::kAppend,
                   .slba = r.ZoneStart(lz),
                   .nlb = 2});
  ASSERT_TRUE(a1.completion.ok());
  EXPECT_EQ(a1.completion.result_lba, r.ZoneStart(lz));
  auto a2 = r.Run({.opcode = nvme::Opcode::kAppend,
                   .slba = r.ZoneStart(lz),
                   .nlb = 1});
  ASSERT_TRUE(a2.completion.ok());
  EXPECT_EQ(a2.completion.result_lba, r.ZoneStart(lz) + 2);
  EXPECT_EQ(r.devs[1]->counters().appends, 2u);
  EXPECT_EQ(r.devs[0]->counters().appends, 0u);
}

TEST(StripedStack, QueuePairBoundsArePerDevice) {
  // With qp_depth = 1 per lane, two concurrent reads serialize when they
  // map to the same device and overlap when they map to different ones.
  StackOptions opts;
  opts.qp_depth = 1;
  auto makespan = [&](std::uint32_t lz_a, std::uint32_t lz_b) {
    Rig r(2, opts);
    for (auto& dev : r.devs) {
      dev->DebugFillZone(0, dev->profile().zone_cap_bytes);
      dev->DebugFillZone(1, dev->profile().zone_cap_bytes);
    }
    auto read = [&](std::uint32_t lz) -> sim::Task<> {
      auto tc = co_await r.stack->Submit(
          {.opcode = nvme::Opcode::kRead, .slba = r.ZoneStart(lz), .nlb = 1});
      ZSTOR_CHECK(tc.completion.ok());
    };
    sim::Spawn(read(lz_a));
    sim::Spawn(read(lz_b));
    r.sim.Run();
    return r.sim.now();
  };
  const Time same_device = makespan(0, 2);   // both on device 0
  const Time two_devices = makespan(0, 1);   // one per device
  EXPECT_GT(same_device, two_devices + two_devices / 2);
}

TEST(StripedStack, FlushBroadcastsToEveryLane) {
  Rig r(3);
  auto tc = r.Run({.opcode = nvme::Opcode::kFlush});
  EXPECT_TRUE(tc.completion.ok());
  for (std::uint32_t d = 0; d < 3; ++d) {
    EXPECT_EQ(r.devs[d]->counters().flushes, 1u);
    EXPECT_EQ(r.stack->stats().lanes[d].issued, 1u);
    EXPECT_EQ(r.stack->stats().lanes[d].completed, 1u);
    EXPECT_EQ(r.stack->stats().lanes[d].in_flight, 0u);
  }
}

TEST(StripedStack, SelectAllZoneMgmtBroadcasts) {
  Rig r(2);
  // Dirty one zone per device, then reset-all: both devices must act.
  for (std::uint32_t lz = 0; lz < 2; ++lz) {
    ASSERT_TRUE(r.Run({.opcode = nvme::Opcode::kWrite,
                       .slba = r.ZoneStart(lz),
                       .nlb = 1})
                    .completion.ok());
  }
  auto tc = r.Run({.opcode = nvme::Opcode::kZoneMgmtSend,
                   .zone_action = nvme::ZoneAction::kReset,
                   .select_all = true});
  EXPECT_TRUE(tc.completion.ok());
  for (std::uint32_t d = 0; d < 2; ++d) {
    EXPECT_GE(r.devs[d]->counters().resets, 1u);
    EXPECT_EQ(r.devs[d]->ZoneWrittenBytes(0), 0u);
  }
}

TEST(StripedStack, GatherReportInterleavesAndTranslates) {
  Rig r(2);
  const std::uint64_t zsz = r.stack->info().zone_size_lbas;
  const std::uint64_t cap_bytes = r.devs[0]->profile().zone_cap_bytes;
  // Logical zone 0 (device 0, zone 0) full; logical zone 1 (device 1,
  // zone 0) half full; everything else empty.
  r.devs[0]->DebugFillZone(0, cap_bytes);
  r.devs[1]->DebugFillZone(0, cap_bytes / 2);

  std::vector<nvme::ZoneDescriptor> report(r.stack->info().num_zones);
  auto tc = r.Run(
      {.opcode = nvme::Opcode::kZoneMgmtRecv, .data = report.data()});
  ASSERT_TRUE(tc.completion.ok());
  ASSERT_EQ(tc.completion.count, r.stack->info().num_zones);
  for (std::uint32_t lz = 0; lz < report.size(); ++lz) {
    EXPECT_EQ(report[lz].zslba, nvme::Lba{lz} * zsz) << "lz=" << lz;
  }
  // Write pointers come back in logical coordinates.
  EXPECT_EQ(report[0].write_pointer, report[0].zslba + cap_bytes / 4096);
  EXPECT_EQ(report[1].write_pointer, report[1].zslba + cap_bytes / 4096 / 2);
  EXPECT_EQ(report[2].write_pointer, report[2].zslba);

  // Start zone and report_max apply to the logical view.
  nvme::ZoneDescriptor first5[5];
  auto tail = r.Run({.opcode = nvme::Opcode::kZoneMgmtRecv,
                     .slba = nvme::Lba{3} * zsz,
                     .report_max = 5,
                     .data = first5});
  ASSERT_TRUE(tail.completion.ok());
  ASSERT_EQ(tail.completion.count, 5u);
  EXPECT_EQ(first5[0].zslba, nvme::Lba{3} * zsz);

  // A report without a buffer is refused, as a single device refuses it.
  auto bare = r.Run({.opcode = nvme::Opcode::kZoneMgmtRecv});
  EXPECT_EQ(bare.completion.status, nvme::Status::kInvalidField);
  EXPECT_EQ(bare.completion.count, 0u);
}

TEST(StripedStack, ReportLegsCountInFlight) {
  Rig r(2);
  for (auto& dev : r.devs) dev->DebugFillZone(0, dev->profile().zone_cap_bytes);
  // One read per lane, and a zone report issued while both are in flight:
  // each lane carries a read and a report leg at once.
  auto read = [&](std::uint32_t lz) -> sim::Task<> {
    auto tc = co_await r.stack->Submit(
        {.opcode = nvme::Opcode::kRead, .slba = r.ZoneStart(lz), .nlb = 1});
    ZSTOR_CHECK(tc.completion.ok());
  };
  std::vector<nvme::ZoneDescriptor> zones(r.stack->info().num_zones);
  auto report = [&]() -> sim::Task<> {
    auto tc = co_await r.stack->Submit(
        {.opcode = nvme::Opcode::kZoneMgmtRecv, .data = zones.data()});
    ZSTOR_CHECK(tc.completion.ok());
  };
  sim::Spawn(read(0));
  sim::Spawn(read(1));
  sim::Spawn(report());
  r.sim.Run();
  for (std::uint32_t d = 0; d < 2; ++d) {
    const LaneStats& ls = r.stack->stats().lanes[d];
    EXPECT_EQ(ls.issued, 2u);
    EXPECT_EQ(ls.completed, 2u);
    EXPECT_EQ(ls.in_flight, 0u);
    EXPECT_EQ(ls.max_in_flight, 2u) << "lane " << d;
  }
}

TEST(StripedStack, LaneAccountingMatchesDeviceCounters) {
  Rig r(2);
  // A lopsided append mix: 6 to logical zone 0 (device 0), 3 to logical
  // zone 1 (device 1), issued concurrently.
  auto append = [&](std::uint32_t lz) -> sim::Task<> {
    auto tc = co_await r.stack->Submit(
        {.opcode = nvme::Opcode::kAppend, .slba = r.ZoneStart(lz), .nlb = 1});
    ZSTOR_CHECK(tc.completion.ok());
  };
  for (int i = 0; i < 6; ++i) sim::Spawn(append(0));
  for (int i = 0; i < 3; ++i) sim::Spawn(append(1));
  r.sim.Run();
  const StripeStats& st = r.stack->stats();
  EXPECT_EQ(st.lanes[0].issued, 6u);
  EXPECT_EQ(st.lanes[1].issued, 3u);
  for (std::uint32_t d = 0; d < 2; ++d) {
    EXPECT_EQ(st.lanes[d].issued, st.lanes[d].completed);
    EXPECT_EQ(st.lanes[d].issued, r.devs[d]->counters().appends);
    EXPECT_EQ(st.lanes[d].errors, 0u);
    EXPECT_EQ(st.lanes[d].in_flight, 0u);
    EXPECT_GE(st.lanes[d].max_in_flight, 1u);
  }
  EXPECT_GE(st.lanes[0].max_in_flight, st.lanes[1].max_in_flight);
}

}  // namespace
}  // namespace zstor::hostif
