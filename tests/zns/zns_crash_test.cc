// ZNS power-loss crash/recovery tests (DESIGN.md §11): loss semantics
// (flushed data survives byte-exact, the unflushed tail is dropped at
// page granularity), write-pointer rediscovery, in-flight command
// behavior across the outage, recovery-latency charging, and whole-run
// determinism.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fault/fault_plan.h"
#include "nand/flash_array.h"
#include "sim/task.h"
#include "zns/zns_device.h"
#include "zns_test_util.h"

namespace zstor::zns {
namespace {

using nvme::Opcode;
using nvme::Status;
using testing::Harness;
using testing::QuietTiny;

constexpr std::uint64_t kTag = 0x1000;

/// LBAs per NAND page under the test profile (16 KiB page, 4 KiB LBA).
std::uint32_t LbasPerPage(const Harness& h) {
  return h.dev.profile().nand_geometry.page_bytes / 4096;
}

nvme::Command TaggedAppend(Harness& h, std::uint32_t zone, std::uint32_t nlb,
                           std::uint64_t tag) {
  return {.opcode = Opcode::kAppend,
          .slba = h.dev.ZoneStartLba(zone),
          .nlb = nlb,
          .payload_tag = tag};
}

/// A read-back of `nlb` tags into `tags`, resized to hold them.
nvme::Command TaggedRead(Harness& h, std::uint32_t zone, std::uint64_t off,
                         std::uint32_t nlb, std::vector<std::uint64_t>& tags) {
  tags.assign(nlb, ~std::uint64_t{0});
  return {.opcode = Opcode::kRead,
          .slba = h.dev.ZoneStartLba(zone) + off,
          .nlb = nlb,
          .payload_tag = 1,  // any nonzero value requests tag readback
          .data = tags.data()};
}

TEST(ZnsCrash, IdleDeviceRecoversCleanly) {
  Harness h(QuietTiny());
  auto body = [&]() -> sim::Task<> { co_await h.dev.CrashNow(); };
  auto t = body();
  h.sim.Run();

  const ZnsCounters& c = h.dev.counters();
  EXPECT_EQ(c.crashes, 1u);
  EXPECT_EQ(c.recoveries, 1u);
  EXPECT_EQ(c.crash_lost_bytes, 0u);
  EXPECT_EQ(c.torn_pages, 0u);
  EXPECT_EQ(h.dev.power_epoch(), 1u);
  // The outage still costs the controller boot.
  EXPECT_GE(h.dev.last_recovery_ns(), h.dev.profile().recovery_boot_cost);
  for (std::uint32_t z = 0; z < h.dev.info().num_zones; ++z) {
    EXPECT_EQ(h.dev.GetZoneState(z), ZoneState::kEmpty);
  }
  // The recovered device accepts I/O again.
  EXPECT_TRUE(h.Append(0, LbasPerPage(h)).ok());
}

TEST(ZnsCrash, FlushedDataSurvivesByteExact) {
  Harness h(QuietTiny());
  const std::uint32_t nlb = 8 * LbasPerPage(h);
  ASSERT_TRUE(h.Run(TaggedAppend(h, 0, nlb, kTag)).ok());
  ASSERT_TRUE(h.Run({.opcode = Opcode::kFlush}).ok());

  auto body = [&]() -> sim::Task<> { co_await h.dev.CrashNow(); };
  auto t = body();
  h.sim.Run();

  // Nothing was volatile: the crash drops zero bytes and the write
  // pointer holds.
  EXPECT_EQ(h.dev.counters().crash_lost_bytes, 0u);
  EXPECT_EQ(h.dev.ZoneWritePointerLba(0), h.dev.ZoneStartLba(0) + nlb);
  std::vector<std::uint64_t> tags;
  nvme::Completion rd = h.Run(TaggedRead(h, 0, 0, nlb, tags));
  ASSERT_TRUE(rd.ok());
  ASSERT_EQ(rd.count, nlb);
  for (std::uint32_t i = 0; i < nlb; ++i) {
    EXPECT_EQ(tags[i], kTag + i) << "LBA " << i;
  }
}

TEST(ZnsCrash, UnflushedTailIsDroppedAtPageGranularity) {
  Harness h(QuietTiny());
  const std::uint32_t upp = LbasPerPage(h);
  const std::uint32_t nlb = 16 * upp;
  std::uint64_t wp_lbas = 0;
  auto body = [&]() -> sim::Task<> {
    // The append acks once buffered (write-back); its NAND programs are
    // still in flight when the power cut lands. 900 us is mid-flight: 16
    // pages over 4 dies need ~4 x tPROG (433 us each) to all settle, so
    // the crash finds a settled prefix AND a volatile tail.
    nvme::Completion c = co_await h.dev.Execute(TaggedAppend(h, 0, nlb, kTag));
    ZSTOR_CHECK(c.ok());
    co_await h.sim.Delay(sim::Microseconds(900));
    co_await h.dev.CrashNow();
    wp_lbas = h.dev.ZoneWritePointerLba(0) - h.dev.ZoneStartLba(0);
  };
  auto t = body();
  h.sim.Run();

  const ZnsCounters& c = h.dev.counters();
  // The recovered write pointer is the durable prefix: page-aligned, and
  // everything beyond it is accounted as lost.
  EXPECT_EQ(wp_lbas % upp, 0u);
  EXPECT_LT(wp_lbas, nlb);  // the full append cannot have settled yet
  EXPECT_EQ(c.crash_lost_bytes, (nlb - wp_lbas) * 4096u);
  EXPECT_GT(c.crash_lost_bytes, 0u);
  EXPECT_EQ(h.dev.ZoneWrittenBytes(0), wp_lbas * 4096u);
  // Recovery rediscovered the write pointer by scanning the zone.
  EXPECT_GE(c.recovery_zone_scans, 1u);
  EXPECT_GE(h.dev.flash()->counters().recovery_probes, 1u);
  // Whatever survived reads back byte-exact.
  if (wp_lbas > 0) {
    std::vector<std::uint64_t> tags;
    nvme::Completion rd = h.Run(
        TaggedRead(h, 0, 0, static_cast<std::uint32_t>(wp_lbas), tags));
    ASSERT_TRUE(rd.ok());
    ASSERT_EQ(rd.count, wp_lbas);
    for (std::uint64_t i = 0; i < wp_lbas; ++i) {
      EXPECT_EQ(tags[i], kTag + i) << "LBA " << i;
    }
  }
  // The zone state was recomputed from the recovered write pointer.
  EXPECT_EQ(h.dev.GetZoneState(0),
            wp_lbas == 0 ? ZoneState::kEmpty : ZoneState::kClosed);
}

// Pages settle out of order when a die is busy. Zone 1's page holds die 0,
// so zone 0's page 0 queues behind it while pages 1-3 settle on the idle
// dies; page 4 queues on die 0 behind page 0. When page 0 lands, the
// prefix drains the pages settled beyond it, up to page 4. The crash comes
// while page 4 is still programming, so exactly pages 5-7 are torn.
TEST(ZnsCrash, OutOfOrderSettledPagesAreTornExactly) {
  Harness h(QuietTiny());
  ASSERT_EQ(h.dev.profile().nand_geometry.total_dies(), 4u);
  const std::uint32_t upp = LbasPerPage(h);
  std::uint64_t wp_lbas = 0;
  auto body = [&]() -> sim::Task<> {
    nvme::Completion c = co_await h.dev.Execute(TaggedAppend(h, 1, upp, kTag));
    ZSTOR_CHECK(c.ok());
    c = co_await h.dev.Execute(TaggedAppend(h, 0, 8 * upp, kTag));
    ZSTOR_CHECK(c.ok());
    co_await h.sim.Delay(sim::Microseconds(1100));
    co_await h.dev.CrashNow();
    wp_lbas = h.dev.ZoneWritePointerLba(0) - h.dev.ZoneStartLba(0);
  };
  auto t = body();
  h.sim.Run();

  const ZnsCounters& c = h.dev.counters();
  EXPECT_EQ(c.torn_pages, 3u);  // pages 5, 6 and 7
  EXPECT_EQ(wp_lbas, 4u * upp);  // the durable prefix: pages 0-3
  EXPECT_EQ(c.crash_lost_bytes, 4u * upp * 4096u);
  // Zone 1's one page settled first: nothing of it is lost.
  EXPECT_EQ(h.dev.ZoneWritePointerLba(1), h.dev.ZoneStartLba(1) + upp);
}

TEST(ZnsCrash, PostRecoveryAppendsLandAtTheRecoveredWp) {
  Harness h(QuietTiny());
  const std::uint32_t upp = LbasPerPage(h);
  auto body = [&]() -> sim::Task<> {
    nvme::Completion c =
        co_await h.dev.Execute(TaggedAppend(h, 0, 16 * upp, kTag));
    ZSTOR_CHECK(c.ok());
    co_await h.sim.Delay(sim::Microseconds(900));  // settle a prefix
    co_await h.dev.CrashNow();
  };
  auto t = body();
  h.sim.Run();

  const nvme::Lba recovered_wp = h.dev.ZoneWritePointerLba(0);
  nvme::Completion ap = h.Run(TaggedAppend(h, 0, upp, 0x9000));
  ASSERT_TRUE(ap.ok());
  EXPECT_EQ(ap.result_lba, recovered_wp);
  std::vector<std::uint64_t> tags;
  nvme::Completion rd = h.Run(TaggedRead(
      h, 0, recovered_wp - h.dev.ZoneStartLba(0), upp, tags));
  ASSERT_TRUE(rd.ok());
  ASSERT_EQ(rd.count, upp);
  for (std::uint32_t i = 0; i < upp; ++i) {
    EXPECT_EQ(tags[i], 0x9000u + i);
  }
}

TEST(ZnsCrash, InFlightAndOutageCommandsFailWithDeviceReset) {
  Harness h(QuietTiny());
  const std::uint32_t upp = LbasPerPage(h);
  nvme::Completion inflight, during_outage, after;
  auto body = [&]() -> sim::Task<> {
    auto submit = [&](nvme::Completion* out) -> sim::Task<> {
      *out = co_await h.dev.Execute(TaggedAppend(h, 1, 4 * upp, kTag));
    };
    sim::Spawn(submit(&inflight));
    co_await h.sim.Delay(100);  // the append is mid-execution
    auto crash = [&]() -> sim::Task<> { co_await h.dev.CrashNow(); };
    sim::Spawn(crash());
    co_await h.sim.Delay(sim::Milliseconds(1));  // inside the boot window
    during_outage = co_await h.dev.Execute(TaggedAppend(h, 1, upp, kTag));
    co_await h.sim.Delay(h.dev.profile().recovery_boot_cost +
                         sim::Milliseconds(5));
    after = co_await h.dev.Execute(TaggedAppend(h, 1, upp, kTag));
  };
  auto t = body();
  h.sim.Run();

  EXPECT_EQ(inflight.status, Status::kDeviceReset);
  EXPECT_EQ(during_outage.status, Status::kDeviceReset);
  EXPECT_TRUE(after.ok());
  EXPECT_GE(h.dev.counters().reset_drops, 2u);
}

TEST(ZnsCrash, ScheduledCrashFiresFromTheFaultPlan) {
  fault::FaultSpec spec;
  std::string err;
  ASSERT_TRUE(fault::ParseFaultSpec("crash=500", &spec, &err)) << err;
  fault::FaultPlan plan{spec};

  Harness h(QuietTiny());
  h.dev.AttachFaultPlan(&plan);
  auto body = [&]() -> sim::Task<> {
    co_await h.sim.Delay(sim::Milliseconds(10));
  };
  auto t = body();
  h.sim.Run();

  EXPECT_EQ(h.dev.counters().crashes, 1u);
  EXPECT_EQ(h.dev.counters().recoveries, 1u);
  EXPECT_EQ(h.dev.power_epoch(), 1u);
}

TEST(ZnsCrash, CrashRecoveryIsDeterministic) {
  auto run = [](ZnsCounters* out, nvme::Lba* wp) {
    Harness h(zns::TinyProfile());  // noise on: determinism must not
                                    // depend on quiet profiles
    auto body = [&]() -> sim::Task<> {
      nvme::Completion c = co_await h.dev.Execute(
          {.opcode = Opcode::kAppend,
           .slba = h.dev.ZoneStartLba(0),
           .nlb = 64,
           .payload_tag = kTag});
      ZSTOR_CHECK(c.ok());
      co_await h.dev.CrashNow();
    };
    auto t = body();
    h.sim.Run();
    *out = h.dev.counters();
    *wp = h.dev.ZoneWritePointerLba(0);
  };
  ZnsCounters a{}, b{};
  nvme::Lba wp_a = 0, wp_b = 0;
  run(&a, &wp_a);
  run(&b, &wp_b);
  EXPECT_EQ(wp_a, wp_b);
  EXPECT_EQ(a.crash_lost_bytes, b.crash_lost_bytes);
  EXPECT_EQ(a.torn_pages, b.torn_pages);
  EXPECT_EQ(a.recovery_ns_total, b.recovery_ns_total);
  EXPECT_EQ(a.recovery_zone_scans, b.recovery_zone_scans);
}

TEST(NandCrash, DiscardTailAndProbeModelTornPrograms) {
  Harness h(QuietTiny());
  nand::FlashArray* flash = h.dev.flash();
  ASSERT_NE(flash, nullptr);
  bool probed[4] = {};
  auto body = [&]() -> sim::Task<> {
    for (std::uint32_t p = 0; p < 4; ++p) {
      co_await flash->ProgramPage({.die = 0, .block = 0, .page = p});
    }
    // Power loss trusted only the first two pages.
    flash->CrashDiscardTail(/*die=*/0, /*block=*/0, /*new_write_ptr=*/2);
    for (std::uint32_t p = 0; p < 4; ++p) {
      probed[p] = co_await flash->ProbePage({.die = 0, .block = 0, .page = p});
    }
  };
  auto t = body();
  h.sim.Run();

  EXPECT_TRUE(probed[0]);
  EXPECT_TRUE(probed[1]);
  EXPECT_FALSE(probed[2]);  // discarded: recovery must not trust it
  EXPECT_FALSE(probed[3]);
  EXPECT_EQ(flash->counters().crash_discarded_pages, 2u);
  EXPECT_EQ(flash->counters().recovery_probes, 4u);
}

}  // namespace
}  // namespace zstor::zns
