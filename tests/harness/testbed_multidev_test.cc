// Multi-device Testbed tests: WithDevices wiring, FillZones routing
// through the stripe map, and the aggregated log pages (SMART summed,
// zone report in logical order, die utilization concatenated), the
// summed zns.*/nand.* metrics and the per-device fault plans on both
// engines, and disjoint trace ids across testbeds.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "harness/testbed.h"
#include "nvme/log_page.h"
#include "sim/task.h"
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

Testbed MakeBed(std::uint32_t ndev,
                StackChoice stack = StackChoice::kSpdk) {
  return TestbedBuilder()
      .WithZnsProfile(QuietTiny())
      .WithDevices(ndev)
      .WithStack(stack)
      .Build();
}

TEST(TestbedMultiDev, WithDevicesBuildsStripedWiring) {
  Testbed tb = MakeBed(4);
  EXPECT_EQ(tb.num_devices(), 4u);
  ASSERT_NE(tb.striped(), nullptr);
  EXPECT_EQ(tb.striped()->num_lanes(), 4u);
  EXPECT_EQ(&tb.stack(), tb.striped());  // the stripe IS the host stack
  std::set<zns::ZnsDevice*> distinct;
  for (std::size_t d = 0; d < 4; ++d) {
    ASSERT_NE(tb.zns(d), nullptr);
    distinct.insert(tb.zns(d));
  }
  EXPECT_EQ(distinct.size(), 4u);
  EXPECT_EQ(tb.zns(), tb.zns(0));
  // The merged namespace spans all four devices.
  EXPECT_EQ(tb.stack().info().num_zones, 4 * tb.zns()->info().num_zones);
}

TEST(TestbedMultiDev, SingleDeviceKeepsClassicWiring) {
  Testbed tb = MakeBed(1, StackChoice::kKernelMq);
  EXPECT_EQ(tb.num_devices(), 1u);
  EXPECT_EQ(tb.striped(), nullptr);
  EXPECT_NE(tb.kernel(), nullptr);  // scheduler stats still reachable
}

TEST(TestbedMultiDev, FillZonesRoutesThroughTheStripeMap) {
  Testbed tb = MakeBed(4);
  const std::uint64_t cap = tb.zns()->profile().zone_cap_bytes;
  // Logical zones 0..7 map one-per-device twice around: each device must
  // end up with its zones 0 and 1 full and nothing else touched.
  tb.FillZones(0, 8);
  for (std::size_t d = 0; d < 4; ++d) {
    EXPECT_EQ(tb.zns(d)->ZoneWrittenBytes(0), cap) << "d=" << d;
    EXPECT_EQ(tb.zns(d)->ZoneWrittenBytes(1), cap) << "d=" << d;
    EXPECT_EQ(tb.zns(d)->ZoneWrittenBytes(2), 0u) << "d=" << d;
  }
}

TEST(TestbedMultiDev, SmartSumsCountersAcrossDevices) {
  Testbed tb = MakeBed(2);
  workload::JobSpec spec;
  spec.op = nvme::Opcode::kAppend;
  spec.zones = tb.ZoneList(0, 4);  // two logical zones per device
  spec.queue_depth = 2;
  spec.request_bytes = 8 * 1024;
  spec.duration = sim::Milliseconds(20);
  workload::JobResult r = tb.RunJob(spec);
  ASSERT_GT(r.ops, 0u);
  ASSERT_EQ(r.errors, 0u);

  std::uint64_t appends = 0, bytes = 0;
  for (std::size_t d = 0; d < 2; ++d) {
    EXPECT_GT(tb.zns(d)->counters().appends, 0u) << "d=" << d;
    appends += tb.zns(d)->counters().appends;
    bytes += tb.zns(d)->counters().bytes_written;
  }
  nvme::SmartLog smart = tb.Smart();
  EXPECT_EQ(smart.device, "zns");
  EXPECT_EQ(smart.host_writes, appends);
  EXPECT_EQ(smart.bytes_written, bytes);
  EXPECT_EQ(smart.write_amplification, 1.0);
  for (const auto& f : nvme::SmartLog::kFields) {
    std::uint64_t sum = 0;
    for (std::size_t d = 0; d < 2; ++d) {
      sum += tb.zns(d)->GetSmartLog().*f.member;
    }
    EXPECT_EQ(smart.*f.member, sum) << f.name;
  }
}

TEST(TestbedMultiDev, SingleDeviceSmartKeepsZnsWriteAmplificationAtOne) {
  // 24 KiB appended: one 16 KiB NAND page programmed and 8 KiB still in
  // the write-back buffer. Media bytes over host bytes would read 2/3;
  // ZNS never migrates data, so write amplification is exactly 1.
  Testbed tb = MakeBed(1);
  const std::uint32_t page_bytes =
      tb.zns()->profile().nand_geometry.page_bytes;
  auto body = [&]() -> sim::Task<> {
    nvme::TimedCompletion tc = co_await tb.stack().Submit(
        {.opcode = nvme::Opcode::kAppend,
         .slba = tb.zns()->ZoneStartLba(0),
         .nlb = 3 * page_bytes / 2 / tb.zns()->info().format.lba_bytes});
    ZSTOR_CHECK(tc.completion.ok());
  };
  auto t = body();
  tb.sim().Run();
  nvme::SmartLog smart = tb.Smart();
  ASSERT_EQ(smart.media_bytes_programmed, page_bytes);
  ASSERT_EQ(smart.bytes_written, 3ull * page_bytes / 2);
  EXPECT_EQ(smart.write_amplification, 1.0);
}

/// Expects every T field's metric in `snap` to equal the sum of that
/// field over `ndev` devices, where `get(d)` is device d's T.
template <typename T, typename Get>
void ExpectSnapshotSums(const telemetry::Snapshot& snap, std::size_t ndev,
                        Get get) {
  for (const auto& f : T::kFields) {
    std::uint64_t sum = 0;
    for (std::size_t d = 0; d < ndev; ++d) sum += get(d).*f.member;
    const telemetry::Snapshot::Metric* m = snap.Find(f.name);
    ASSERT_NE(m, nullptr) << f.name;
    EXPECT_EQ(m->value, static_cast<double>(sum)) << f.name;
  }
}

/// Parameter: WithSimThreads value (0 = classic engine, 1 = lane engine).
class TestbedMultiDevSnapshot : public ::testing::TestWithParam<int> {};

TEST_P(TestbedMultiDevSnapshot, SumsEveryDeviceAndNandCounter) {
  Testbed tb = TestbedBuilder()
                   .WithZnsProfile(QuietTiny())
                   .WithDevices(2)
                   .WithSimThreads(GetParam())
                   .WithTelemetry({})
                   .Build();
  ASSERT_EQ(tb.parallel_sim() != nullptr, GetParam() > 0);
  // Appends that wrap full zones through resets, then reads of filled
  // zones, so device and NAND counters of both kinds move.
  workload::JobSpec w;
  w.op = nvme::Opcode::kAppend;
  w.zones = tb.ZoneList(0, 4);
  w.workers = 4;
  w.partition_zones = true;  // one zone per worker, two per device
  w.request_bytes = 64 * 1024;
  w.on_full = workload::JobSpec::OnFull::kReset;
  w.duration = sim::Milliseconds(100);
  ASSERT_EQ(tb.RunJob(w).errors, 0u);
  tb.FillZones(4, 4);
  workload::JobSpec r;
  r.op = nvme::Opcode::kRead;
  r.random = true;
  r.zones = tb.ZoneList(4, 4);
  r.queue_depth = 4;
  r.duration = sim::Milliseconds(10);
  ASSERT_EQ(tb.RunJob(r).errors, 0u);

  const telemetry::Snapshot snap = tb.TakeSnapshot();
  for (std::size_t d = 0; d < 2; ++d) {
    EXPECT_GT(tb.zns(d)->counters().appends, 0u) << "d=" << d;
    EXPECT_GT(tb.zns(d)->counters().reads, 0u) << "d=" << d;
  }
  EXPECT_GT(snap.Find("zns.resets")->value, 0.0);
  EXPECT_GT(snap.Find("nand.page_programs")->value, 0.0);
  ExpectSnapshotSums<zns::ZnsCounters>(
      snap, 2, [&](std::size_t d) { return tb.zns(d)->counters(); });
  ExpectSnapshotSums<nand::FlashCounters>(
      snap, 2, [&](std::size_t d) { return tb.zns(d)->flash()->counters(); });
}

TEST_P(TestbedMultiDevSnapshot, EveryDeviceDrawsFromItsOwnFaultPlan) {
  fault::FaultSpec spec;
  std::string error;
  ASSERT_TRUE(fault::ParseFaultSpec(
      "seed=7,read_c=0.05,sched=0:read_c:*:*", &spec, &error))
      << error;
  Testbed tb = TestbedBuilder()
                   .WithZnsProfile(QuietTiny())
                   .WithDevices(2)
                   .WithSimThreads(GetParam())
                   .WithTelemetry({})
                   .WithFaults(spec)
                   .Build();
  tb.FillZones(0, 4);
  workload::JobSpec r;
  r.op = nvme::Opcode::kRead;
  r.random = true;
  r.zones = tb.ZoneList(0, 4);
  r.queue_depth = 4;
  r.duration = sim::Milliseconds(10);
  ASSERT_EQ(tb.RunJob(r).errors, 0u);

  // One plan per device, seeded like the devices' noise streams; the
  // default accessor is device 0's, which keeps the spec's own seed.
  ASSERT_NE(tb.faults(0), nullptr);
  ASSERT_NE(tb.faults(1), nullptr);
  EXPECT_NE(tb.faults(0), tb.faults(1));
  EXPECT_EQ(tb.faults(), tb.faults(0));
  EXPECT_EQ(tb.faults(2), nullptr);
  EXPECT_EQ(tb.faults(0)->spec().seed, 7u);
  EXPECT_EQ(tb.faults(1)->spec().seed, 7u + 0x9E3779B97F4A7C15ull);
  for (std::size_t d = 0; d < 2; ++d) {
    EXPECT_GT(tb.zns(d)->counters().reads, 0u) << "d=" << d;
    // The one-shot schedule entry fires once on every device.
    EXPECT_EQ(tb.faults(d)->counters().scheduled_fired, 1u) << "d=" << d;
    EXPECT_GT(tb.faults(d)->counters().correctable_read_errors, 1u)
        << "d=" << d;
  }
  const telemetry::Snapshot snap = tb.TakeSnapshot();
  EXPECT_EQ(snap.Find("fault.scheduled_fired")->value, 2.0);
  ExpectSnapshotSums<fault::FaultCounters>(
      snap, 2, [&](std::size_t d) { return tb.faults(d)->counters(); });
}

INSTANTIATE_TEST_SUITE_P(Engines, TestbedMultiDevSnapshot,
                         ::testing::Values(0, 1),
                         [](const ::testing::TestParamInfo<int>& p) {
                           return p.param == 0 ? std::string("classic")
                                               : std::string("lanes1");
                         });

TEST(TestbedMultiDev, TracedTestbedsSharingASinkGetDisjointIds) {
  telemetry::RingBufferSink shared(1 << 14);
  std::set<std::uint64_t> ids[2];
  for (std::set<std::uint64_t>& mine : ids) {
    Testbed tb = TestbedBuilder()
                     .WithZnsProfile(QuietTiny())
                     .WithDevices(2)
                     .WithSimThreads(0)
                     .WithTelemetry({})
                     .Build();
    tb.telemetry()->SetSink(&shared);
    const std::uint64_t seen = shared.total_events();
    workload::JobSpec w;
    w.op = nvme::Opcode::kAppend;
    w.zones = tb.ZoneList(0, 2);
    w.duration = sim::Milliseconds(1);
    ASSERT_GT(tb.RunJob(w).ops, 0u);
    tb.Finish();
    const std::vector<telemetry::TraceEvent> events = shared.Events();
    ASSERT_EQ(shared.dropped(), 0u);
    for (std::size_t i = seen; i < events.size(); ++i) {
      if (events[i].cmd != 0) mine.insert(events[i].cmd);
    }
    EXPECT_FALSE(mine.empty());
  }
  for (std::uint64_t id : ids[0]) EXPECT_EQ(ids[1].count(id), 0u) << id;
}

TEST(TestbedMultiDev, ZoneReportIsInLogicalOrderWithSummedBudgets) {
  Testbed tb = MakeBed(3);
  const zns::ZnsProfile& p = tb.zns()->profile();
  tb.FillZones(0, 5);
  nvme::ZoneReportLog report = tb.ZoneReport();
  EXPECT_EQ(report.num_zones, 3 * p.num_zones);
  EXPECT_EQ(report.max_open, 3 * p.max_open_zones);
  EXPECT_EQ(report.max_active, 3 * p.max_active_zones);
  ASSERT_EQ(report.zones.size(), report.num_zones);
  const std::uint64_t zsz_lbas = tb.stack().info().zone_size_lbas;
  for (std::uint32_t lz = 0; lz < report.num_zones; ++lz) {
    EXPECT_EQ(report.zones[lz].zone, lz);
    EXPECT_EQ(report.zones[lz].zslba, lz * zsz_lbas);
    // A full zone's pointer sits at its capacity, in the same zone.
    EXPECT_EQ(report.zones[lz].write_pointer,
              lz * zsz_lbas + (lz < 5 ? tb.stack().info().zone_cap_lbas : 0));
    EXPECT_EQ(report.zones[lz].state, lz < 5 ? "Full" : "Empty");
    EXPECT_EQ(report.zones[lz].written_bytes,
              lz < 5 ? p.zone_cap_bytes : 0u);
  }
}

TEST(TestbedMultiDev, DieUtilConcatenatesWithOffsetDieIndices) {
  Testbed tb = MakeBed(2);
  tb.FillZones(0, 2);  // touch both devices so dies report activity
  nvme::DieUtilLog log = tb.DieUtil();
  const std::uint32_t per_dev = tb.zns()->profile().nand_geometry.total_dies();
  ASSERT_EQ(log.dies.size(), 2u * per_dev);
  for (std::uint32_t i = 0; i < log.dies.size(); ++i) {
    EXPECT_EQ(log.dies[i].die, i);  // strictly increasing, device-offset
  }
}

TEST(TestbedMultiDev, ReadJobSpansAllDevicesCleanly) {
  Testbed tb = MakeBed(4);
  tb.FillZones(0, 8);
  workload::JobSpec spec;
  spec.op = nvme::Opcode::kRead;
  spec.random = true;
  spec.zones = tb.ZoneList(0, 8);
  spec.queue_depth = 8;
  spec.duration = sim::Milliseconds(20);
  workload::JobResult r = tb.RunJob(spec);
  EXPECT_GT(r.ops, 100u);
  EXPECT_EQ(r.errors, 0u);
  for (std::size_t d = 0; d < 4; ++d) {
    EXPECT_GT(tb.zns(d)->counters().reads, 0u) << "d=" << d;
  }
}

}  // namespace
}  // namespace zstor
