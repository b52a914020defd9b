// Host stack tests: overhead calibration (Obs. 2) and mq-deadline zoned
// write staging/merging (the mechanism behind Obs. 7).
#include <gtest/gtest.h>

#include <vector>

#include "hostif/host_stack.h"
#include "hostif/stack_factory.h"
#include "sim/task.h"
#include "zns/zns_device.h"

namespace zstor::hostif {
namespace {

using sim::Time;
using sim::ToMicroseconds;
using zns::ZnsProfile;

ZnsProfile Quiet() {
  ZnsProfile p = zns::TinyProfile();
  p.io_sigma = 0;
  p.reset.sigma = 0;
  p.finish.sigma = 0;
  return p;
}

ZnsProfile QuietZn540() {
  ZnsProfile p = zns::Zn540Profile();
  p.io_sigma = 0;
  p.reset.sigma = 0;
  p.finish.sigma = 0;
  p.nand_timing.read_sigma = 0;
  p.nand_timing.program_sigma = 0;
  return p;
}

template <typename StackT>
Time MeasureSecondWrite(sim::Simulator& s, StackT& stack) {
  Time lat = 0;
  auto body = [&]() -> sim::Task<> {
    (void)co_await stack.Submit(
        {.opcode = nvme::Opcode::kWrite, .slba = 0, .nlb = 1});
    auto tc = co_await stack.Submit(
        {.opcode = nvme::Opcode::kWrite, .slba = 1, .nlb = 1});
    lat = tc.latency();
  };
  auto t = body();
  s.Run();
  return lat;
}

TEST(SpdkStack, Write4kLatencyMatchesPaper) {
  sim::Simulator s;
  zns::ZnsDevice dev(s, QuietZn540());
  SpdkStack stack(s, dev);
  Time lat = MeasureSecondWrite(s, stack);
  // Obs. 2/4: SPDK 4 KiB write = 11.36 us.
  EXPECT_NEAR(ToMicroseconds(lat), 11.36, 0.15);
}

TEST(KernelStack, NoSchedulerWrite4kLatencyMatchesPaper) {
  sim::Simulator s;
  zns::ZnsDevice dev(s, QuietZn540());
  KernelStack stack(s, dev, Scheduler::kNone);
  Time lat = MeasureSecondWrite(s, stack);
  // Obs. 2: kernel without a scheduler = 12.62 us.
  EXPECT_NEAR(ToMicroseconds(lat), 12.62, 0.15);
}

TEST(KernelStack, MqDeadlineAddsSchedulerOverhead) {
  sim::Simulator s;
  zns::ZnsDevice dev(s, QuietZn540());
  KernelStack stack(s, dev, Scheduler::kMqDeadline);
  Time lat = MeasureSecondWrite(s, stack);
  // Obs. 2: mq-deadline = 14.47 us (+1.85 us over no scheduler).
  EXPECT_NEAR(ToMicroseconds(lat), 14.47, 0.15);
}

TEST(KernelStack, SpdkIsTheFastestStack) {
  // The Obs.-2 ordering: SPDK < kernel-none < kernel-mq-deadline.
  auto measure = [](auto make_stack) {
    sim::Simulator s;
    zns::ZnsDevice dev(s, QuietZn540());
    auto stack = make_stack(s, dev);
    return MeasureSecondWrite(s, *stack);
  };
  Time spdk = measure([](auto& s, auto& d) {
    return std::make_unique<SpdkStack>(s, d);
  });
  Time knone = measure([](auto& s, auto& d) {
    return std::make_unique<KernelStack>(s, d, Scheduler::kNone);
  });
  Time kmq = measure([](auto& s, auto& d) {
    return std::make_unique<KernelStack>(s, d, Scheduler::kMqDeadline);
  });
  EXPECT_LT(spdk, knone);
  EXPECT_LT(knone, kmq);
}

/// One row per StackChoice: the QD1 4 KiB write latency on a noise-free
/// ZN540, in ns. Every kind runs the same HostStack::Submit, so the rows
/// differ exactly by the kind's host costs (plus mq-deadline's scheduler
/// cost): Obs. 2's 11.36 / 12.62 / 14.47 us, and psync's 3.89 us more
/// syscall overhead than SPDK.
struct KindRow {
  StackChoice choice;
  Time write_4k_ns;
  bool kernel;
};

class EveryStackKind : public ::testing::TestWithParam<KindRow> {};

TEST_P(EveryStackKind, MakeStackPinsTheWrite4kLatency) {
  const KindRow& row = GetParam();
  sim::Simulator s;
  zns::ZnsDevice dev(s, QuietZn540());
  MadeStack made = MakeStack(row.choice, s, dev);
  EXPECT_EQ(made.kernel != nullptr, row.kernel);
  if (made.kernel != nullptr) {
    EXPECT_EQ(made.kernel, static_cast<Stack*>(made.stack.get()));
  }
  EXPECT_EQ(MeasureSecondWrite(s, *made.stack), row.write_4k_ns);
}

INSTANTIATE_TEST_SUITE_P(
    AllChoices, EveryStackKind,
    ::testing::Values(KindRow{StackChoice::kSpdk, 11360, false},
                      KindRow{StackChoice::kKernelNone, 12620, true},
                      KindRow{StackChoice::kKernelMq, 14470, true},
                      KindRow{StackChoice::kPsync, 15250, false}),
    [](const ::testing::TestParamInfo<KindRow>& p) {
      switch (p.param.choice) {
        case StackChoice::kSpdk: return std::string("spdk");
        case StackChoice::kKernelNone: return std::string("kernel_none");
        case StackChoice::kKernelMq: return std::string("kernel_mq");
        case StackChoice::kPsync: return std::string("psync");
      }
      return std::string("unknown");
    });

TEST(KernelStack, MqDeadlineMergesContiguousZoneWrites) {
  sim::Simulator s;
  zns::ZnsDevice dev(s, Quiet());
  KernelStack stack(s, dev, Scheduler::kMqDeadline);
  // 16 concurrent sequential 4 KiB writes to one zone.
  auto w = [&](nvme::Lba slba) -> sim::Task<> {
    auto tc = co_await stack.Submit(
        {.opcode = nvme::Opcode::kWrite, .slba = slba, .nlb = 1});
    ZSTOR_CHECK(tc.completion.ok());
  };
  for (nvme::Lba i = 0; i < 16; ++i) sim::Spawn(w(i));
  s.Run();
  const SchedulerStats& st = stack.scheduler_stats();
  EXPECT_EQ(st.staged_writes, 16u);
  // First write dispatches alone; the rest coalesce into few requests.
  EXPECT_LT(st.dispatched_writes, 6u);
  EXPECT_GT(st.MergedFraction(), 0.6);
  // The device saw merged writes, not 16 commands.
  EXPECT_EQ(dev.counters().writes, st.dispatched_writes);
  EXPECT_EQ(dev.ZoneWrittenBytes(0), 16u * 4096);
}

TEST(KernelStack, MergeRespectsMaxRequestSize) {
  sim::Simulator s;
  zns::ZnsDevice dev(s, Quiet());
  KernelStack stack(s, dev, Scheduler::kMqDeadline,
                    {.max_merge_bytes = 16 * 1024});
  // Block the zone with a first in-flight write, then stage 16 more.
  auto w = [&](nvme::Lba slba) -> sim::Task<> {
    (void)co_await stack.Submit(
        {.opcode = nvme::Opcode::kWrite, .slba = slba, .nlb = 1});
  };
  for (nvme::Lba i = 0; i < 17; ++i) sim::Spawn(w(i));
  s.Run();
  // 1 + ceil(16 / 4): batches capped at 16 KiB = 4 LBAs.
  EXPECT_GE(stack.scheduler_stats().dispatched_writes, 5u);
}

TEST(KernelStack, NonContiguousWritesDoNotMerge) {
  sim::Simulator s;
  zns::ZnsDevice dev(s, Quiet());
  KernelStack stack(s, dev, Scheduler::kMqDeadline);
  std::vector<nvme::Status> results;
  // Two writes to DIFFERENT zones: separate queues, no merging.
  auto w = [&](nvme::Lba slba) -> sim::Task<> {
    auto tc = co_await stack.Submit(
        {.opcode = nvme::Opcode::kWrite, .slba = slba, .nlb = 1});
    results.push_back(tc.completion.status);
  };
  std::uint64_t zsz = dev.info().zone_size_lbas;
  sim::Spawn(w(0));
  sim::Spawn(w(zsz));
  s.Run();
  EXPECT_EQ(stack.scheduler_stats().dispatched_writes, 2u);
  EXPECT_EQ(stack.scheduler_stats().merged_writes, 0u);
  for (auto st : results) EXPECT_EQ(st, nvme::Status::kSuccess);
}

TEST(KernelStack, MqDeadlineAllowsDeepQueueOnOneZone) {
  // The paper: "Applications can, hence, issue multiple write operations
  // to a single zone" with mq-deadline. QD32 sequential writes all land.
  sim::Simulator s;
  zns::ZnsDevice dev(s, Quiet());
  KernelStack stack(s, dev, Scheduler::kMqDeadline);
  int ok = 0;
  auto w = [&](nvme::Lba slba) -> sim::Task<> {
    auto tc = co_await stack.Submit(
        {.opcode = nvme::Opcode::kWrite, .slba = slba, .nlb = 1});
    if (tc.completion.ok()) ++ok;
  };
  for (nvme::Lba i = 0; i < 32; ++i) sim::Spawn(w(i));
  s.Run();
  EXPECT_EQ(ok, 32);
}

TEST(SpdkStack, PassesThroughAppendsAndMgmt) {
  sim::Simulator s;
  zns::ZnsDevice dev(s, Quiet());
  SpdkStack stack(s, dev);
  auto body = [&]() -> sim::Task<> {
    auto a = co_await stack.Submit(
        {.opcode = nvme::Opcode::kAppend, .slba = 0, .nlb = 2});
    ZSTOR_CHECK(a.completion.ok());
    ZSTOR_CHECK(a.completion.result_lba == 0);
    auto r = co_await stack.Submit(
        {.opcode = nvme::Opcode::kZoneMgmtSend,
         .slba = 0,
         .zone_action = nvme::ZoneAction::kReset});
    ZSTOR_CHECK(r.completion.ok());
  };
  auto t = body();
  s.Run();
  EXPECT_EQ(dev.counters().appends, 1u);
  EXPECT_EQ(dev.counters().resets, 1u);
}

}  // namespace
}  // namespace zstor::hostif
