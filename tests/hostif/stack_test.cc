// Host stack tests: the queue pair (latency window, depth bound,
// in-flight accounting), overhead calibration (Obs. 2) and mq-deadline
// zoned write staging/merging (the mechanism behind Obs. 7).
#include <gtest/gtest.h>

#include <vector>

#include "hostif/host_stack.h"
#include "hostif/stack_factory.h"
#include "nvme/controller.h"
#include "sim/sync.h"
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

// A controller that charges a fixed service time per command, serialized
// through a single slot (like a one-deep device pipeline).
class FixedLatencyController : public nvme::Controller {
 public:
  FixedLatencyController(sim::Simulator& s, sim::Time service,
                         bool serialize)
      : sim_(s), service_(service), server_(s, 1), serialize_(serialize) {
    info_.capacity_lbas = 1 << 20;
  }

  const nvme::NamespaceInfo& info() const override { return info_; }

  sim::Task<nvme::Completion> Execute(const nvme::Command& cmd) override {
    ++executed_;
    if (serialize_) {
      auto g = co_await server_.Hold();
      co_await sim_.Delay(service_);
    } else {
      co_await sim_.Delay(service_);
    }
    nvme::Completion c;
    c.status = cmd.opcode == nvme::Opcode::kFlush
                   ? nvme::Status::kInvalidOpcode
                   : nvme::Status::kSuccess;
    c.result_lba = cmd.slba + 100;
    co_return c;
  }

  int executed() const { return executed_; }

 private:
  sim::Simulator& sim_;
  sim::Time service_;
  sim::Semaphore server_;
  bool serialize_;
  nvme::NamespaceInfo info_;
  int executed_ = 0;
};

/// A HostStack with no host costs and no scheduler: what it adds to the
/// controller's service is the queue pair alone.
class QueueOnlyStack final : public HostStack {
 public:
  QueueOnlyStack(sim::Simulator& s, nvme::Controller& ctrl,
                 std::uint32_t depth)
      : HostStack(s, ctrl, Scheduler::kNone, HostCosts{},
                  {.qp_depth = depth}) {}

  using HostStack::queue_in_flight;
};

TEST(QueuePair, MeasuresSubmissionToCompletionLatency) {
  sim::Simulator s;
  FixedLatencyController ctrl(s, sim::Microseconds(10), false);
  QueueOnlyStack qp(s, ctrl, 4);
  sim::Time latency = 0;
  auto body = [&]() -> sim::Task<> {
    auto tc = co_await qp.Submit({.opcode = nvme::Opcode::kRead, .slba = 5});
    latency = tc.latency();
    EXPECT_TRUE(tc.completion.ok());
    EXPECT_EQ(tc.completion.result_lba, 105u);
  };
  auto t = body();
  s.Run();
  EXPECT_EQ(latency, sim::Microseconds(10));
  EXPECT_EQ(ctrl.executed(), 1);
}

TEST(QueuePair, QueueDepthBoundsInFlight) {
  sim::Simulator s;
  FixedLatencyController ctrl(s, sim::Microseconds(10), false);
  QueueOnlyStack qp(s, ctrl, 2);
  std::vector<sim::Time> finish;
  auto body = [&]() -> sim::Task<> {
    co_await qp.Submit({.opcode = nvme::Opcode::kRead});
    finish.push_back(s.now());
  };
  for (int i = 0; i < 4; ++i) sim::Spawn(body());
  s.Run();
  ASSERT_EQ(finish.size(), 4u);
  // Non-serialized device, but only 2 in flight at once: waves of 2.
  EXPECT_EQ(finish[0], sim::Microseconds(10));
  EXPECT_EQ(finish[1], sim::Microseconds(10));
  EXPECT_EQ(finish[2], sim::Microseconds(20));
  EXPECT_EQ(finish[3], sim::Microseconds(20));
}

TEST(QueuePair, HigherQdRaisesThroughputUntilDeviceSerializes) {
  // With a serialized device, QD beyond 1 adds queueing latency but no
  // throughput — the basis of every saturation plot in the paper.
  for (std::uint32_t qd : {1u, 4u}) {
    sim::Simulator s;
    FixedLatencyController ctrl(s, sim::Microseconds(10), true);
    QueueOnlyStack qp(s, ctrl, qd);
    auto body = [&]() -> sim::Task<> {
      (void)co_await qp.Submit({.opcode = nvme::Opcode::kWrite});
    };
    for (int i = 0; i < 100; ++i) sim::Spawn(body());
    s.Run();
    // 100 serialized commands at 10 us each: 1 ms regardless of QD.
    EXPECT_EQ(s.now(), sim::Milliseconds(1));
  }
}

TEST(QueuePair, InFlightAccountingIsAccurate) {
  sim::Simulator s;
  FixedLatencyController ctrl(s, sim::Microseconds(10), false);
  const std::uint32_t depth = 8;
  QueueOnlyStack qp(s, ctrl, depth);
  auto body = [&]() -> sim::Task<> {
    (void)co_await qp.Submit({.opcode = nvme::Opcode::kRead});
  };
  for (int i = 0; i < 3; ++i) sim::Spawn(body());
  s.RunUntil(sim::Microseconds(5));
  EXPECT_EQ(qp.queue_in_flight(), 3u);
  s.Run();
  EXPECT_EQ(qp.queue_in_flight(), 0u);
  EXPECT_EQ(depth, 8u);
}

TEST(QueuePair, PropagatesErrorStatus) {
  sim::Simulator s;
  FixedLatencyController ctrl(s, sim::Microseconds(1), false);
  QueueOnlyStack qp(s, ctrl, 1);
  nvme::Status got = nvme::Status::kSuccess;
  auto body = [&]() -> sim::Task<> {
    auto tc = co_await qp.Submit({.opcode = nvme::Opcode::kFlush});
    got = tc.completion.status;
  };
  auto t = body();
  s.Run();
  EXPECT_EQ(got, nvme::Status::kInvalidOpcode);
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

// Writes past the last zone still get a staging queue of their own zone
// (one write in flight per zone) and fail at the device. An LBA far
// beyond the namespace costs no more than one just past it.
TEST(KernelStack, MqDeadlineStagesWritesPastTheLastZonePerZone) {
  sim::Simulator s;
  zns::ZnsDevice dev(s, Quiet());
  KernelStack stack(s, dev, Scheduler::kMqDeadline);
  const nvme::Lba past = dev.info().num_zones * dev.info().zone_size_lbas;
  std::vector<nvme::Status> results;
  auto w = [&](nvme::Lba slba) -> sim::Task<> {
    auto tc = co_await stack.Submit(
        {.opcode = nvme::Opcode::kWrite, .slba = slba, .nlb = 1});
    results.push_back(tc.completion.status);
  };
  sim::Spawn(w(past));
  sim::Spawn(w(past + 1));            // same zone: staged behind the first
  sim::Spawn(w(nvme::Lba{1} << 50));  // a zone of its own
  s.Run();
  EXPECT_EQ(stack.scheduler_stats().dispatched_writes, 3u);
  EXPECT_EQ(stack.scheduler_stats().merged_writes, 0u);
  ASSERT_EQ(results.size(), 3u);
  for (auto st : results) EXPECT_EQ(st, nvme::Status::kLbaOutOfRange);
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
