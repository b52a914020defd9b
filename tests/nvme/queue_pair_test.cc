#include "nvme/queue_pair.h"

#include <gtest/gtest.h>

#include <vector>

#include "nvme/controller.h"
#include "nvme/types.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace zstor::nvme {
namespace {

// A controller that charges a fixed service time per command, serialized
// through a single slot (like a one-deep device pipeline).
class FixedLatencyController : public Controller {
 public:
  FixedLatencyController(sim::Simulator& s, sim::Time service,
                         bool serialize)
      : sim_(s), service_(service), server_(s, 1), serialize_(serialize) {
    info_.capacity_lbas = 1 << 20;
  }

  const NamespaceInfo& info() const override { return info_; }

  sim::Task<Completion> Execute(const Command& cmd) override {
    ++executed_;
    if (serialize_) {
      auto g = co_await server_.Hold();
      co_await sim_.Delay(service_);
    } else {
      co_await sim_.Delay(service_);
    }
    Completion c;
    c.status = cmd.opcode == Opcode::kFlush ? Status::kInvalidOpcode
                                            : Status::kSuccess;
    c.result_lba = cmd.slba + 100;
    co_return c;
  }

  int executed() const { return executed_; }

 private:
  sim::Simulator& sim_;
  sim::Time service_;
  sim::Semaphore server_;
  bool serialize_;
  NamespaceInfo info_;
  int executed_ = 0;
};

TEST(QueuePair, MeasuresSubmissionToCompletionLatency) {
  sim::Simulator s;
  FixedLatencyController ctrl(s, sim::Microseconds(10), false);
  QueuePair qp(s, ctrl, 4);
  sim::Time latency = 0;
  auto body = [&]() -> sim::Task<> {
    auto tc = co_await qp.Issue({.opcode = Opcode::kRead, .slba = 5});
    latency = tc.latency();
    EXPECT_TRUE(tc.completion.ok());
    EXPECT_EQ(tc.completion.result_lba, 105u);
  };
  auto t = body();
  s.Run();
  EXPECT_EQ(latency, sim::Microseconds(10));
  EXPECT_EQ(qp.completed(), 1u);
}

TEST(QueuePair, QueueDepthBoundsInFlight) {
  sim::Simulator s;
  FixedLatencyController ctrl(s, sim::Microseconds(10), false);
  QueuePair qp(s, ctrl, 2);
  std::vector<sim::Time> finish;
  auto body = [&]() -> sim::Task<> {
    auto tc = co_await qp.Issue({.opcode = Opcode::kRead});
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
    QueuePair qp(s, ctrl, qd);
    auto body = [&]() -> sim::Task<> {
      co_await qp.Issue({.opcode = Opcode::kWrite});
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
  QueuePair qp(s, ctrl, 8);
  auto body = [&]() -> sim::Task<> {
    co_await qp.Issue({.opcode = Opcode::kRead});
  };
  for (int i = 0; i < 3; ++i) sim::Spawn(body());
  s.RunUntil(sim::Microseconds(5));
  EXPECT_EQ(qp.in_flight(), 3u);
  s.Run();
  EXPECT_EQ(qp.in_flight(), 0u);
  EXPECT_EQ(qp.depth(), 8u);
}

TEST(QueuePair, PropagatesErrorStatus) {
  sim::Simulator s;
  FixedLatencyController ctrl(s, sim::Microseconds(1), false);
  QueuePair qp(s, ctrl, 1);
  Status got = Status::kSuccess;
  auto body = [&]() -> sim::Task<> {
    auto tc = co_await qp.Issue({.opcode = Opcode::kFlush});
    got = tc.completion.status;
  };
  auto t = body();
  s.Run();
  EXPECT_EQ(got, Status::kInvalidOpcode);
}

TEST(LbaFormat, BytesToLbasRoundsUp) {
  LbaFormat f4k{4096};
  EXPECT_EQ(f4k.BytesToLbas(4096), 1u);
  EXPECT_EQ(f4k.BytesToLbas(4097), 2u);
  EXPECT_EQ(f4k.BytesToLbas(1), 1u);
  LbaFormat f512{512};
  EXPECT_EQ(f512.BytesToLbas(4096), 8u);
}

TEST(Types, StatusAndOpcodeNames) {
  EXPECT_EQ(ToString(Status::kTooManyOpenZones), "TooManyOpenZones");
  EXPECT_EQ(ToString(Opcode::kAppend), "append");
}

}  // namespace
}  // namespace zstor::nvme
