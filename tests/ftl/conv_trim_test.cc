// Deallocate (TRIM) tests: mapping semantics, the metadata-update cost the
// paper's Obs. 10 compares zone reset against, and the GC benefit.
#include <gtest/gtest.h>

#include "ftl/conv_device.h"
#include "zns/zns_device.h"
#include "hostif/host_stack.h"
#include "sim/task.h"
#include "workload/runner.h"

namespace zstor::ftl {
namespace {

using nvme::Opcode;
using nvme::Status;

struct Fixture {
  Fixture() : dev(sim, TinyConvProfile()), stack(sim, dev) {}

  nvme::Completion Run(nvme::Command cmd, sim::Time* latency = nullptr) {
    nvme::Completion out;
    sim::Time t0 = 0, t1 = 0;
    auto body = [&]() -> sim::Task<> {
      t0 = sim.now();
      auto tc = co_await stack.Submit(cmd);
      out = tc.completion;
      t1 = sim.now();
    };
    auto t = body();
    sim.Run();
    if (latency != nullptr) *latency = t1 - t0;
    return out;
  }

  sim::Simulator sim;
  ConvDevice dev;
  hostif::SpdkStack stack;
};

TEST(ConvTrim, DeallocateSucceedsAndCounts) {
  Fixture f;
  ASSERT_TRUE(f.Run({.opcode = Opcode::kWrite, .slba = 10, .nlb = 8}).ok());
  f.sim.Run();  // drain
  ASSERT_TRUE(
      f.Run({.opcode = Opcode::kDeallocate, .slba = 10, .nlb = 8}).ok());
  EXPECT_EQ(f.dev.counters().deallocates, 1u);
  EXPECT_EQ(f.dev.counters().units_trimmed, 8u);
}

TEST(ConvTrim, TrimOfUnmappedRangeIsANoOp) {
  Fixture f;
  ASSERT_TRUE(
      f.Run({.opcode = Opcode::kDeallocate, .slba = 0, .nlb = 64}).ok());
  EXPECT_EQ(f.dev.counters().units_trimmed, 0u);
}

TEST(ConvTrim, TrimmedDataReadsAsUnmapped) {
  Fixture f;
  ASSERT_TRUE(f.Run({.opcode = Opcode::kWrite, .slba = 5, .nlb = 4}).ok());
  f.sim.Run();
  ASSERT_TRUE(
      f.Run({.opcode = Opcode::kDeallocate, .slba = 5, .nlb = 4}).ok());
  // Reading unmapped data succeeds (zeroes) and skips NAND entirely.
  sim::Time lat = 0;
  ASSERT_TRUE(f.Run({.opcode = Opcode::kRead, .slba = 5, .nlb = 1}, &lat).ok());
  EXPECT_LT(sim::ToMicroseconds(lat), 10.0);
}

TEST(ConvTrim, CostScalesWithExtent) {
  Fixture f;
  f.dev.DebugPrefill();
  sim::Time small = 0, large = 0;
  ASSERT_TRUE(
      f.Run({.opcode = Opcode::kDeallocate, .slba = 0, .nlb = 8}, &small)
          .ok());
  ASSERT_TRUE(f.Run({.opcode = Opcode::kDeallocate, .slba = 1000, .nlb = 2048},
                    &large)
                  .ok());
  // The per-unit metadata-update term dominates for large extents.
  EXPECT_GT(large, 3 * small);
}

TEST(ConvTrim, TrimOfBufferedWriteForgetsIt) {
  Fixture f;
  // Write then trim before the drain maps it: the program must not
  // resurrect the unit.
  auto body = [&]() -> sim::Task<> {
    auto w = co_await f.stack.Submit(
        {.opcode = Opcode::kWrite, .slba = 3, .nlb = 1});
    ZSTOR_CHECK(w.completion.ok());
    auto d = co_await f.stack.Submit(
        {.opcode = Opcode::kDeallocate, .slba = 3, .nlb = 1});
    ZSTOR_CHECK(d.completion.ok());
  };
  auto t = body();
  f.sim.Run();
  sim::Time lat = 0;
  ASSERT_TRUE(f.Run({.opcode = Opcode::kRead, .slba = 3, .nlb = 1}, &lat).ok());
  EXPECT_LT(sim::ToMicroseconds(lat), 10.0);  // unmapped: no NAND read
}

TEST(ConvTrim, TrimCreatesGarbageThatGcReclaims) {
  Fixture f;
  f.dev.DebugPrefill();
  // Trim half the logical space: massive garbage, zero-cost victims.
  std::uint64_t half = f.dev.info().capacity_lbas / 2;
  ASSERT_TRUE(f.Run({.opcode = Opcode::kDeallocate,
                     .slba = 0,
                     .nlb = static_cast<std::uint32_t>(half)})
                  .ok());
  // Now a write burst: GC (when it runs) finds nearly-empty victims, so
  // write amplification stays far lower than the untrimmed baseline.
  workload::JobSpec spec;
  spec.op = Opcode::kWrite;
  spec.random = true;
  spec.request_bytes = 16 * 1024;
  spec.queue_depth = 8;
  spec.duration = sim::Seconds(2);
  spec.seed = 3;
  auto r = workload::RunJob(f.sim, f.stack, spec);
  EXPECT_GT(r.ops, 0u);
  EXPECT_LT(f.dev.counters().WriteAmplification(), 2.5);
}

TEST(ConvTrim, ZnsRejectsDeallocate) {
  sim::Simulator s;
  zns::ZnsDevice dev(s, zns::TinyProfile());
  nvme::Completion out;
  auto body = [&]() -> sim::Task<> {
    out = co_await dev.Execute(
        {.opcode = Opcode::kDeallocate, .slba = 0, .nlb = 1});
  };
  auto t = body();
  s.Run();
  EXPECT_EQ(out.status, Status::kInvalidOpcode);  // zones use reset
}

}  // namespace
}  // namespace zstor::ftl
