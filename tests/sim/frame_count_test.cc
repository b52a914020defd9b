// Coroutine frames per command (task.h's FramesCreated): each layer a
// command crosses costs at most one frame, and only a layer that does
// work of its own has one (DESIGN.md §1.1). Each case pins the exact
// count of one command kind from the host stack's Submit down to the
// NAND page programs it starts, and names the frames it had while the
// controller's Execute, the host stack's queue-pair round trip and
// mq-deadline staging, DoZoneMgmt, the ZNS write's program admission
// and StripedStack::Submit were coroutines of their own. The counter runs on every build, so these
// hold under ASan too.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "ftl/conv_device.h"
#include "harness/testbed.h"
#include "hostif/host_stack.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "zns/zns_device.h"

namespace zstor::sim {
namespace {

using nvme::Opcode;

/// Frames created from `submit()`'s call until its command completes on
/// `s`: the command's own, none of the awaiting caller's.
template <typename Submit>
std::uint64_t FramesOf(Simulator& s, Submit submit) {
  std::uint64_t frames = 0;
  auto body = [&]() -> Task<> {
    const std::uint64_t before = FramesCreated();
    const nvme::TimedCompletion tc = co_await submit();
    frames = FramesCreated() - before;
    EXPECT_TRUE(tc.completion.ok()) << nvme::ToString(tc.completion.status);
  };
  auto t = body();
  s.Run();
  return frames;
}

TEST(FrameCount, SpdkZnsRead) {
  Simulator s;
  zns::ZnsDevice dev(s, zns::TinyProfile());
  hostif::SpdkStack stack(s, dev);
  const auto io = [&](Opcode op, std::uint32_t nlb) {
    return FramesOf(s, [&] {
      return stack.Submit({.opcode = op, .slba = 0, .nlb = nlb});
    });
  };
  io(Opcode::kWrite, 4);  // one NAND page
  io(Opcode::kFlush, 1);
  const std::uint64_t reads0 = dev.flash()->counters().page_reads;
  const std::uint64_t frames = io(Opcode::kRead, 1);
  EXPECT_EQ(dev.flash()->counters().page_reads, reads0 + 1);
  // Submit and DoRead; the page read is a record. Was 4, with
  // QueueRoundTrip and Execute.
  EXPECT_EQ(frames, 2u);
}

TEST(FrameCount, SpdkZnsWrite) {
  Simulator s;
  zns::ZnsDevice dev(s, zns::TinyProfile());
  hostif::SpdkStack stack(s, dev);
  const std::uint32_t lbas_per_page = 4;  // 16 KiB pages of 4 KiB LBAs
  const auto write = [&](nvme::Lba slba) {
    return FramesOf(s, [&] {
      return stack.Submit({.opcode = Opcode::kWrite, .slba = slba, .nlb = 1});
    });
  };
  // Submit and DoWrite (was 5, with QueueRoundTrip, Execute and
  // AdmitPrograms)...
  for (nvme::Lba lba = 0; lba + 1 < lbas_per_page; ++lba) {
    EXPECT_EQ(write(lba), 2u) << "lba " << lba;
  }
  // ...and the ProgramZonePage of the page the write completes (was 6).
  EXPECT_EQ(write(lbas_per_page - 1), 3u);
}

TEST(FrameCount, KernelMqDeadlineMergedBatch) {
  Simulator s;
  zns::ZnsDevice dev(s, zns::TinyProfile());
  hostif::KernelStack stack(s, dev, hostif::Scheduler::kMqDeadline);
  // Eight 4 KiB writes at once: the first dispatches alone, the other
  // seven stage behind it and go to the device as one merged batch.
  constexpr int kWrites = 8;
  const std::uint64_t before = FramesCreated();
  std::optional<Task<nvme::TimedCompletion>> writes[kWrites];
  for (int i = 0; i < kWrites; ++i) {
    writes[i].emplace(stack.Submit(
        {.opcode = Opcode::kWrite, .slba = static_cast<nvme::Lba>(i)}));
  }
  s.Run();
  const std::uint64_t frames = FramesCreated() - before;
  EXPECT_EQ(stack.scheduler_stats().dispatched_writes, 2u);
  EXPECT_EQ(stack.scheduler_stats().merged_writes, 6u);
  // Per write, Submit (8). Per batch, DispatchBatch and DoWrite (4).
  // The merged batch completes both NAND pages (2). Was 28: each
  // write's StageZonedWrite (8) and each batch's QueueRoundTrip, Execute
  // and AdmitPrograms (6).
  EXPECT_EQ(frames, 14u);
}

TEST(FrameCount, SpdkZoneReset) {
  Simulator s;
  zns::ZnsDevice dev(s, zns::TinyProfile());
  hostif::SpdkStack stack(s, dev);
  dev.DebugFillZone(0, 1 << 20);
  const std::uint64_t frames = FramesOf(s, [&] {
    return stack.Submit({.opcode = Opcode::kZoneMgmtSend, .slba = 0,
                         .zone_action = nvme::ZoneAction::kReset});
  });
  // Submit and DoReset. Was 5, with QueueRoundTrip, Execute and
  // DoZoneMgmt.
  EXPECT_EQ(frames, 2u);
}

TEST(FrameCount, SpdkConvRead) {
  Simulator s;
  ftl::ConvDevice dev(s, ftl::TinyConvProfile());
  dev.DebugPrefill();
  hostif::SpdkStack stack(s, dev);
  const std::uint64_t frames = FramesOf(s, [&] {
    return stack.Submit({.opcode = Opcode::kRead, .slba = 0, .nlb = 1});
  });
  EXPECT_GT(dev.flash().counters().page_reads, 0u);
  // Submit and DoRead. Was 4, with QueueRoundTrip and Execute.
  EXPECT_EQ(frames, 2u);
}

/// A 4 KiB append to logical zone 0 (device 0) of two striped ZN540
/// Tinies on the SPDK stack.
std::uint64_t StripedAppendFrames(int sim_threads) {
  Testbed tb = TestbedBuilder()
                   .WithZnsProfile(zns::TinyProfile())
                   .WithDevices(2)
                   .WithStack(StackChoice::kSpdk)
                   .WithSimThreads(sim_threads)
                   .Build();
  std::uint64_t frames = 0;
  auto body = [&]() -> Task<> {
    const std::uint64_t before = FramesCreated();
    const nvme::TimedCompletion tc =
        co_await tb.stack().Submit({.opcode = Opcode::kAppend, .slba = 0});
    frames = FramesCreated() - before;
    EXPECT_TRUE(tc.completion.ok()) << nvme::ToString(tc.completion.status);
  };
  auto t = body();
  if (ParallelSimulator* ps = tb.parallel_sim(); ps != nullptr) {
    ps->Run(1);  // every lane on this thread
  } else {
    tb.sim().Run();
  }
  EXPECT_EQ(tb.zns(0)->counters().appends, 1u);
  return frames;
}

TEST(FrameCount, StripedAppendOnTheClassicEngine) {
  // RouteOne, then the device's SPDK command: Submit and DoWrite. Was
  // 7, with StripedStack::Submit, QueueRoundTrip, Execute and
  // AdmitPrograms.
  EXPECT_EQ(StripedAppendFrames(0), 3u);
}

TEST(FrameCount, StripedAppendOnTheLaneEngine) {
  // As on the classic engine, plus the proxy's MailboxStack::Submit on
  // the coordinator and its Serve in the device lane. Was 9.
  EXPECT_EQ(StripedAppendFrames(1), 5u);
}

}  // namespace
}  // namespace zstor::sim
