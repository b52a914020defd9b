// Conventional-FTL power-loss crash/recovery tests (DESIGN.md §11): the
// mapping journal's loss window (buffered-write rollback + unsynced-tail
// revert), flush durability, checkpoint-bounded replay, the
// sync-interval WA/recovery tradeoff, and determinism.
#include <gtest/gtest.h>

#include <cstdint>

#include "ftl/conv_device.h"
#include "hostif/host_stack.h"
#include "sim/task.h"

namespace zstor::ftl {
namespace {

using nvme::Opcode;
using nvme::Status;

constexpr std::uint64_t kTagA = 0x0A00;
constexpr std::uint64_t kTagB = 0x0B00;
constexpr std::uint64_t kTagC = 0x0C00;

struct Fixture {
  explicit Fixture(ConvProfile p = TinyConvProfile())
      : dev(sim, std::move(p)), stack(sim, dev) {}

  nvme::Completion Run(nvme::Command cmd) {
    nvme::Completion out;
    auto body = [&]() -> sim::Task<> {
      auto tc = co_await stack.Submit(cmd);
      out = tc.completion;
    };
    auto t = body();
    sim.Run();
    return out;
  }

  nvme::Completion Write(nvme::Lba lba, std::uint32_t nlb,
                         std::uint64_t tag) {
    return Run({.opcode = Opcode::kWrite,
                .slba = lba,
                .nlb = nlb,
                .payload_tag = tag});
  }
  nvme::Completion ReadTags(nvme::Lba lba, std::uint32_t nlb) {
    return Run({.opcode = Opcode::kRead,
                .slba = lba,
                .nlb = nlb,
                .payload_tag = 1});
  }
  void Crash() {
    auto body = [&]() -> sim::Task<> { co_await dev.CrashNow(); };
    auto t = body();
    sim.Run();
  }

  sim::Simulator sim;
  ConvDevice dev;
  hostif::SpdkStack stack;
};

/// One NAND page worth of mapping units (the program-batch granule).
std::uint32_t Upp(const Fixture& f) { return f.dev.profile().units_per_page(); }

TEST(ConvCrash, FlushedDataSurvivesByteExact) {
  Fixture f;
  const std::uint32_t n = 8 * Upp(f);
  ASSERT_TRUE(f.Write(0, n, kTagA).ok());
  ASSERT_TRUE(f.Run({.opcode = Opcode::kFlush}).ok());
  f.Crash();

  EXPECT_EQ(f.dev.counters().crashes, 1u);
  EXPECT_EQ(f.dev.counters().recoveries, 1u);
  EXPECT_EQ(f.dev.counters().crash_lost_units, 0u);
  EXPECT_EQ(f.dev.counters().journal_reverted_entries, 0u);
  nvme::Completion rd = f.ReadTags(0, n);
  ASSERT_TRUE(rd.ok());
  ASSERT_EQ(rd.payload_tags.size(), n);
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(rd.payload_tags[i], kTagA + i) << "LBA " << i;
  }
}

TEST(ConvCrash, UnsyncedJournalTailRevertsToNothing) {
  // A huge sync interval keeps every mapping delta volatile: the crash
  // reverts all of them, and never-flushed fresh writes are legally lost.
  ConvProfile p = TinyConvProfile();
  p.journal_sync_interval = 1 << 20;
  Fixture f(p);
  const std::uint32_t n = 4 * Upp(f);
  ASSERT_TRUE(f.Write(0, n, kTagA).ok());  // programs settle, tail unsynced
  f.Crash();

  EXPECT_EQ(f.dev.counters().journal_reverted_entries, n);
  EXPECT_EQ(f.dev.counters().recovery_replay_entries, 0u);
  nvme::Completion rd = f.ReadTags(0, n);
  ASSERT_TRUE(rd.ok());
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(rd.payload_tags[i], 0u) << "LBA " << i;  // unmapped again
  }
}

TEST(ConvCrash, UnflushedOverwriteRollsBackToTheFlushedVersion) {
  ConvProfile p = TinyConvProfile();
  p.journal_sync_interval = 1 << 20;  // keep the overwrite delta unsynced
  Fixture f(p);
  const std::uint32_t n = Upp(f);
  ASSERT_TRUE(f.Write(0, n, kTagA).ok());
  ASSERT_TRUE(f.Run({.opcode = Opcode::kFlush}).ok());  // certify version A
  ASSERT_TRUE(f.Write(0, n, kTagB).ok());  // B settles; its delta is volatile
  f.Crash();

  // The journal revert re-validated version A's physical copy.
  EXPECT_EQ(f.dev.counters().journal_reverted_entries, n);
  nvme::Completion rd = f.ReadTags(0, n);
  ASSERT_TRUE(rd.ok());
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(rd.payload_tags[i], kTagA + i) << "LBA " << i;
  }
  // The rolled-back mapping stays consistent: overwriting again works.
  ASSERT_TRUE(f.Write(0, n, kTagB).ok());
  ASSERT_TRUE(f.Run({.opcode = Opcode::kFlush}).ok());
  rd = f.ReadTags(0, n);
  ASSERT_TRUE(rd.ok());
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(rd.payload_tags[i], kTagB + i) << "LBA " << i;
  }
}

TEST(ConvCrash, BufferedWritesThatNeverProgrammedAreLost) {
  Fixture f;
  const std::uint32_t n = Upp(f);
  ASSERT_TRUE(f.Write(0, n, kTagA).ok());
  ASSERT_TRUE(f.Run({.opcode = Opcode::kFlush}).ok());
  // A sub-page overwrite sits in the write buffer (no program dispatches
  // until a full page accumulates): pure buffered state.
  const std::uint32_t half = n / 2 == 0 ? 1 : n / 2;
  ASSERT_TRUE(f.Write(0, half, kTagB).ok());
  f.Crash();

  EXPECT_EQ(f.dev.counters().crash_lost_units, half);
  nvme::Completion rd = f.ReadTags(0, n);
  ASSERT_TRUE(rd.ok());
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(rd.payload_tags[i], kTagA + i)
        << "LBA " << i << " must hold the flushed version";
  }
}

/// Flushes version A of LBA 0 into the first host block and version C of
/// LBA 1 elsewhere, leaves a sub-page overwrite B of both in the buffer,
/// then dispatches B's page and cuts power while that program is in
/// flight. A's block holds no other live data by then, only a stale
/// back-pointer to LBA 1 (whose version A it held). With `gc_erases_a`,
/// the free-block acquisition for B's page crosses the GC watermark, and
/// GC erases A's block before the crash. Returns the tags of LBAs 0-1.
ConvCounters CrashWithBufferedOverwrite(bool gc_erases_a,
                                        nvme::Completion* lbas) {
  ConvProfile p = TinyConvProfile();
  const std::uint32_t reserve = 2 * p.gc_workers + 2;
  // Writing 2 x 64 pages fills 8 blocks, four streams x 16 pages each.
  const auto free_before_b = static_cast<std::uint32_t>(
      p.nand_geometry.total_blocks() - reserve - 8);
  if (gc_erases_a) {
    p.gc_low_blocks = free_before_b;  // the next acquisition starts GC
    p.gc_high_blocks = free_before_b + 2;
  }
  Fixture f(p);
  const std::uint32_t upp = Upp(f);
  const std::uint32_t span = 64 * upp;
  EXPECT_EQ(upp, 4u);
  // Version A of LBAs [0, span): LBAs 0-1 land in page 0 of stream 0's
  // block. Version C of [1, span] leaves LBA 0 its only live unit.
  EXPECT_TRUE(f.Write(0, span, kTagA).ok());
  EXPECT_TRUE(f.Write(1, span, kTagC).ok());
  EXPECT_TRUE(f.Run({.opcode = Opcode::kFlush}).ok());
  EXPECT_EQ(f.dev.free_blocks(), free_before_b);
  EXPECT_TRUE(f.Write(0, 2, kTagB).ok());  // B: buffered, origins A and C
  EXPECT_EQ(f.dev.counters().gc_invocations, 0u);
  auto body = [&]() -> sim::Task<> {
    // Completes B's page: its program takes a fresh block and is in
    // flight when the power fails.
    nvme::Completion c = co_await f.dev.Execute(
        {.opcode = Opcode::kWrite, .slba = 2 * span, .nlb = upp - 2});
    EXPECT_TRUE(c.ok());
    co_await f.dev.CrashNow();
  };
  auto t = body();
  f.sim.Run();
  *lbas = f.ReadTags(0, 2);
  return f.dev.counters();
}

TEST(ConvCrash, BufferedOverwriteOfAnErasedBlockIsLost) {
  nvme::Completion rd;
  const ConvCounters c = CrashWithBufferedOverwrite(true, &rd);
  EXPECT_GE(c.gc_invocations, 1u);
  // B's page (B plus two fresh units) never reached flash, and GC erased
  // LBA 0's copy A while B sat in the buffer: nothing to roll back to.
  // LBA 1's stale back-pointer into the erased block forgets nothing.
  EXPECT_EQ(c.crash_lost_units, 4u);
  ASSERT_TRUE(rd.ok());
  ASSERT_EQ(rd.payload_tags.size(), 2u);
  EXPECT_EQ(rd.payload_tags[0], 0u);
  EXPECT_EQ(rd.payload_tags[1], kTagC);
}

TEST(ConvCrash, BufferedOverwriteWithoutGcRollsBackToTheFlushedVersion) {
  nvme::Completion rd;
  const ConvCounters c = CrashWithBufferedOverwrite(false, &rd);
  EXPECT_EQ(c.gc_invocations, 0u);
  EXPECT_EQ(c.crash_lost_units, 4u);
  ASSERT_TRUE(rd.ok());
  ASSERT_EQ(rd.payload_tags.size(), 2u);
  EXPECT_EQ(rd.payload_tags[0], kTagA);
  EXPECT_EQ(rd.payload_tags[1], kTagC);
}

TEST(ConvCrash, CheckpointBoundsTheReplayTail) {
  ConvProfile p = TinyConvProfile();
  p.journal_sync_interval = 2;
  p.journal_checkpoint_syncs = 4;  // checkpoint every 8 entries
  Fixture f(p);
  const std::uint32_t upp = Upp(f);
  ASSERT_EQ(upp, 4u);  // the arithmetic below assumes 16 KiB pages
  // 20 settled units -> 10 syncs -> checkpoints after entries 8 and 16,
  // leaving a 4-entry replay tail.
  for (std::uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(f.Write(i * upp, upp, kTagA + i * upp).ok());
  }
  f.Crash();

  EXPECT_EQ(f.dev.counters().checkpoints, 2u);
  EXPECT_EQ(f.dev.counters().recovery_replay_entries, 4u);
  EXPECT_EQ(f.dev.counters().journal_reverted_entries, 0u);
  // Replay cost is charged per entry on top of the boot cost.
  EXPECT_EQ(f.dev.last_recovery_ns(),
            f.dev.profile().recovery_boot_cost +
                4 * f.dev.profile().recovery_per_entry);
  // Synced-and-replayed mappings survive.
  nvme::Completion rd = f.ReadTags(0, 5 * upp);
  ASSERT_TRUE(rd.ok());
  for (std::uint32_t i = 0; i < 5 * upp; ++i) {
    EXPECT_EQ(rd.payload_tags[i], kTagA + i) << "LBA " << i;
  }
}

TEST(ConvCrash, SyncIntervalTradesWriteAmpForLossWindow) {
  auto run = [](std::uint32_t interval, ConvCounters* out) {
    ConvProfile p = TinyConvProfile();
    p.journal_sync_interval = interval;
    Fixture f(p);
    const std::uint32_t upp = f.dev.profile().units_per_page();
    for (std::uint32_t i = 0; i < 32; ++i) {
      ASSERT_TRUE(f.Write(i * upp, upp, kTagA).ok());
    }
    f.Crash();
    *out = f.dev.counters();
  };
  ConvCounters tight{}, loose{};
  run(8, &tight);
  run(1 << 20, &loose);
  // Tight syncing: more journal programs (write amplification), but the
  // crash reverts almost nothing. Loose syncing: the mirror image.
  EXPECT_GT(tight.journal_units_written, loose.journal_units_written);
  EXPECT_LT(tight.journal_reverted_entries, loose.journal_reverted_entries);
  EXPECT_EQ(loose.journal_reverted_entries, 32u * 4);
  EXPECT_GT(tight.recovery_replay_entries, loose.recovery_replay_entries);
}

TEST(ConvCrash, CommandsDuringTheOutageFailWithDeviceReset) {
  Fixture f;
  nvme::Completion during, after;
  auto body = [&]() -> sim::Task<> {
    auto crash = [&]() -> sim::Task<> { co_await f.dev.CrashNow(); };
    sim::Spawn(crash());
    co_await f.sim.Delay(sim::Milliseconds(1));  // inside the boot window
    during = co_await f.dev.Execute(
        {.opcode = Opcode::kWrite, .slba = 0, .nlb = 1});
    co_await f.sim.Delay(f.dev.profile().recovery_boot_cost +
                         sim::Milliseconds(5));
    after = co_await f.dev.Execute(
        {.opcode = Opcode::kWrite, .slba = 0, .nlb = 1});
  };
  auto t = body();
  f.sim.Run();

  EXPECT_EQ(during.status, Status::kDeviceReset);
  EXPECT_TRUE(after.ok());
  EXPECT_GE(f.dev.counters().reset_drops, 1u);
}

TEST(ConvCrash, CrashRecoveryIsDeterministic) {
  auto run = [](ConvCounters* out) {
    Fixture f;
    const std::uint32_t upp = f.dev.profile().units_per_page();
    auto body = [&]() -> sim::Task<> {
      for (std::uint32_t i = 0; i < 16; ++i) {
        nvme::Completion c = co_await f.dev.Execute(
            {.opcode = Opcode::kWrite,
             .slba = i * upp,
             .nlb = upp,
             .payload_tag = kTagA});
        ZSTOR_CHECK(c.ok());
      }
      // Crash with programs still in flight (acks are write-back).
      co_await f.dev.CrashNow();
    };
    auto t = body();
    f.sim.Run();
    *out = f.dev.counters();
  };
  ConvCounters a{}, b{};
  run(&a);
  run(&b);
  EXPECT_EQ(a.crash_lost_units, b.crash_lost_units);
  EXPECT_EQ(a.journal_reverted_entries, b.journal_reverted_entries);
  EXPECT_EQ(a.recovery_replay_entries, b.recovery_replay_entries);
  EXPECT_EQ(a.recovery_ns_total, b.recovery_ns_total);
  EXPECT_EQ(a.reset_drops, b.reset_drops);
}

}  // namespace
}  // namespace zstor::ftl
