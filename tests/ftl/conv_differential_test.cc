// Seeded differential test of the conventional FTL against a flat L2P
// model: random rounds of concurrent writes, trims, reads and flushes on a
// prefilled TinyConvProfile device (GC active from the first rounds), with
// power losses injected at random instants.
//
// The model keeps, per LBA, the tag the host last wrote (0 = trimmed or
// never written), the tag the last successful flush made durable, and
// every tag written since that flush. Outside a crash, every read returns
// the current tag exactly. After a crash, an LBA untouched since the last
// flush reads its flushed tag (synced mappings survive); a touched one
// reads its flushed tag, a tag written since, or nothing (its buffered
// rewrite's origin may have been erased by GC) — never an older tag.
//
// ConvDifferentialWithProgramFailures runs the same schedules with NAND
// program failures injected, so host and GC programs retire blocks and
// restage their pages mid-schedule.
//
// Each seed is its own test (Seeds/ConvDifferential.RandomSchedule/<seed>),
// so a failure names the seed, and --gtest_filter replays it alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "ftl/conv_device.h"
#include "sim/rng.h"
#include "sim/task.h"

namespace zstor::ftl {
namespace {

using nvme::Command;
using nvme::Completion;
using nvme::Opcode;

constexpr int kRounds = 600;
constexpr int kVerifyEvery = 50;   // full read-back outside crashes
constexpr std::uint32_t kMaxNlb = 32;
constexpr std::uint32_t kReadChunk = 64;

class FlatModel {
 public:
  explicit FlatModel(std::uint64_t lbas)
      : current_(lbas, 0), flushed_(lbas, 0), since_flush_(lbas) {}

  void Wrote(std::uint64_t lba, std::uint64_t tag) {
    current_[lba] = tag;
    since_flush_[lba].push_back(tag);
  }
  /// A write that failed mid-flight (power loss): the device may or may
  /// not have kept it, so it only widens what a crash may leave.
  void MaybeWrote(std::uint64_t lba, std::uint64_t tag) {
    since_flush_[lba].push_back(tag);
  }
  void Flushed() {
    flushed_ = current_;
    for (auto& h : since_flush_) h.clear();
  }
  std::uint64_t current(std::uint64_t lba) const { return current_[lba]; }
  /// Whether a crash may leave `lba` holding `tag`.
  bool CrashMayLeave(std::uint64_t lba, std::uint64_t tag) const {
    if (tag == flushed_[lba]) return true;
    const std::vector<std::uint64_t>& h = since_flush_[lba];
    if (h.empty()) return false;  // untouched since the flush: exact
    return tag == 0 || std::find(h.begin(), h.end(), tag) != h.end();
  }
  /// After recovery the device's state is its durable state.
  void Recovered(std::uint64_t lba, std::uint64_t tag) {
    current_[lba] = tag;
    flushed_[lba] = tag;
    since_flush_[lba].clear();
  }

 private:
  std::vector<std::uint64_t> current_;
  std::vector<std::uint64_t> flushed_;
  std::vector<std::vector<std::uint64_t>> since_flush_;
};

class ConvDifferential : public ::testing::TestWithParam<int> {
 protected:
  ConvDifferential()
      : dev_(sim_, TinyConvProfile()),
        model_(dev_.info().capacity_lbas),
        rng_(0xD1FF'0000ull + static_cast<std::uint64_t>(GetParam())) {
    dev_.DebugPrefill();  // a full drive: GC runs within a few rounds
  }

  std::string Where(int round) const {
    std::ostringstream os;
    os << "seed " << GetParam() << " round " << round;
    return os.str();
  }

  /// Reads the whole logical space back; `on_tag(lba, tag)` sees each.
  template <typename F>
  void ReadAll(int round, F on_tag) {
    const std::uint64_t lbas = dev_.info().capacity_lbas;
    for (std::uint64_t lba = 0; lba < lbas; lba += kReadChunk) {
      const auto nlb = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(kReadChunk, lbas - lba));
      Completion c;
      std::uint64_t tags[kReadChunk];
      auto body = [&]() -> sim::Task<> {
        c = co_await dev_.Execute({.opcode = Opcode::kRead,
                                   .slba = lba,
                                   .nlb = nlb,
                                   .payload_tag = 1,
                                   .data = tags});
      };
      auto t = body();
      sim_.Run();
      ASSERT_TRUE(c.ok()) << Where(round) << ": read-back failed";
      ASSERT_EQ(c.count, nlb);
      for (std::uint32_t i = 0; i < nlb; ++i) on_tag(lba + i, tags[i]);
    }
  }

  void VerifyCurrent(int round) {
    int bad = 0;
    ReadAll(round, [&](std::uint64_t lba, std::uint64_t tag) {
      if (tag != model_.current(lba) && bad++ < 5) {
        ADD_FAILURE() << Where(round) << ": LBA " << lba << " reads tag "
                      << tag << ", model holds " << model_.current(lba);
      }
    });
  }

  void VerifyAfterCrash(int round) {
    int bad = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;
    ReadAll(round, [&](std::uint64_t lba, std::uint64_t tag) {
      if (!model_.CrashMayLeave(lba, tag) && bad++ < 5) {
        ADD_FAILURE() << Where(round) << ": after a crash LBA " << lba
                      << " reads tag " << tag
                      << ", which no flushed or later write left";
      }
      seen.emplace_back(lba, tag);
    });
    for (auto [lba, tag] : seen) model_.Recovered(lba, tag);
  }

  /// One round: up to four concurrent commands on disjoint LBA ranges,
  /// or a flush alone, with a power loss at a random instant now and then.
  void Round(int round) {
    struct Issued {
      Command cmd;
      Completion done;
      std::vector<std::uint64_t> tags;  // a read's read-back buffer
    };
    std::vector<Issued> cmds;
    const std::uint64_t lbas = dev_.info().capacity_lbas;
    if (rng_.UniformU64(12) == 0) {
      cmds.push_back({.cmd = {.opcode = Opcode::kFlush}, .done = {}});
    } else {
      const auto n = 1 + rng_.UniformU64(4);
      for (std::uint64_t k = 0; k < n; ++k) {
        const auto nlb = static_cast<std::uint32_t>(1 + rng_.UniformU64(kMaxNlb));
        const std::uint64_t slba = rng_.UniformU64(lbas - nlb + 1);
        const bool overlaps = std::any_of(
            cmds.begin(), cmds.end(), [&](const Issued& o) {
              return slba < o.cmd.slba + o.cmd.nlb && o.cmd.slba < slba + nlb;
            });
        if (overlaps) continue;
        Command cmd{.slba = slba, .nlb = nlb};
        const std::uint64_t pick = rng_.UniformU64(10);
        if (pick < 6) {
          cmd.opcode = Opcode::kWrite;
          cmd.payload_tag = next_tag_;
          next_tag_ += nlb;
        } else if (pick < 8) {
          cmd.opcode = Opcode::kRead;
          cmd.payload_tag = 1;
        } else {
          cmd.opcode = Opcode::kDeallocate;
        }
        cmds.push_back({.cmd = cmd, .done = {}});
      }
    }
    const bool crash = rng_.UniformU64(15) == 0;
    const sim::Time crash_at = sim::Microseconds(
        static_cast<double>(rng_.UniformU64(2000)));

    auto issue = [&](Issued* io) -> sim::Task<> {
      if (io->cmd.opcode == Opcode::kRead) {
        io->tags.assign(io->cmd.nlb, ~std::uint64_t{0});
        io->cmd.data = io->tags.data();
      }
      io->done = co_await dev_.Execute(io->cmd);
    };
    auto power_loss = [&]() -> sim::Task<> {
      co_await sim_.Delay(crash_at);
      co_await dev_.CrashNow();
    };
    std::vector<sim::Task<>> running;
    running.reserve(cmds.size() + 1);
    for (Issued& io : cmds) running.push_back(issue(&io));
    if (crash) running.push_back(power_loss());
    sim_.Run();

    for (const Issued& io : cmds) {
      const Command& c = io.cmd;
      if (io.done.ok()) {
        switch (c.opcode) {
          case Opcode::kWrite:
            for (std::uint32_t i = 0; i < c.nlb; ++i) {
              model_.Wrote(c.slba + i, c.payload_tag + i);
            }
            break;
          case Opcode::kDeallocate:
            for (std::uint32_t i = 0; i < c.nlb; ++i) model_.Wrote(c.slba + i, 0);
            break;
          case Opcode::kRead:
            if (crash) break;  // raced the outage: checked by the read-back
            ASSERT_EQ(io.done.count, c.nlb) << Where(round);
            for (std::uint32_t i = 0; i < c.nlb; ++i) {
              EXPECT_EQ(io.tags[i], model_.current(c.slba + i))
                  << Where(round) << ": read of LBA " << c.slba + i;
            }
            break;
          case Opcode::kFlush:
            if (!crash) model_.Flushed();
            break;
          default:
            break;
        }
      } else {
        ASSERT_TRUE(crash) << Where(round) << ": command failed with status "
                           << static_cast<int>(io.done.status);
        if (c.opcode == Opcode::kWrite) {
          for (std::uint32_t i = 0; i < c.nlb; ++i) {
            model_.MaybeWrote(c.slba + i, c.payload_tag + i);
          }
        } else if (c.opcode == Opcode::kDeallocate) {
          for (std::uint32_t i = 0; i < c.nlb; ++i) model_.MaybeWrote(c.slba + i, 0);
        }
      }
    }
    if (crash) VerifyAfterCrash(round);
  }

  void RunSchedule() {
    for (int round = 0; round < kRounds; ++round) {
      Round(round);
      if (HasFailure()) return;
      if ((round + 1) % kVerifyEvery == 0) {
        VerifyCurrent(round);
        if (HasFailure()) return;
      }
    }
    EXPECT_GT(dev_.counters().gc_blocks_erased, 0u)
        << "seed " << GetParam() << ": the schedule never ran GC";
    EXPECT_GT(dev_.counters().crashes, 0u)
        << "seed " << GetParam() << ": the schedule never lost power";
  }

  sim::Simulator sim_;
  ConvDevice dev_;
  FlatModel model_;
  sim::Rng rng_;
  std::uint64_t next_tag_ = 1u << 20;
};

TEST_P(ConvDifferential, RandomSchedule) { RunSchedule(); }

class ConvDifferentialWithProgramFailures : public ConvDifferential {
 protected:
  ConvDifferentialWithProgramFailures() {
    fault::FaultSpec spec;
    spec.enabled = true;
    spec.program_fail_rate = 1e-3;
    spec.seed = 0xFA11'0000ull + static_cast<std::uint64_t>(GetParam());
    plan_ = std::make_unique<fault::FaultPlan>(spec);
    dev_.AttachFaultPlan(plan_.get());
  }
  std::unique_ptr<fault::FaultPlan> plan_;
};

TEST_P(ConvDifferentialWithProgramFailures, RandomSchedule) {
  RunSchedule();
  EXPECT_GT(dev_.counters().retired_blocks, 0u)
      << "seed " << GetParam() << ": no program failed";
}

std::string SeedName(const ::testing::TestParamInfo<int>& p) {
  return std::to_string(p.param);
}
INSTANTIATE_TEST_SUITE_P(Seeds, ConvDifferential, ::testing::Range(1, 13),
                         SeedName);
INSTANTIATE_TEST_SUITE_P(Seeds, ConvDifferentialWithProgramFailures,
                         ::testing::Range(1, 13), SeedName);

}  // namespace
}  // namespace zstor::ftl
