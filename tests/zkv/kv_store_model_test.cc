// Seeded differential test: KvStore against a std::map reference model.
//
// Each seed draws a schedule of phases. In a phase four workers run
// random Put/Get/Delete streams, each over its own key range, so every
// key's history is serial. Between phases the schedule may drain the
// store, cut power (with or without a drain first) and recover. Small
// memtables make rotations, flushes, compactions and zone reclaim
// routine, and lifetime placement alternates with the seed. No media
// faults are injected.
//
// Durability rules the store must keep:
//   * without a crash, Get resolves exactly the newest acked version;
//   * acked writes made durable (a completed Drain, or a recovery) survive;
//   * writes not yet durable may vanish in a crash;
//   * nothing older than the newest durable version ever comes back.
//
// A failure names its seed (SCOPED_TRACE) so it can be replayed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "hostif/host_stack.h"
#include "hostif/resilient_stack.h"
#include "kv_store_internals.h"
#include "sim/rng.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "zkv/kv_store.h"
#include "zns/zns_device.h"

namespace zstor::zkv {

namespace {

using nvme::Status;
using In = KvStoreInternals;

constexpr int kWorkers = 4;
constexpr std::uint64_t kKeysPerWorker = 12;
constexpr int kSeeds = 32;

zns::ZnsProfile Profile() {
  zns::ZnsProfile p = zns::TinyProfile();
  // One LBA per NAND page (blocks stay 256 KiB). A power loss rolls each
  // zone back to its programmed page prefix, dropping a sub-page tail
  // even after a Flush (ZnsDevice::DoFlush calls that tail durable); with
  // LBA-sized pages every flushed LBA is programmed, so the durability
  // rules hold exactly.
  p.nand_geometry.page_bytes = 4096;
  p.nand_geometry.pages_per_block = 64;
  p.max_open_zones = 8;
  p.max_active_zones = 10;
  return p;
}

struct Rig {
  Rig(std::uint64_t seed, bool placement)
      : dev(sim, Profile()),
        inner(sim, dev),
        stack(sim, inner,
              {.max_attempts = 8, .backoff = sim::Microseconds(500)}),
        kv(sim, stack, Opts(seed, placement)) {}

  KvStore::Options Opts(std::uint64_t seed, bool placement) {
    KvStore::Options o{.zone_count = 6};
    o.memtable_bytes = (16u << 10) << (seed % 3);  // 16, 32 or 64 KiB
    o.l0_compact_trigger = 2;
    o.l0_stall_limit = 4;
    o.lifetime_placement = placement;
    o.crash_epoch = [this] { return dev.power_epoch(); };
    return o;
  }

  sim::Simulator sim;
  zns::ZnsDevice dev;
  hostif::SpdkStack inner;
  hostif::ResilientStack stack;
  KvStore kv;
};

/// The reference: per key, the newest acked version, the newest version
/// known durable, and every version ever acked.
struct Model {
  std::map<std::uint64_t, Version> current;
  std::map<std::uint64_t, std::uint64_t> durable_seq;
  std::map<std::uint64_t, std::vector<Version>> history;

  void Acked(std::uint64_t key, const Version& v) {
    current[key] = v;
    history[key].push_back(v);
  }
  /// A completed Drain: every acked version is durable.
  void Durable() {
    for (const auto& [k, v] : current) durable_seq[k] = v.seq;
  }
};

/// Without a crash since the last write, Get must resolve exactly the
/// newest acked version; a tombstone may also resolve to nothing (the
/// last level drops tombstones).
::testing::AssertionResult MatchesCurrent(std::uint64_t key,
                                          const Version& want,
                                          const Version& got) {
  if (got == want) return ::testing::AssertionSuccess();
  if (!want.live() && got.seq == 0) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "key " << key << " resolved seq " << got.seq << " ("
         << got.bytes << " B, tombstone " << got.tombstone
         << "), want seq " << want.seq << " (" << want.bytes
         << " B, tombstone " << want.tombstone << ")";
}

/// After a crash: the resolved version is one that was acked, and it is
/// no older than the newest durable one.
::testing::AssertionResult SurvivesCrash(const Model& m, std::uint64_t key,
                                         const Version& got) {
  const auto d = m.durable_seq.find(key);
  const std::uint64_t floor = d == m.durable_seq.end() ? 0 : d->second;
  if (got.seq == 0) {
    // Nothing came back: fine unless a durable live version existed.
    const auto c = m.history.find(key);
    if (floor == 0 || c == m.history.end()) {
      return ::testing::AssertionSuccess();
    }
    for (const Version& v : c->second) {
      if (v.seq == floor && !v.live()) return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "key " << key << " lost its durable version seq " << floor;
  }
  if (got.seq < floor) {
    return ::testing::AssertionFailure()
           << "key " << key << " came back stale: seq " << got.seq
           << " below durable seq " << floor;
  }
  const auto h = m.history.find(key);
  if (h != m.history.end()) {
    for (const Version& v : h->second) {
      if (v == got) return ::testing::AssertionSuccess();
    }
  }
  return ::testing::AssertionFailure()
         << "key " << key << " resolved seq " << got.seq
         << " that was never acked";
}

sim::Task<> Worker(Rig& r, Model& m, sim::Rng& rng, std::uint64_t first_key,
                   int ops, bool* ok, sim::WaitGroup* wg) {
  for (int i = 0; i < ops && *ok; ++i) {
    const std::uint64_t key = first_key + rng.UniformU64(kKeysPerWorker);
    const std::uint64_t dice = rng.UniformU64(100);
    if (dice < 40) {
      // The resolution Get makes before its first suspension.
      const Version got = In::Resolved(r.kv, key);
      bool found = false;
      const Status st = co_await r.kv.Get(key, &found);
      EXPECT_EQ(st, Status::kSuccess) << "get key " << key;
      EXPECT_EQ(found, got.live()) << "get key " << key;
      const auto c = m.current.find(key);
      const Version want = c == m.current.end() ? Version{} : c->second;
      const ::testing::AssertionResult same = MatchesCurrent(key, want, got);
      EXPECT_TRUE(same);
      if (st != Status::kSuccess || found != got.live() || !same) *ok = false;
      continue;
    }
    const bool del = dice >= 85;
    const std::uint64_t bytes = del ? 0 : rng.UniformU64(12 * 1024 + 1);
    const Status st = del ? co_await r.kv.Delete(key)
                          : co_await r.kv.Put(key, bytes);
    EXPECT_EQ(st, Status::kSuccess) << "write key " << key;
    // The worker owns the key, so the store's newest version right after
    // the ack is this write.
    const Version v = In::Resolved(r.kv, key);
    const auto c = m.current.find(key);
    if (c != m.current.end()) {
      EXPECT_GT(v.seq, c->second.seq) << "key " << key;
    }
    EXPECT_EQ(v.bytes, bytes) << "key " << key;
    EXPECT_EQ(v.tombstone, del) << "key " << key;
    if (st != Status::kSuccess || v.bytes != bytes || v.tombstone != del) {
      *ok = false;
    }
    m.Acked(key, v);
  }
  wg->Done();
}

enum class Between { kNothing, kDrain, kCrash, kDrainThenCrash };

struct Totals {
  std::uint64_t rotations = 0, compactions = 0, zone_resets = 0;
  std::uint64_t relocated = 0, crashes = 0, replayed = 0, lost = 0;
};

void RunSeed(std::uint64_t seed, Totals* totals) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  const bool placement = seed % 2 == 0;
  Rig r(seed, placement);
  Model m;
  sim::Rng rng(seed * 7919 + 1);
  std::vector<sim::Rng> worker_rng;
  for (int w = 0; w < kWorkers; ++w) worker_rng.emplace_back(rng.NextU64());
  bool ok = true;
  auto body = [&]() -> sim::Task<> {
    const int phases = 6 + static_cast<int>(rng.UniformU64(4));
    for (int p = 0; p < phases && ok; ++p) {
      sim::WaitGroup wg(r.sim);
      const int ops = 30 + static_cast<int>(rng.UniformU64(60));
      for (int w = 0; w < kWorkers; ++w) {
        wg.Add();
        sim::Spawn(Worker(r, m, worker_rng[w], w * kKeysPerWorker, ops, &ok,
                          &wg));
      }
      co_await wg.Wait();
      const auto between = static_cast<Between>(rng.UniformU64(4));
      if (between == Between::kDrain || between == Between::kDrainThenCrash) {
        co_await r.kv.Drain();
        m.Durable();
      }
      if (between == Between::kCrash || between == Between::kDrainThenCrash) {
        co_await r.dev.CrashNow();
        const auto rep = co_await r.kv.RecoverAfterCrash();
        EXPECT_EQ(rep.silent_corruptions, 0u) << "phase " << p;
        // Every key resolves to a version the rules allow; that version
        // is now both current and durable (recovery certifies it).
        for (std::uint64_t key = 0; key < kWorkers * kKeysPerWorker; ++key) {
          const Version got = In::Resolved(r.kv, key);
          const ::testing::AssertionResult kept = SurvivesCrash(m, key, got);
          EXPECT_TRUE(kept) << "phase " << p;
          if (!kept) ok = false;
          if (got.seq != 0 || m.current.count(key) != 0) {
            m.current[key] = got;
            m.durable_seq[key] = got.seq;
          }
        }
      }
    }
    co_await r.kv.Drain();
    for (std::uint64_t key = 0; key < kWorkers * kKeysPerWorker; ++key) {
      const auto c = m.current.find(key);
      const Version want = c == m.current.end() ? Version{} : c->second;
      EXPECT_TRUE(MatchesCurrent(key, want, In::Resolved(r.kv, key)))
          << "after the final drain";
    }
  };
  auto t = body();
  r.sim.Run();
  ASSERT_TRUE(ok);
  const KvStats& st = r.kv.stats();
  totals->rotations += st.memtable_rotations;
  totals->compactions += st.compactions;
  totals->zone_resets += st.zone_resets;
  totals->relocated += st.gc_relocated_bytes;
  totals->crashes += st.crash_recoveries;
  totals->replayed += st.wal_replayed;
  totals->lost += st.wal_lost;
}

TEST(KvStoreModel, MatchesReferenceAcrossSeededSchedules) {
  Totals totals;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    RunSeed(seed, &totals);
    if (HasFatalFailure()) return;
  }
  // The schedules reach every mechanism the rules are about.
  EXPECT_GT(totals.rotations, 0u);
  EXPECT_GT(totals.compactions, 0u);
  EXPECT_GT(totals.zone_resets, 0u);
  EXPECT_GT(totals.relocated, 0u);
  EXPECT_GT(totals.crashes, 0u);
  EXPECT_GT(totals.replayed, 0u);
  EXPECT_GT(totals.lost, 0u);
  std::printf("model: %llu rotations, %llu compactions, %llu zone resets, "
              "%llu relocated bytes, %llu crashes (%llu replayed, %llu "
              "lost)\n",
              static_cast<unsigned long long>(totals.rotations),
              static_cast<unsigned long long>(totals.compactions),
              static_cast<unsigned long long>(totals.zone_resets),
              static_cast<unsigned long long>(totals.relocated),
              static_cast<unsigned long long>(totals.crashes),
              static_cast<unsigned long long>(totals.replayed),
              static_cast<unsigned long long>(totals.lost));
}

}  // namespace
}  // namespace zstor::zkv
