// KvStore tests: LSM semantics (put/get/delete, overwrite, tombstones),
// the flush/compaction pipeline under churn, lifetime placement's effect
// on write amplification, open-zone discipline, stats invariants, and a
// read that a relocation overtakes.
#include <gtest/gtest.h>

#include <cstdint>

#include "hostif/host_stack.h"
#include "kv_store_internals.h"
#include "sim/rng.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "workload/zipf.h"
#include "zkv/kv_store.h"
#include "zns/zns_device.h"

namespace zstor::zkv {
namespace {

using nvme::Status;

struct Fixture {
  explicit Fixture(KvStore::Options opt = DefaultOptions())
      : dev(sim, Profile()), stack(sim, dev), kv(sim, stack, opt) {}

  static zns::ZnsProfile Profile() {
    zns::ZnsProfile p = zns::TinyProfile();
    p.io_sigma = 0;
    p.reset.sigma = 0;
    p.finish.sigma = 0;
    // The store holds several zones active at once: two WAL segments
    // plus hot/cold/relocation data zones.
    p.max_open_zones = 8;
    p.max_active_zones = 10;
    return p;
  }
  static KvStore::Options DefaultOptions() {
    return {.zone_count = 14};
  }

  template <typename F>
  void Sync(F&& f) {
    auto body = [&]() -> sim::Task<> { co_await f(); };
    auto t = body();
    sim.Run();
  }

  Status Put(std::uint64_t key, std::uint64_t bytes) {
    Status out = Status::kInternalError;
    Sync([&]() -> sim::Task<Status> { co_return co_await kv.Put(key, bytes); },
         &out);
    return out;
  }
  template <typename F>
  void Sync(F&& f, Status* out) {
    auto body = [&]() -> sim::Task<> { *out = co_await f(); };
    auto t = body();
    sim.Run();
  }
  Status Get(std::uint64_t key, bool* found) {
    Status out = Status::kInternalError;
    Sync([&]() -> sim::Task<Status> { co_return co_await kv.Get(key, found); },
         &out);
    return out;
  }
  Status Delete(std::uint64_t key) {
    Status out = Status::kInternalError;
    Sync([&]() -> sim::Task<Status> { co_return co_await kv.Delete(key); },
         &out);
    return out;
  }
  void Drain() {
    Sync([&]() -> sim::Task<> { co_await kv.Drain(); });
  }

  sim::Simulator sim;
  zns::ZnsDevice dev;
  hostif::SpdkStack stack;
  KvStore kv;
};

TEST(KvStore, PutGetDeleteRoundTrip) {
  Fixture f;
  EXPECT_EQ(f.Put(1, 4096), Status::kSuccess);
  bool found = false;
  EXPECT_EQ(f.Get(1, &found), Status::kSuccess);
  EXPECT_TRUE(found);
  EXPECT_EQ(f.Get(2, &found), Status::kSuccess);
  EXPECT_FALSE(found);
  EXPECT_EQ(f.Delete(1), Status::kSuccess);
  EXPECT_EQ(f.Get(1, &found), Status::kSuccess);
  EXPECT_FALSE(found);
  f.Drain();
  EXPECT_EQ(f.kv.stats().puts, 1u);
  EXPECT_EQ(f.kv.stats().deletes, 1u);
  EXPECT_EQ(f.kv.stats().gets, 3u);
  EXPECT_EQ(f.kv.stats().found, 1u);
  EXPECT_EQ(f.kv.stats().missing, 2u);
}

TEST(KvStore, EveryPutIsWalLogged) {
  Fixture f;
  for (std::uint64_t k = 0; k < 10; ++k) {
    ASSERT_EQ(f.Put(k, 8192), Status::kSuccess);
  }
  const KvStats& st = f.kv.stats();
  EXPECT_EQ(st.wal_appends, 10u);
  EXPECT_GE(st.wal_bytes, st.user_bytes);  // header + LBA padding
  EXPECT_EQ(st.user_bytes, 10u * 8192);
}

TEST(KvStore, MemtableRotationFlushesToL0) {
  Fixture f;
  // Default memtable_bytes = 256 KiB: 20 x 16 KiB overflows it.
  for (std::uint64_t k = 0; k < 20; ++k) {
    ASSERT_EQ(f.Put(k, 16 * 1024), Status::kSuccess);
  }
  f.Drain();
  const KvStats& st = f.kv.stats();
  EXPECT_GE(st.memtable_rotations, 1u);
  EXPECT_GE(st.flushes, 1u);
  EXPECT_GE(st.tables_written, 1u);
  EXPECT_GE(st.wal_resets, 1u);  // checkpoint after the durable flush
  // Everything is still readable after the flush.
  for (std::uint64_t k = 0; k < 20; ++k) {
    bool found = false;
    ASSERT_EQ(f.Get(k, &found), Status::kSuccess);
    EXPECT_TRUE(found) << "key " << k;
  }
}

TEST(KvStore, OverwritesAndTombstonesResolveNewestFirst) {
  Fixture f;
  for (int round = 0; round < 30; ++round) {
    ASSERT_EQ(f.Put(7, 16 * 1024), Status::kSuccess);
    ASSERT_EQ(f.Put(8, 16 * 1024), Status::kSuccess);
  }
  ASSERT_EQ(f.Delete(7), Status::kSuccess);
  f.Drain();
  bool found = true;
  EXPECT_EQ(f.Get(7, &found), Status::kSuccess);
  EXPECT_FALSE(found);  // tombstone shadows every flushed version
  EXPECT_EQ(f.Get(8, &found), Status::kSuccess);
  EXPECT_TRUE(found);
}

TEST(KvStore, CompactionTriggersUnderChurnAndKeepsDataReadable) {
  Fixture f;
  sim::Rng rng(5);
  // ~8 MiB of updates over 64 keys through 256 KiB memtables: many
  // flushes, L0 fills, leveled compaction must run.
  for (int round = 0; round < 512; ++round) {
    ASSERT_EQ(f.Put(rng.UniformU64(64), 16 * 1024), Status::kSuccess)
        << "round " << round;
  }
  f.Drain();
  const KvStats& st = f.kv.stats();
  EXPECT_GT(st.compactions, 0u);
  EXPECT_GT(st.compact_bytes_written, 0u);
  EXPECT_GT(st.zone_resets, 0u);  // WAL checkpoints at minimum
  for (std::uint64_t k = 0; k < 64; ++k) {
    bool found = false;
    ASSERT_EQ(f.Get(k, &found), Status::kSuccess);
    EXPECT_TRUE(found) << "key " << k;
  }
  // Per-level accounting adds up: every compaction outputs somewhere.
  std::uint64_t level_compactions = 0;
  for (const LevelStats& ls : f.kv.level_stats()) {
    level_compactions += ls.compactions;
  }
  EXPECT_EQ(level_compactions, st.compactions);
}

TEST(KvStore, WriteAmplificationIsAccounted) {
  Fixture f;
  sim::Rng rng(11);
  for (int round = 0; round < 256; ++round) {
    ASSERT_EQ(f.Put(rng.UniformU64(32), 16 * 1024), Status::kSuccess);
  }
  f.Drain();
  const KvStats& st = f.kv.stats();
  // WAL + flush already make WA >= 2; compaction adds more.
  EXPECT_GT(st.WriteAmplification(), 1.9);
  EXPECT_LT(st.WriteAmplification(), 20.0);
}

TEST(KvStore, LifetimePlacementDoesNotLoseData) {
  for (bool placement : {true, false}) {
    KvStore::Options opt = Fixture::DefaultOptions();
    opt.lifetime_placement = placement;
    Fixture f(opt);
    sim::Rng rng(3);
    for (int round = 0; round < 384; ++round) {
      ASSERT_EQ(f.Put(rng.UniformU64(48), 16 * 1024), Status::kSuccess);
    }
    f.Drain();
    for (std::uint64_t k = 0; k < 48; ++k) {
      bool found = false;
      ASSERT_EQ(f.Get(k, &found), Status::kSuccess);
      EXPECT_TRUE(found) << "placement " << placement << " key " << k;
    }
  }
}

void ZipfLikeChurn(Fixture& f) {
  sim::Rng rng(29);
  workload::ZipfGenerator zipf(64, 0.9);
  for (int round = 0; round < 768; ++round) {
    ASSERT_EQ(f.Put(zipf.Next(rng), 16 * 1024), Status::kSuccess);
  }
  f.Drain();
}

TEST(KvStore, ZipfChurnPlacementReducesRelocation) {
  // The R4 claim: with skewed updates, separating short-lived (L0/L1)
  // from long-lived (deep level) tables makes zones die wholesale, so
  // reclaim relocates less live data. Same deterministic op stream, only
  // the placement flag differs.
  auto run = [](bool placement) {
    KvStore::Options opt = Fixture::DefaultOptions();
    opt.lifetime_placement = placement;
    Fixture f(opt);
    ZipfLikeChurn(f);
    return f.kv.stats();
  };
  KvStats on = run(true);
  KvStats off = run(false);
  EXPECT_EQ(on.user_bytes, off.user_bytes);  // identical op streams
  EXPECT_LE(on.WriteAmplification(), off.WriteAmplification() + 1e-9);
}

TEST(KvStore, ObeysOpenZoneBudget) {
  Fixture f;
  sim::Rng rng(13);
  for (int round = 0; round < 256; ++round) {
    ASSERT_EQ(f.Put(rng.UniformU64(32), 16 * 1024), Status::kSuccess);
    // 2 WAL segments + hot + cold + relocation output.
    ASSERT_LE(f.dev.open_zone_count(), 5u);
  }
  f.Drain();
}

TEST(KvStore, ConcurrentPutsAllLand) {
  Fixture f;
  int done = 0;
  auto writer = [&](std::uint64_t key) -> sim::Task<> {
    auto st = co_await f.kv.Put(key, 16 * 1024);
    ZSTOR_CHECK(st == Status::kSuccess);
    ++done;
  };
  for (std::uint64_t k = 0; k < 40; ++k) sim::Spawn(writer(k));
  f.sim.Run();
  EXPECT_EQ(done, 40);
  f.Drain();
  for (std::uint64_t k = 0; k < 40; ++k) {
    bool found = false;
    ASSERT_EQ(f.Get(k, &found), Status::kSuccess);
    EXPECT_TRUE(found);
  }
}

TEST(KvStore, ReadsVerifyPayloadTags) {
  Fixture f;
  sim::Rng rng(17);
  for (int round = 0; round < 128; ++round) {
    ASSERT_EQ(f.Put(rng.UniformU64(16), 16 * 1024), Status::kSuccess);
  }
  f.Drain();
  for (std::uint64_t k = 0; k < 16; ++k) {
    bool found = false;
    ASSERT_EQ(f.Get(k, &found), Status::kSuccess);
  }
  EXPECT_GT(f.kv.stats().read_ios, 0u);
  EXPECT_EQ(f.kv.stats().read_tag_mismatches, 0u);
}

/// Parks the first read submitted after Arm() until Release().
class GateStack final : public hostif::Stack {
 public:
  GateStack(sim::Simulator& s, hostif::Stack& inner)
      : inner_(inner), open_(s) {}
  sim::Task<nvme::TimedCompletion> Submit(nvme::Command cmd) override {
    if (armed_ && cmd.opcode == nvme::Opcode::kRead) {
      armed_ = false;
      held_ = true;
      co_await open_.Wait();
      held_ = false;
    }
    co_return co_await inner_.Submit(cmd);
  }
  const nvme::NamespaceInfo& info() const override { return inner_.info(); }
  void Arm() { armed_ = true; }
  void Release() { open_.Set(); }
  bool held() const { return held_; }

 private:
  hostif::Stack& inner_;
  sim::OneShotEvent open_;
  bool armed_ = false;
  bool held_ = false;
};

// A Get parked on its device read while reclaim relocates the very
// table it reads: the relocation replaces the table's extent list, and
// the Get must finish on the location it resolved (still intact, the
// victim zone is not reset yet) without touching the old list.
TEST(KvStore, GetSurvivesRelocationOfItsTable) {
  sim::Simulator sim;
  zns::ZnsDevice dev(sim, Fixture::Profile());
  hostif::SpdkStack inner(sim, dev);
  GateStack gate(sim, inner);
  KvStore kv(sim, gate, Fixture::DefaultOptions());
  using In = KvStoreInternals;
  auto setup = [&]() -> sim::Task<> {
    for (std::uint64_t k = 0; k < 40; ++k) {
      ZSTOR_CHECK(co_await kv.Put(k, 16 * 1024) == Status::kSuccess);
    }
    co_await kv.Drain();
  };
  auto s = setup();
  sim.Run();
  std::uint64_t key = 0;
  std::uint32_t zone = 0;
  while (!In::EntryZone(kv, key, &zone)) ASSERT_LT(++key, 40u);

  gate.Arm();
  bool found = false;
  Status st = Status::kInternalError;
  auto get = [&]() -> sim::Task<> { st = co_await kv.Get(key, &found); };
  auto g = get();
  sim.Run();
  ASSERT_TRUE(gate.held());
  const std::uint64_t relocated0 = kv.stats().gc_relocated_bytes;
  auto r = In::RelocateTableOf(kv, key, zone);
  sim.Run();
  ASSERT_GT(kv.stats().gc_relocated_bytes, relocated0);
  gate.Release();
  sim.Run();
  EXPECT_EQ(st, Status::kSuccess);
  EXPECT_TRUE(found);
  EXPECT_EQ(kv.stats().read_tag_mismatches, 0u);
  std::uint32_t new_zone = 0;
  ASSERT_TRUE(In::EntryZone(kv, key, &new_zone));
  EXPECT_NE(new_zone, zone);
}

}  // namespace
}  // namespace zstor::zkv
