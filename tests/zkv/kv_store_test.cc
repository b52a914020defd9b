// KvStore tests: LSM semantics (put/get/delete, overwrite, tombstones),
// the flush/compaction pipeline under churn, lifetime placement's effect
// on write amplification, open-zone discipline, stats invariants, a
// read that a relocation overtakes, device failures the store retries
// or routes around, and tag read-backs re-issued after the store is gone.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

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
      : inner_(inner), open_(s) { open_.Add(); }
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
  void Release() { open_.Done(); }
  bool held() const { return held_; }

 private:
  hostif::Stack& inner_;
  sim::WaitGroup open_;
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

/// Answers the commands `fail` selects with `status` instead of passing
/// them on (no device time, nothing written).
class FailStack final : public hostif::Stack {
 public:
  FailStack(sim::Simulator& s, hostif::Stack& inner, Status status)
      : sim_(s), inner_(inner), status_(status) {}
  sim::Task<nvme::TimedCompletion> Submit(nvme::Command cmd) override {
    if (fail && fail(cmd)) {
      ++failed;
      nvme::TimedCompletion tc;
      tc.completion.status = status_;
      tc.submitted = tc.completed = sim_.now();
      co_return tc;
    }
    co_return co_await inner_.Submit(cmd);
  }
  const nvme::NamespaceInfo& info() const override { return inner_.info(); }

  std::function<bool(const nvme::Command&)> fail;
  int failed = 0;

 private:
  sim::Simulator& sim_;
  hostif::Stack& inner_;
  Status status_;
};

std::uint32_t ZoneOf(const hostif::Stack& s, nvme::Lba lba) {
  return static_cast<std::uint32_t>(lba / s.info().zone_size_lbas);
}

// A WAL checkpoint whose segment reset fails transiently retries it: the
// churn loses nothing, and every checkpoint counts one reset.
TEST(KvStore, TransientWalResetFailuresAreRetried) {
  sim::Simulator sim;
  zns::ZnsDevice dev(sim, Fixture::Profile());
  hostif::SpdkStack inner(sim, dev);
  FailStack faulty(sim, inner, Status::kInternalError);
  int wal_resets_failed[2] = {0, 0};
  int wal_resets_passed = 0;
  faulty.fail = [&](const nvme::Command& c) {
    if (c.opcode != nvme::Opcode::kZoneMgmtSend ||
        c.zone_action != nvme::ZoneAction::kReset) {
      return false;
    }
    const std::uint32_t z = ZoneOf(inner, c.slba);
    if (z >= 2) return false;
    if (wal_resets_failed[z] < 2) {
      ++wal_resets_failed[z];
      return true;
    }
    ++wal_resets_passed;
    return false;
  };
  KvStore kv(sim, faulty, Fixture::DefaultOptions());
  auto churn = [&]() -> sim::Task<> {
    sim::Rng rng(5);
    for (int round = 0; round < 512; ++round) {
      ZSTOR_CHECK(co_await kv.Put(rng.UniformU64(64), 16 * 1024) ==
                  Status::kSuccess);
    }
    co_await kv.Drain();
  };
  auto c = churn();
  sim.Run();
  EXPECT_EQ(faulty.failed, 4);
  const KvStats& st = kv.stats();
  EXPECT_GT(st.flushes, 2u);
  EXPECT_EQ(st.wal_resets, st.flushes);  // one checkpoint per flush
  EXPECT_EQ(st.wal_resets, static_cast<std::uint64_t>(wal_resets_passed));
  for (std::uint64_t k = 0; k < 64; ++k) {
    bool found = false;
    Status s = Status::kInternalError;
    auto get = [&]() -> sim::Task<> { s = co_await kv.Get(k, &found); };
    auto g = get();
    sim.Run();
    ASSERT_EQ(s, Status::kSuccess);
    EXPECT_TRUE(found) << "key " << k;
  }
  EXPECT_EQ(st.read_tag_mismatches, 0u);
}

// A relocation append the zone refuses poisons that zone (sealed, never
// appended to again) and lands the run in the next free zone.
TEST(KvStore, RelocationPoisonsAFailedZoneAndMovesOn) {
  sim::Simulator sim;
  zns::ZnsDevice dev(sim, Fixture::Profile());
  hostif::SpdkStack inner(sim, dev);
  FailStack faulty(sim, inner, Status::kZoneIsReadOnly);
  KvStore kv(sim, faulty, Fixture::DefaultOptions());
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
  std::uint32_t victim = 0;
  while (!In::EntryZone(kv, key, &victim)) ASSERT_LT(++key, 40u);

  std::uint32_t poisoned = 0;
  faulty.fail = [&](const nvme::Command& c) {
    if (c.opcode != nvme::Opcode::kAppend || faulty.failed > 0) return false;
    poisoned = ZoneOf(inner, c.slba);
    return true;
  };
  const std::uint64_t relocated0 = kv.stats().gc_relocated_bytes;
  auto r = In::RelocateTableOf(kv, key, victim);
  sim.Run();
  ASSERT_EQ(faulty.failed, 1);
  EXPECT_GT(kv.stats().gc_relocated_bytes, relocated0);
  EXPECT_NE(poisoned, victim);
  EXPECT_FALSE(In::TableUsesZone(kv, key, victim));
  EXPECT_FALSE(In::TableUsesZone(kv, key, poisoned));
  EXPECT_TRUE(In::ZoneSealed(kv, poisoned));
  bool found = false;
  Status st = Status::kInternalError;
  auto get = [&]() -> sim::Task<> { st = co_await kv.Get(key, &found); };
  auto g = get();
  sim.Run();
  EXPECT_EQ(st, Status::kSuccess);
  EXPECT_TRUE(found);
  EXPECT_EQ(kv.stats().read_tag_mismatches, 0u);
}

/// Fails the first append of a data writer (a flush or a compaction
/// building a table; zones 0 and 1 hold the WAL), and notes where the
/// next one goes.
struct FirstDataAppendFails {
  const hostif::Stack& device;
  const KvStore* kv = nullptr;
  int data_appends = 0;
  std::uint32_t zone = 0;  // the failed append's zone and size
  std::uint32_t lbas = 0;
  std::uint32_t next_zone = 0;  // the next data append's zone, and
  bool sealed_at_next = false;  // whether `zone` was sealed by then
  bool operator()(const nvme::Command& c) {
    if (c.opcode != nvme::Opcode::kAppend) return false;
    const std::uint32_t z = ZoneOf(device, c.slba);
    if (z < 2) return false;
    if (++data_appends == 1) {
      zone = z;
      lbas = c.nlb;
      return true;
    }
    if (data_appends == 2) {
      next_zone = z;
      sealed_at_next = KvStoreInternals::ZoneSealed(*kv, zone);
    }
    return false;
  }
};

/// Puts keys 0..39 (16 KiB each: two flushes, no compaction), drains,
/// and reads every key back.
void FillDrainAndReadBack(sim::Simulator& sim, KvStore& kv) {
  auto fill = [&]() -> sim::Task<> {
    for (std::uint64_t k = 0; k < 40; ++k) {
      ZSTOR_CHECK(co_await kv.Put(k, 16 * 1024) == Status::kSuccess);
    }
    co_await kv.Drain();
  };
  auto f = fill();
  sim.Run();
  for (std::uint64_t k = 0; k < 40; ++k) {
    bool found = false;
    Status s = Status::kInternalError;
    auto get = [&]() -> sim::Task<> { s = co_await kv.Get(k, &found); };
    auto g = get();
    sim.Run();
    ASSERT_EQ(s, Status::kSuccess);
    EXPECT_TRUE(found) << "key " << k;
  }
  EXPECT_EQ(kv.stats().read_tag_mismatches, 0u);
  EXPECT_EQ(kv.stats().compactions, 0u);
}

// A data writer's append that its zone refuses (read-only) poisons that
// zone and goes on in a fresh one, within the same table build. Reclaim
// then resets the poisoned zone, which holds nothing live.
TEST(KvStore, DataAppendToAFailedZonePoisonsItAndMovesOn) {
  sim::Simulator sim;
  zns::ZnsDevice dev(sim, Fixture::Profile());
  hostif::SpdkStack inner(sim, dev);
  FailStack faulty(sim, inner, Status::kZoneIsReadOnly);
  FirstDataAppendFails first{inner};
  faulty.fail = std::ref(first);
  KvStore kv(sim, faulty, Fixture::DefaultOptions());
  first.kv = &kv;
  FillDrainAndReadBack(sim, kv);
  ASSERT_EQ(faulty.failed, 1);
  EXPECT_TRUE(first.sealed_at_next);
  EXPECT_NE(first.next_zone, first.zone);
  const KvStats& st = kv.stats();
  EXPECT_EQ(st.tables_written, st.flushes);  // no table was built twice
  EXPECT_EQ(st.zone_resets, 1u);
}

// A data writer's append that fails for another reason (an internal
// error, as when a power outage outlasts the retries) may or may not
// have landed, so the store settles the zone's count from a zone report
// and reports the failure: the flush drops its table and builds it again
// in the same zone, whose count then matches the device's write pointer.
TEST(KvStore, DataAppendFailureSettlesItsZoneAndRebuildsTheTable) {
  sim::Simulator sim;
  zns::ZnsDevice dev(sim, Fixture::Profile());
  hostif::SpdkStack inner(sim, dev);
  FailStack faulty(sim, inner, Status::kInternalError);
  FirstDataAppendFails first{inner};
  faulty.fail = std::ref(first);
  KvStore kv(sim, faulty, Fixture::DefaultOptions());
  first.kv = &kv;
  FillDrainAndReadBack(sim, kv);
  ASSERT_EQ(faulty.failed, 1);
  EXPECT_FALSE(first.sealed_at_next);
  EXPECT_EQ(first.next_zone, first.zone);
  const KvStats& st = kv.stats();
  EXPECT_EQ(st.tables_written, st.flushes + 1);  // the dropped build
  const nvme::Lba start =
      static_cast<nvme::Lba>(first.zone) * inner.info().zone_size_lbas;
  EXPECT_EQ(KvStoreInternals::ZoneWrittenLbas(kv, first.zone),
            dev.ZoneWritePointerLba(first.zone) - start);
}

// The same failure on the append that reserved a zone's last LBAs: the
// count sits at capacity when the settle's report returns, and must
// still drop to the write pointer, or the next append seals the zone
// short of it.
TEST(KvStore, DataAppendFailureAtCapacitySettlesItsZone) {
  sim::Simulator sim;
  zns::ZnsDevice dev(sim, Fixture::Profile());
  hostif::SpdkStack inner(sim, dev);
  FailStack faulty(sim, inner, Status::kInternalError);
  KvStore kv(sim, faulty, Fixture::DefaultOptions());
  using In = KvStoreInternals;
  const std::uint64_t cap = inner.info().zone_cap_lbas;
  std::uint32_t zone = 0;
  int appends_after = 0;
  std::uint32_t next_zone = 0;
  std::uint64_t count_at_next = 0, wp_at_next = 0;
  bool sealed_at_next = false;
  faulty.fail = [&](const nvme::Command& c) {
    if (c.opcode != nvme::Opcode::kAppend) return false;
    const std::uint32_t z = ZoneOf(inner, c.slba);
    if (z < 2) return false;
    if (faulty.failed == 0) {
      if (In::ZoneWrittenLbas(kv, z) != cap) return false;
      zone = z;
      return true;
    }
    if (++appends_after == 1) {
      // The count holds this append's reservation on top of what landed.
      next_zone = z;
      sealed_at_next = In::ZoneSealed(kv, zone);
      count_at_next = In::ZoneWrittenLbas(kv, zone) - (z == zone ? c.nlb : 0);
      wp_at_next = dev.ZoneWritePointerLba(zone) -
                   static_cast<nvme::Lba>(zone) * inner.info().zone_size_lbas;
    }
    return false;
  };
  auto fill = [&]() -> sim::Task<> {
    for (std::uint64_t k = 0; k < 400 && faulty.failed == 0; ++k) {
      ZSTOR_CHECK(co_await kv.Put(k % 40, 16 * 1024) == Status::kSuccess);
    }
    co_await kv.Drain();
  };
  auto f = fill();
  sim.Run();
  ASSERT_EQ(faulty.failed, 1);
  ASSERT_GE(appends_after, 1);
  EXPECT_EQ(kv.stats().gc_relocated_bytes, 0u);  // a data writer's append
  EXPECT_FALSE(sealed_at_next);
  EXPECT_EQ(next_zone, zone);
  EXPECT_LT(wp_at_next, cap);
  EXPECT_EQ(count_at_next, wp_at_next);
  for (std::uint64_t k = 0; k < 40; ++k) {
    bool found = false;
    Status st = Status::kInternalError;
    auto get = [&]() -> sim::Task<> { st = co_await kv.Get(k, &found); };
    auto g = get();
    sim.Run();
    ASSERT_EQ(st, Status::kSuccess);
    EXPECT_TRUE(found) << "key " << k;
  }
  EXPECT_EQ(kv.stats().read_tag_mismatches, 0u);
}

/// Records every command it forwards, as a benchmark that replays a
/// run's command stream does.
class RecordingStack final : public hostif::Stack {
 public:
  explicit RecordingStack(hostif::Stack& inner) : inner_(inner) {}
  sim::Task<nvme::TimedCompletion> Submit(nvme::Command cmd) override {
    commands.push_back(cmd);
    co_return co_await inner_.Submit(cmd);
  }
  const nvme::NamespaceInfo& info() const override { return inner_.info(); }

  std::vector<nvme::Command> commands;

 private:
  hostif::Stack& inner_;
};

// A store's tag read-backs, recorded and re-issued once the store and
// every read frame are gone, write into buffers that still exist: the
// device returns each read's tags into the buffer the command named.
// (Under AddressSanitizer a buffer in a read's frame would fail here as
// a use after free.)
TEST(KvStore, RecordedTagReadBacksReplayAfterTheStoreIsGone) {
  sim::Simulator sim;
  zns::ZnsDevice dev(sim, Fixture::Profile());
  hostif::SpdkStack inner(sim, dev);
  RecordingStack rec(inner);
  {
    auto kv = std::make_unique<KvStore>(sim, rec, Fixture::DefaultOptions());
    FillDrainAndReadBack(sim, *kv);
  }
  std::size_t replayed = 0;
  for (const nvme::Command& c : rec.commands) {
    if (c.opcode != nvme::Opcode::kRead || c.payload_tag == 0) continue;
    ASSERT_NE(c.data, nullptr);
    nvme::TimedCompletion tc;
    auto replay = [&]() -> sim::Task<> { tc = co_await inner.Submit(c); };
    auto r = replay();
    sim.Run();
    ASSERT_TRUE(tc.completion.ok());
    ASSERT_EQ(tc.completion.count, c.nlb);
    const auto* tags = static_cast<const std::uint64_t*>(c.data);
    for (std::uint32_t i = 0; i < c.nlb; ++i) {
      EXPECT_EQ(tags[i], c.payload_tag + i) << "read " << replayed;
    }
    ++replayed;
  }
  EXPECT_GT(replayed, 0u);
}

}  // namespace
}  // namespace zstor::zkv
