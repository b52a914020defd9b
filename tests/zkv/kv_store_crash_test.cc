// KvStore crash-recovery tests: WAL replay after a power loss, the
// IntegrityVerifier classification of every ledgered LBA, and the hard
// invariant the crash bench gates on — zero silent corruptions, ever.
#include <gtest/gtest.h>

#include <cstdint>

#include "hostif/host_stack.h"
#include "hostif/resilient_stack.h"
#include "sim/rng.h"
#include "sim/task.h"
#include "zkv/kv_store.h"
#include "zns/zns_device.h"

namespace zstor::zkv {
namespace {

using nvme::Status;
using Report = workload::IntegrityVerifier::Report;

struct Fixture {
  Fixture()
      : dev(sim, Profile()),
        inner(sim, dev),
        stack(sim, inner,
              {.max_attempts = 8, .backoff = sim::Microseconds(500)}),
        kv(sim, stack, Opts(dev)) {}

  static zns::ZnsProfile Profile() {
    zns::ZnsProfile p = zns::TinyProfile();
    p.io_sigma = 0;
    p.reset.sigma = 0;
    p.finish.sigma = 0;
    p.max_open_zones = 8;
    p.max_active_zones = 10;
    return p;
  }
  static KvStore::Options Opts(zns::ZnsDevice& d) {
    KvStore::Options o{.zone_count = 14};
    o.crash_epoch = [&d] { return d.power_epoch(); };
    return o;
  }

  template <typename F>
  void Sync(F&& f) {
    auto body = [&]() -> sim::Task<> { co_await f(); };
    auto t = body();
    sim.Run();
  }

  sim::Simulator sim;
  zns::ZnsDevice dev;
  hostif::SpdkStack inner;
  hostif::ResilientStack stack;
  KvStore kv;
};

TEST(KvStoreCrash, QuietStoreRecoversExact) {
  Fixture f;
  Report rep;
  auto body = [&]() -> sim::Task<> {
    for (std::uint64_t k = 0; k < 8; ++k) {
      co_await f.kv.Put(k, 16 * 1024);
    }
    co_await f.kv.Drain();
    co_await f.dev.CrashNow();
    rep = co_await f.kv.RecoverAfterCrash();
  };
  f.Sync(body);

  EXPECT_EQ(rep.silent_corruptions, 0u);
  EXPECT_EQ(f.kv.stats().crash_recoveries, 1u);
  // Everything the WAL or a durable table held must come back.
  for (std::uint64_t k = 0; k < 8; ++k) {
    bool found = false;
    Status st = Status::kInternalError;
    auto rd = [&]() -> sim::Task<> { st = co_await f.kv.Get(k, &found); };
    auto t = rd();
    f.sim.Run();
    EXPECT_EQ(st, Status::kSuccess);
    EXPECT_TRUE(found) << "key " << k;
  }
}

TEST(KvStoreCrash, MidChurnCrashYieldsNoSilentCorruption) {
  Fixture f;
  Report rep;
  auto body = [&]() -> sim::Task<> {
    sim::Rng rng(7);
    // Churn enough to have flushes and compactions in flight, then cut
    // power without draining: volatile WAL tail + un-certified tables.
    for (int round = 0; round < 200; ++round) {
      co_await f.kv.Put(rng.UniformU64(24), 16 * 1024);
    }
    co_await f.dev.CrashNow();
    rep = co_await f.kv.RecoverAfterCrash();
  };
  f.Sync(body);

  // Losing unflushed data is legitimate; silently serving wrong data is
  // not. The verifier taxonomy keeps the two apart.
  EXPECT_EQ(rep.silent_corruptions, 0u);
  EXPECT_GT(rep.lbas_checked, 0u);
  EXPECT_GT(f.kv.stats().wal_replayed + f.kv.stats().wal_lost, 0u);
}

TEST(KvStoreCrash, StoreKeepsServingAfterRecovery) {
  Fixture f;
  Report rep;
  Status late_put = Status::kInternalError;
  bool late_found = false;
  auto body = [&]() -> sim::Task<> {
    sim::Rng rng(9);
    for (int round = 0; round < 120; ++round) {
      co_await f.kv.Put(rng.UniformU64(16), 16 * 1024);
    }
    co_await f.dev.CrashNow();
    rep = co_await f.kv.RecoverAfterCrash();
    late_put = co_await f.kv.Put(999, 16 * 1024);
    co_await f.kv.Get(999, &late_found);
    co_await f.kv.Drain();
  };
  f.Sync(body);

  EXPECT_EQ(rep.silent_corruptions, 0u);
  EXPECT_EQ(late_put, Status::kSuccess);
  EXPECT_TRUE(late_found);
}

TEST(KvStoreCrash, DoubleCrashSurvives) {
  Fixture f;
  Report rep1, rep2;
  auto body = [&]() -> sim::Task<> {
    sim::Rng rng(21);
    for (int round = 0; round < 100; ++round) {
      co_await f.kv.Put(rng.UniformU64(12), 16 * 1024);
    }
    co_await f.dev.CrashNow();
    rep1 = co_await f.kv.RecoverAfterCrash();
    for (int round = 0; round < 60; ++round) {
      co_await f.kv.Put(rng.UniformU64(12), 16 * 1024);
    }
    co_await f.dev.CrashNow();
    rep2 = co_await f.kv.RecoverAfterCrash();
  };
  f.Sync(body);

  EXPECT_EQ(rep1.silent_corruptions, 0u);
  EXPECT_EQ(rep2.silent_corruptions, 0u);
  EXPECT_EQ(f.kv.stats().crash_recoveries, 2u);
}

TEST(KvStoreCrash, RecoveryIsDeterministic) {
  auto run = [](Report* rep, KvStats* st) {
    Fixture f;
    auto body = [&]() -> sim::Task<> {
      sim::Rng rng(33);
      for (int round = 0; round < 150; ++round) {
        co_await f.kv.Put(rng.UniformU64(20), 16 * 1024);
      }
      co_await f.dev.CrashNow();
      *rep = co_await f.kv.RecoverAfterCrash();
    };
    f.Sync(body);
    *st = f.kv.stats();
  };
  Report ra, rb;
  KvStats sa{}, sb{};
  run(&ra, &sa);
  run(&rb, &sb);
  EXPECT_EQ(ra.exact, rb.exact);
  EXPECT_EQ(ra.lost_unflushed, rb.lost_unflushed);
  EXPECT_EQ(ra.silent_corruptions, rb.silent_corruptions);
  EXPECT_EQ(sa.wal_replayed, sb.wal_replayed);
  EXPECT_EQ(sa.wal_lost, sb.wal_lost);
  EXPECT_EQ(sa.tables_dropped, sb.tables_dropped);
}

}  // namespace
}  // namespace zstor::zkv
