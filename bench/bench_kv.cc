// zkv under YCSB: the application-level rendition of the paper's
// recommendations (DESIGN.md §13).
//
//  1. YCSB core mixes A/B/C/F    -> throughput + read tails per mix
//  2. Value-size sweep           -> request-size economics (Obs. 4 at
//                                   the KV layer)
//  3. Zipf-skew sweep            -> how hot-spots shape compaction WA
//  4. Lifetime placement A/B     -> R4: hot/cold zone routing must cut
//                                   write amplification vs one shared
//                                   open zone (ratio gates CI)
//  5. Compaction interference    -> Obs. 11 at the app layer: a
//                                   throttled compaction window craters
//                                   foreground throughput; with
//                                   --timeline, ztrace attributes the dip
//                                   to the open `kv.compact` window
//  6. Mid-compaction power loss  -> WAL replay + tag re-verification:
//                                   zero silent corruption or the bench
//                                   exits nonzero (the CI gate)
//
// The crash instant is self-calibrated like bench_crash: the sweep-5
// throttled point doubles as the crash-free baseline measuring the run
// phase's virtual-time span, and the power loss lands at a fixed
// fraction of it — inside the churn, where compactions are open.
#include <cstdio>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "harness/bench_flags.h"
#include "harness/parallel.h"
#include "harness/table.h"
#include "harness/testbed.h"
#include "workload/ycsb.h"
#include "zkv/kv_store.h"
#include "zns/zns_device.h"

using namespace zstor;

namespace {

constexpr sim::Time kSettleMargin = sim::Milliseconds(20);

/// TinyProfile stretched to a KV-sized zone budget: 32 zones (2 WAL +
/// 30 data) with headroom for the store's open set (2 WAL segments +
/// hot + cold + relocation = 5 active zones).
zns::ZnsProfile KvProfile() {
  zns::ZnsProfile p = zns::TinyProfile();
  p.num_zones = 32;
  p.max_open_zones = 8;
  p.max_active_zones = 10;
  p.nand_geometry.blocks_per_die = 96;  // 32 zones x 3 blocks/zone/die
  return p;
}

/// Rides out a full power-loss outage (boot ~2 ms): exponential backoff
/// from 250 us spans ~8 ms of virtual time across the budget.
hostif::RetryPolicy CrashRetryPolicy() {
  return {.max_attempts = 12,
          .backoff = sim::Microseconds(250),
          .backoff_multiplier = 2.0};
}

fault::FaultSpec CrashSpec(const std::vector<sim::Time>& crashes) {
  fault::FaultSpec spec;
  spec.enabled = true;
  spec.crashes = crashes;
  return spec;
}

struct KvConfig {
  workload::YcsbSpec spec;
  zkv::KvStore::Options opt;
  std::vector<sim::Time> crashes;  // fault-plan power losses
  bool recover = false;            // run RecoverAfterCrash() at the end
};

struct KvPoint {
  workload::YcsbResult res;
  zkv::KvStats stats;
  std::vector<zkv::LevelStats> levels;
  sim::Time load_end = 0, run_end = 0;
  double recovery_ms = 0.0;
  workload::IntegrityVerifier::Report rep;
  bool recovered = false;
};

struct FlowOut {
  bool done = false;
  KvPoint p;
};

sim::Task<> KvFlow(Testbed* tb, zkv::KvStore* kv,
                   const workload::YcsbSpec& spec, sim::Time settle_until,
                   bool recover, FlowOut* out) {
  workload::YcsbRunner runner(tb->sim(), *kv, spec);
  co_await runner.Load();
  out->p.load_end = tb->sim().now();
  out->p.res = co_await runner.Run();
  out->p.run_end = tb->sim().now();
  if (tb->sim().now() < settle_until) {
    co_await tb->sim().Delay(settle_until - tb->sim().now());
  }
  co_await kv->Drain();
  if (recover) {
    const sim::Time t0 = tb->sim().now();
    out->p.rep = co_await kv->RecoverAfterCrash();
    out->p.recovery_ms = static_cast<double>(tb->sim().now() - t0) / 1e6;
    out->p.recovered = true;
  }
  out->done = true;
}

KvPoint RunKv(const KvConfig& cfg, const std::string& label) {
  TestbedBuilder b;
  b.WithZnsProfile(KvProfile()).WithLabel(label);
  if (!cfg.crashes.empty()) {
    b.WithRetryPolicy(CrashRetryPolicy()).WithFaults(CrashSpec(cfg.crashes));
  }
  Testbed tb = b.Build();

  zkv::KvStore::Options o = cfg.opt;
  if (!cfg.crashes.empty()) {
    zns::ZnsDevice* dev = tb.zns();
    o.crash_epoch = [dev] { return dev->power_epoch(); };
  }
  zkv::KvStore kv(tb.sim(), tb.stack(), o);
  kv.AttachTelemetry(tb.telemetry());

  const sim::Time settle =
      cfg.crashes.empty() ? 0 : cfg.crashes.back() + kSettleMargin;
  FlowOut out;
  tb.EnsureSamplersRunning();  // we drive sim().Run() ourselves
  sim::Spawn(KvFlow(&tb, &kv, cfg.spec, settle, cfg.recover, &out));
  tb.sim().Run();
  ZSTOR_CHECK(out.done);

  out.p.stats = kv.stats();
  out.p.levels = kv.level_stats();
  tb.Finish();
  return out.p;
}

workload::YcsbSpec BaseSpec() {
  workload::YcsbSpec s;
  s.mix = workload::YcsbMix::kA;
  s.record_count = 2048;
  s.operations = 6000;
  s.value_bytes = 4096;
  s.zipf_theta = 0.99;
  s.workers = 4;
  s.seed = 1;
  return s;
}

zkv::KvStore::Options BaseOpts() {
  zkv::KvStore::Options o;
  o.zone_count = 32;  // whole device: 2 WAL + 30 data zones (~90 MiB)
  return o;
}

/// Churn-heavy shape for the placement A/B and the interference/crash
/// points: a tight zone budget and a small memtable keep compaction and
/// reclamation continuously busy.
zkv::KvStore::Options ChurnOpts() {
  zkv::KvStore::Options o;
  o.zone_count = 14;  // 2 WAL + 12 data zones (~36 MiB)
  o.memtable_bytes = 64 * 1024;
  o.l0_compact_trigger = 2;
  o.l0_stall_limit = 4;
  return o;
}

std::string P99Us(const sim::LatencyHistogram& h) {
  return h.count() == 0 ? "-" : harness::Fmt(h.p99_ns() / 1e3, 1) + " us";
}

}  // namespace

int main(int argc, char** argv) {
  harness::InitBench(argc, argv);
  auto& results = harness::Results();
  bool integrity_ok = true;

  const workload::YcsbSpec base = BaseSpec();
  results.Config("profile", "tiny-32z");
  results.Config("records", static_cast<double>(base.record_count));
  results.Config("value_bytes", static_cast<double>(base.value_bytes));
  results.Config("theta", base.zipf_theta);
  results.Config("retry_policy", "max_attempts=12,backoff_us=250,mult=2");

  harness::Banner("KV sweep 1 — YCSB core mixes (zipf 0.99, 4 KiB values)");
  {
    const std::vector<workload::YcsbMix> mixes = {
        workload::YcsbMix::kA, workload::YcsbMix::kB, workload::YcsbMix::kC,
        workload::YcsbMix::kF};
    std::vector<KvPoint> sweep =
        harness::ParallelSweep(mixes.size(), [&](std::size_t i) {
          KvConfig cfg;
          cfg.spec = base;
          cfg.spec.mix = mixes[i];
          cfg.opt = BaseOpts();
          return RunKv(cfg, std::string("kv-mix-") +
                                std::string(ToString(mixes[i])));
        });
    harness::Table t({"mix", "kiops", "read p99", "update p99", "WA",
                      "compactions", "stall ms"});
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const KvPoint& p = sweep[i];
      const std::string label(ToString(mixes[i]));
      const double wa = p.stats.WriteAmplification();
      results.Series("kv_ycsb_kiops", "kiops")
          .AddLabeled(label, static_cast<double>(i), p.res.Kiops(),
                      p.res.read_latency)
          .WithWa(wa);
      t.AddRow({label, harness::Fmt(p.res.Kiops(), 1),
                P99Us(p.res.read_latency), P99Us(p.res.update_latency),
                harness::Fmt(wa, 2), std::to_string(p.stats.compactions),
                harness::Fmt(static_cast<double>(p.stats.write_stall_ns) /
                                 1e6, 1)});
    }
    t.Print();
    std::printf(
        "  the read/update ratio sets how much LSM machinery each op\n"
        "  touches: C never compacts after load; A and F churn L0\n");
  }

  harness::Banner("KV sweep 2 — value size (mix A)");
  {
    const std::vector<std::uint64_t> sizes = {1024, 4096, 16384};
    std::vector<KvPoint> sweep =
        harness::ParallelSweep(sizes.size(), [&](std::size_t i) {
          KvConfig cfg;
          cfg.spec = base;
          cfg.spec.value_bytes = sizes[i];
          cfg.spec.operations = 4000;
          cfg.opt = BaseOpts();
          return RunKv(cfg, "kv-val-" + std::to_string(sizes[i]));
        });
    harness::Table t({"value", "kiops", "MiB/s user", "read p99", "WA"});
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const KvPoint& p = sweep[i];
      const std::string label =
          std::to_string(sizes[i] / 1024) + "KiB";
      const double wa = p.stats.WriteAmplification();
      const double span_s =
          static_cast<double>(p.res.span) / 1e9;
      const double user_mibps =
          span_s == 0 ? 0.0
                      : static_cast<double>(p.stats.user_bytes) /
                            (1 << 20) / span_s;
      results.Series("kv_value_size_kiops", "kiops")
          .AddLabeled(label, static_cast<double>(sizes[i]), p.res.Kiops(),
                      p.res.read_latency)
          .WithWa(wa);
      t.AddRow({label, harness::Fmt(p.res.Kiops(), 1),
                harness::Fmt(user_mibps, 1), P99Us(p.res.read_latency),
                harness::Fmt(wa, 2)});
    }
    t.Print();
    std::printf(
        "  larger values amortize per-op WAL/index cost into bandwidth —\n"
        "  the KV-layer echo of the device's request-size curve (Obs. 4)\n");
  }

  harness::Banner("KV sweep 3 — request skew (mix A, 4 KiB values)");
  {
    const std::vector<double> thetas = {0.2, 0.6, 0.99};
    std::vector<KvPoint> sweep =
        harness::ParallelSweep(thetas.size(), [&](std::size_t i) {
          KvConfig cfg;
          cfg.spec = base;
          cfg.spec.zipf_theta = thetas[i];
          cfg.opt = BaseOpts();
          return RunKv(cfg, "kv-skew-" + harness::Fmt(thetas[i], 2));
        });
    harness::Table t({"theta", "kiops", "read p99", "WA", "compactions"});
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const KvPoint& p = sweep[i];
      const std::string label = harness::Fmt(thetas[i], 2);
      const double wa = p.stats.WriteAmplification();
      results.Series("kv_skew_kiops", "kiops")
          .AddLabeled(label, thetas[i], p.res.Kiops(), p.res.read_latency)
          .WithWa(wa);
      t.AddRow({label, harness::Fmt(p.res.Kiops(), 1),
                P99Us(p.res.read_latency), harness::Fmt(wa, 2),
                std::to_string(p.stats.compactions)});
    }
    t.Print();
    std::printf(
        "  skewed updates concentrate garbage into few hot tables, so\n"
        "  compaction reclaims more per byte moved — WA falls with theta\n");
  }

  harness::Banner("KV sweep 4 — lifetime placement A/B (R4, tight zones)");
  double placement_ratio = 0.0;
  {
    std::vector<KvPoint> sweep =
        harness::ParallelSweep(2, [&](std::size_t i) {
          // Large values over a tight zone budget with a proactive
          // reclaim watermark: the zipf tail settles into long-lived
          // deep levels while the head churns, and GC has to keep four
          // zones free. Level-segregated zones die wholesale (phase-1
          // resets, zero relocation); one shared open zone interleaves
          // lifetimes, so reclamation must relocate live remnants.
          KvConfig cfg;
          cfg.spec = base;
          cfg.spec.record_count = 512;
          cfg.spec.operations = 6000;
          cfg.spec.value_bytes = 16384;
          cfg.spec.zipf_theta = 0.9;
          cfg.opt = BaseOpts();
          cfg.opt.zone_count = 14;  // 2 WAL + 12 data zones (~36 MiB)
          cfg.opt.free_zone_low = 4;
          cfg.opt.lifetime_placement = (i == 0);
          return RunKv(cfg, i == 0 ? "kv-place-on" : "kv-place-off");
        });
    harness::Table t({"placement", "WA", "gc relocated", "zone resets",
                      "kiops", "read p99"});
    const char* labels[2] = {"on", "off"};
    double wa[2];
    for (std::size_t i = 0; i < 2; ++i) {
      const KvPoint& p = sweep[i];
      wa[i] = p.stats.WriteAmplification();
      results.Series("kv_wa_placement", "x")
          .AddLabeled(labels[i], static_cast<double>(i), wa[i])
          .WithWa(wa[i]);
      t.AddRow({labels[i], harness::Fmt(wa[i], 3),
                harness::Fmt(static_cast<double>(
                                 p.stats.gc_relocated_bytes) / (1 << 20), 2) +
                    " MiB",
                std::to_string(p.stats.zone_resets),
                harness::Fmt(p.res.Kiops(), 1), P99Us(p.res.read_latency)});
    }
    placement_ratio = wa[0] == 0 ? 0.0 : wa[1] / wa[0];
    results.Series("kv_wa_placement_ratio", "x")
        .AddLabeled("off/on", 0, placement_ratio);
    t.Print();
    std::printf(
        "  placement ratio (off/on): %.3f — routing short-lived L0/L1\n"
        "  output away from long-lived levels lets zones die wholesale,\n"
        "  so reclamation relocates less (>= 1.0 gates CI, as does\n"
        "  relocated[on] <= relocated[off])\n",
        placement_ratio);
    integrity_ok = integrity_ok && placement_ratio >= 1.0;
    integrity_ok = integrity_ok && sweep[0].stats.gc_relocated_bytes <=
                                       sweep[1].stats.gc_relocated_bytes;
  }

  harness::Banner(
      "KV sweep 5 — compaction interference (Obs. 11 at the app layer)");
  KvPoint throttled;  // doubles as the crash-free baseline for sweep 6
  KvConfig interf;
  {
    interf.spec = base;
    interf.spec.record_count = 512;
    interf.spec.operations = 6000;
    interf.spec.zipf_theta = 0.9;
    interf.opt = ChurnOpts();
    interf.opt.zone_count = 16;

    KvConfig smooth = interf;
    std::vector<KvConfig> cfgs = {smooth, interf};
    cfgs[1].opt.compact_rate_mibps = 20.0;  // stretch the compact windows
    std::vector<KvPoint> sweep =
        harness::ParallelSweep(2, [&](std::size_t i) {
          return RunKv(cfgs[i],
                       i == 0 ? "kv-interf-base" : "kv-interf-throttled");
        });
    throttled = sweep[1];
    interf.opt.compact_rate_mibps = 20.0;

    harness::Table t({"compaction", "kiops", "read p99", "stall ms",
                      "compactions"});
    const char* labels[2] = {"unthrottled", "throttled"};
    for (std::size_t i = 0; i < 2; ++i) {
      const KvPoint& p = sweep[i];
      results.Series("kv_interference_read_p99_us", "us")
          .AddLabeled(labels[i], static_cast<double>(i),
                      p.res.read_latency.count() == 0
                          ? 0.0
                          : p.res.read_latency.p99_ns() / 1e3,
                      p.res.read_latency);
      t.AddRow({labels[i], harness::Fmt(p.res.Kiops(), 1),
                P99Us(p.res.read_latency),
                harness::Fmt(static_cast<double>(p.stats.write_stall_ns) /
                                 1e6, 1),
                std::to_string(p.stats.compactions)});
    }
    t.Print();
    std::printf(
        "  a rate-limited compactor holds L0 at the stall limit, so the\n"
        "  foreground parks inside every `kv.compact` window — with\n"
        "  --timeline, ztrace --require-dip attributes the throughput dip\n");
  }

  harness::Banner("KV sweep 6 — power loss mid-compaction, WAL replay");
  {
    // Self-calibrated: the throttled point above measured the run
    // phase's span crash-free; 55% through it the churn is peaking and
    // compaction windows are open.
    KvConfig cfg = interf;
    cfg.crashes = {throttled.load_end +
                   (throttled.run_end - throttled.load_end) * 55 / 100};
    cfg.recover = true;
    KvPoint p = RunKv(cfg, "kv-crash");
    ZSTOR_CHECK(p.recovered);

    const bool point_ok =
        p.rep.silent_corruptions == 0 && p.rep.read_errors == 0 &&
        p.stats.compactions > 0 && p.recovery_ms > 0;
    results.Series("kv_crash_silent_corruptions", "lbas")
        .AddLabeled("mid-compaction", 1,
                    static_cast<double>(p.rep.silent_corruptions));
    results.Series("kv_crash_recovery_ms", "ms")
        .AddLabeled("mid-compaction", 1, p.recovery_ms);
    results.Series("kv_crash_wal_replayed", "records")
        .AddLabeled("mid-compaction", 1,
                    static_cast<double>(p.stats.wal_replayed));

    harness::Table t({"crashes", "recovery", "wal replayed", "wal lost",
                      "tables dropped", "exact", "lost w", "silent",
                      "verdict"});
    t.AddRow({"1", harness::Fmt(p.recovery_ms, 3) + " ms",
              std::to_string(p.stats.wal_replayed),
              std::to_string(p.stats.wal_lost),
              std::to_string(p.stats.tables_dropped),
              std::to_string(p.rep.exact),
              std::to_string(p.rep.lost_unflushed),
              std::to_string(p.rep.silent_corruptions),
              point_ok ? "ok" : "CORRUPT"});
    t.Print();
    std::printf(
        "  the crash tears the open compaction output and the WAL tail;\n"
        "  recovery drops non-durable tables, replays the WAL, and\n"
        "  re-verifies every surviving tag — 'silent' != 0 fails CI\n");
    integrity_ok = integrity_ok && point_ok;
  }

  std::printf("\nintegrity: %s\n",
              integrity_ok
                  ? "PASS (placement ratio >= 1, no silent corruption)"
                  : "FAIL — placement regressed or corruption detected");
  return integrity_ok ? 0 : 1;
}
