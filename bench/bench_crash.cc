// Power-loss crash injection, device recovery, and end-to-end data
// integrity (DESIGN.md §11).
//
//  1. ZNS crash-count sweep      -> recovery latency, torn appends,
//                                   host append-replay dedupe
//  2. ZNS utilization sweep      -> loss window vs zone fill, fixed crashes
//  3. Conv journal-sync sweep    -> recovery replay tail vs journal WA
//                                   (the firmware's durability knob)
//
// Crash instants are self-calibrated: each sweep first runs a crash-free
// baseline to measure the workload's virtual-time span, then places the
// power losses at fixed fractions of it, so they land inside the write
// phase regardless of profile or host-stack timing. Every point re-reads
// every acknowledged LBA through the IntegrityVerifier ledger. The bench
// exits nonzero on any silent corruption, on a ZNS recovery time that is
// not positive exactly at the crashed points, on a conventional recovery
// time that is not positive, or on a conventional write amplification
// below 1 — this is the gate the crash subsystem answers to.
#include <cstdio>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "ftl/conv_device.h"
#include "harness/bench_flags.h"
#include "harness/parallel.h"
#include "harness/table.h"
#include "harness/testbed.h"
#include "workload/verifier.h"
#include "zns/zns_device.h"

using namespace zstor;

namespace {

// Zones the ZNS sweeps fill. Partially-filled zones stay *active* for
// the whole run, so this must not exceed TinyProfile's max_active_zones
// (5) or the device terminally rejects the overflow zones' first append.
constexpr std::uint32_t kZones = 5;
constexpr double kBaseUtil = 0.55;          // fill level for sweep 1
constexpr sim::Time kSettleMargin = sim::Milliseconds(20);

// Retry budget generous enough to ride out a full power-loss outage
// (boot cost ~2 ms): exponential backoff from 250 us spans ~8 ms of
// virtual time across the budget.
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

/// Places `n` crashes at evenly spaced fractions of `span` (never at the
/// very start or end, so each lands inside the write phase).
std::vector<sim::Time> CrashTimes(std::uint32_t n, sim::Time span) {
  std::vector<sim::Time> out;
  for (std::uint32_t i = 1; i <= n; ++i) {
    out.push_back(span * i / (n + 1));
  }
  return out;
}

struct FlowOut {
  sim::Time fill_end = 0;   // virtual time when the write phases finished
  bool done = false;
  workload::IntegrityVerifier::Report report;
};

// Two write phases with a durability point between them (the flush
// certifies phase 1, so any post-crash mismatch there is silent
// corruption; phase 2 stays in the legal-loss window). After the last
// scheduled crash settles, everything is flushed and re-read.
sim::Task<> ZnsFlow(Testbed* tb, workload::IntegrityVerifier* v,
                    double util, sim::Time settle_until, FlowOut* out) {
  co_await v->FillZones(0, kZones, util * 0.5);
  co_await v->Flush();
  co_await v->FillZones(0, kZones, util * 0.5);
  out->fill_end = tb->sim().now();
  if (tb->sim().now() < settle_until) {
    co_await tb->sim().Delay(settle_until - tb->sim().now());
  }
  co_await v->Flush();
  out->report = co_await v->VerifyAll();
  out->done = true;
}

sim::Task<> ConvFlow(Testbed* tb, workload::IntegrityVerifier* v,
                     nvme::Lba span, std::uint64_t ios_per_phase,
                     sim::Time settle_until, FlowOut* out) {
  co_await v->WriteRegion(0, span, ios_per_phase);
  co_await v->Flush();
  co_await v->WriteRegion(0, span, ios_per_phase);
  out->fill_end = tb->sim().now();
  if (tb->sim().now() < settle_until) {
    co_await tb->sim().Delay(settle_until - tb->sim().now());
  }
  co_await v->Flush();
  out->report = co_await v->VerifyAll();
  out->done = true;
}

struct ZnsPoint {
  sim::Time fill_end;
  workload::IntegrityVerifier::Report rep;
  workload::IntegrityVerifier::WriteStats ws;
  double recovery_ms_avg;
  std::uint64_t crashes, recoveries, torn_pages;
  double crash_lost_mib;
  std::uint64_t device_resets, replayed_dupes, reset_drops;
};

ZnsPoint RunZns(double util, const std::vector<sim::Time>& crashes,
                const std::string& label) {
  TestbedBuilder b;
  b.WithZnsProfile(zns::TinyProfile())
      .WithRetryPolicy(CrashRetryPolicy())
      .WithLabel(label);
  if (!crashes.empty()) b.WithFaults(CrashSpec(crashes));
  Testbed tb = b.Build();
  zns::ZnsDevice* dev = tb.zns();

  workload::IntegrityVerifier::Options vopt;
  vopt.lbas_per_io = dev->profile().nand_geometry.page_bytes /
                     tb.stack().info().format.lba_bytes;
  vopt.crash_epoch = [dev] { return dev->power_epoch(); };
  workload::IntegrityVerifier v(tb.sim(), tb.stack(), vopt);

  const sim::Time settle =
      crashes.empty() ? 0 : crashes.back() + kSettleMargin;
  FlowOut out;
  sim::Spawn(ZnsFlow(&tb, &v, util, settle, &out));
  tb.sim().Run();
  ZSTOR_CHECK(out.done);

  const zns::ZnsCounters& c = dev->counters();
  ZnsPoint p;
  p.fill_end = out.fill_end;
  p.rep = out.report;
  p.ws = v.write_stats();
  p.recovery_ms_avg =
      c.recoveries == 0 ? 0.0
                        : static_cast<double>(c.recovery_ns_total) /
                              static_cast<double>(c.recoveries) / 1e6;
  p.crashes = c.crashes;
  p.recoveries = c.recoveries;
  p.torn_pages = c.torn_pages;
  p.crash_lost_mib = static_cast<double>(c.crash_lost_bytes) / (1 << 20);
  p.reset_drops = c.reset_drops;
  p.device_resets = tb.resilient()->stats().device_resets_seen;
  p.replayed_dupes = tb.resilient()->stats().replayed_dupes;
  tb.Finish();
  return p;
}

struct ConvPoint {
  sim::Time fill_end;
  workload::IntegrityVerifier::Report rep;
  workload::IntegrityVerifier::WriteStats ws;
  double recovery_ms;  // the (single) crash's outage span
  std::uint64_t crashes, replay_entries, reverted_entries, lost_units;
  std::uint64_t journal_units, journal_syncs, checkpoints;
  double write_amp;
};

ConvPoint RunConv(std::uint32_t journal_interval,
                  const std::vector<sim::Time>& crashes,
                  const std::string& label) {
  ftl::ConvProfile prof = ftl::TinyConvProfile();
  prof.journal_sync_interval = journal_interval;
  TestbedBuilder b;
  b.WithConvProfile(prof).WithRetryPolicy(CrashRetryPolicy()).WithLabel(label);
  if (!crashes.empty()) b.WithFaults(CrashSpec(crashes));
  Testbed tb = b.Build();
  ftl::ConvDevice* dev = tb.conv();

  workload::IntegrityVerifier::Options vopt;
  vopt.crash_epoch = [dev] { return dev->power_epoch(); };
  workload::IntegrityVerifier v(tb.sim(), tb.stack(), vopt);

  const std::uint64_t span_lbas =
      tb.stack().info().capacity_lbas -
      tb.stack().info().capacity_lbas %
          (vopt.lbas_per_io * vopt.concurrency);
  const std::uint64_t ios_per_phase = span_lbas / vopt.lbas_per_io;

  const sim::Time settle =
      crashes.empty() ? 0 : crashes.back() + kSettleMargin;
  FlowOut out;
  sim::Spawn(ConvFlow(&tb, &v, 0 + span_lbas, ios_per_phase, settle, &out));
  tb.sim().Run();
  ZSTOR_CHECK(out.done);

  const ftl::ConvCounters& c = dev->counters();
  ConvPoint p;
  p.fill_end = out.fill_end;
  p.rep = out.report;
  p.ws = v.write_stats();
  p.recovery_ms = static_cast<double>(dev->last_recovery_ns()) / 1e6;
  p.crashes = c.crashes;
  p.replay_entries = c.recovery_replay_entries;
  p.reverted_entries = c.journal_reverted_entries;
  p.lost_units = c.crash_lost_units;
  p.journal_units = c.journal_units_written;
  p.journal_syncs = c.journal_syncs;
  p.checkpoints = c.checkpoints;
  p.write_amp = c.WriteAmplification();
  tb.Finish();
  return p;
}

std::string VerdictCell(const workload::IntegrityVerifier::Report& r) {
  return r.ok() ? "ok" : "CORRUPT";
}

}  // namespace

int main(int argc, char** argv) {
  harness::InitBench(argc, argv);
  auto& results = harness::Results();
  bool integrity_ok = true;
  bool recovery_ok = true;

  results.Config("retry_policy", "max_attempts=12,backoff_us=250,mult=2");
  results.Config("zns_zones_filled", std::to_string(kZones));

  harness::Banner(
      "Crash sweep 1 — ZNS: recovery & integrity vs crash count");
  {
    // The crash-free baseline is also the crashes=0 row; its span places
    // the power losses for every other point.
    ZnsPoint base = RunZns(kBaseUtil, {}, "crash-zns-n0");
    const std::vector<std::uint32_t> counts = {1, 2, 4};
    std::vector<ZnsPoint> sweep =
        harness::ParallelSweep(counts.size(), [&](std::size_t i) {
          return RunZns(kBaseUtil, CrashTimes(counts[i], base.fill_end),
                        "crash-zns-n" + std::to_string(counts[i]));
        });
    sweep.insert(sweep.begin(), base);

    harness::Table t({"crashes", "recov avg", "torn pages", "lost",
                      "verified", "exact", "lost w", "stale w", "silent",
                      "dupes replayed", "verdict"});
    std::vector<std::uint32_t> all_counts = {0};
    all_counts.insert(all_counts.end(), counts.begin(), counts.end());
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const ZnsPoint& p = sweep[i];
      const double x = all_counts[i];
      const std::string label = std::to_string(all_counts[i]);
      const double verified_mib =
          static_cast<double>(p.rep.bytes_verified) / (1 << 20);
      results.Series("zns_recovery_ms_vs_crashes", "ms")
          .AddLabeled(label, x, p.recovery_ms_avg);
      results.Series("zns_torn_pages_vs_crashes", "pages")
          .AddLabeled(label, x, static_cast<double>(p.torn_pages));
      results.Series("zns_crash_lost_mib_vs_crashes", "MiB")
          .AddLabeled(label, x, p.crash_lost_mib);
      results.Series("zns_verified_mib_vs_crashes", "MiB")
          .AddLabeled(label, x, verified_mib);
      results.Series("zns_silent_corruptions_vs_crashes", "lbas")
          .AddLabeled(label, x,
                      static_cast<double>(p.rep.silent_corruptions));
      results.Series("zns_replayed_dupes_vs_crashes", "appends")
          .AddLabeled(label, x, static_cast<double>(p.replayed_dupes));
      integrity_ok = integrity_ok && p.rep.ok();
      // Recovery time is real exactly when crashes were injected.
      recovery_ok = recovery_ok && (all_counts[i] == 0
                                        ? p.recovery_ms_avg == 0
                                        : p.recovery_ms_avg > 0);
      t.AddRow({label, harness::Fmt(p.recovery_ms_avg, 3) + " ms",
                std::to_string(p.torn_pages),
                harness::Fmt(p.crash_lost_mib, 2) + " MiB",
                harness::Fmt(verified_mib, 1) + " MiB",
                std::to_string(p.rep.exact),
                std::to_string(p.rep.lost_unflushed),
                std::to_string(p.rep.stale_unflushed),
                std::to_string(p.rep.silent_corruptions),
                std::to_string(p.replayed_dupes), VerdictCell(p.rep)});
    }
    t.Print();
    std::printf(
        "  every crash drops the unflushed tail (torn multi-plane pages +\n"
        "  volatile write pointers) and costs one boot+zone-scan outage;\n"
        "  flushed data must survive byte-exact — 'silent' != 0 fails CI\n");
  }

  harness::Banner(
      "Crash sweep 2 — ZNS: loss window vs zone utilization (2 crashes)");
  {
    const std::vector<double> utils = {0.3, 0.55, 0.8};
    std::vector<ZnsPoint> bases =
        harness::ParallelSweep(utils.size(), [&](std::size_t i) {
          return RunZns(utils[i], {},
                        "crash-zns-u" + harness::Fmt(utils[i], 2) + "-base");
        });
    std::vector<ZnsPoint> sweep =
        harness::ParallelSweep(utils.size(), [&](std::size_t i) {
          return RunZns(utils[i], CrashTimes(2, bases[i].fill_end),
                        "crash-zns-u" + harness::Fmt(utils[i], 2));
        });
    harness::Table t({"utilization", "verified", "lost", "torn pages",
                      "silent", "write fails", "verdict"});
    for (std::size_t i = 0; i < utils.size(); ++i) {
      const ZnsPoint& p = sweep[i];
      const std::string label = harness::Fmt(utils[i], 2);
      const double verified_mib =
          static_cast<double>(p.rep.bytes_verified) / (1 << 20);
      results.Series("zns_verified_mib_vs_util", "MiB")
          .AddLabeled(label, utils[i], verified_mib);
      results.Series("zns_crash_lost_mib_vs_util", "MiB")
          .AddLabeled(label, utils[i], p.crash_lost_mib);
      results.Series("zns_torn_pages_vs_util", "pages")
          .AddLabeled(label, utils[i], static_cast<double>(p.torn_pages));
      results.Series("zns_silent_corruptions_vs_util", "lbas")
          .AddLabeled(label, utils[i],
                      static_cast<double>(p.rep.silent_corruptions));
      integrity_ok = integrity_ok && p.rep.ok();
      t.AddRow({label, harness::Fmt(verified_mib, 1) + " MiB",
                harness::Fmt(p.crash_lost_mib, 2) + " MiB",
                std::to_string(p.torn_pages),
                std::to_string(p.rep.silent_corruptions),
                std::to_string(p.ws.write_failures), VerdictCell(p.rep)});
    }
    t.Print();
    std::printf(
        "  the loss window is the in-flight+buffered tail, not the zone\n"
        "  fill: utilization grows verified bytes, not lost bytes\n");
  }

  harness::Banner(
      "Crash sweep 3 — Conv: journal sync interval (recovery vs WA)");
  {
    ConvPoint base = RunConv(1024, {}, "crash-conv-base");
    const std::vector<std::uint32_t> intervals = {64, 512, 4096};
    std::vector<ConvPoint> sweep =
        harness::ParallelSweep(intervals.size(), [&](std::size_t i) {
          // 3/4 through the write phases: mid second region pass, away
          // from the inter-pass flush (a crash during the flush would
          // always find an empty journal tail, hiding the interval knob).
          return RunConv(intervals[i], {base.fill_end / 4 * 3},
                         "crash-conv-j" + std::to_string(intervals[i]));
        });
    harness::Table t({"sync interval", "recovery", "replay entries",
                      "reverted", "lost units", "journal units",
                      "write amp", "silent", "verdict"});
    for (std::size_t i = 0; i < intervals.size(); ++i) {
      const ConvPoint& p = sweep[i];
      const double x = intervals[i];
      const std::string label = std::to_string(intervals[i]);
      results.Series("conv_recovery_ms_vs_journal_interval", "ms")
          .AddLabeled(label, x, p.recovery_ms);
      results.Series("conv_replay_entries_vs_journal_interval", "entries")
          .AddLabeled(label, x, static_cast<double>(p.replay_entries));
      results.Series("conv_wa_vs_journal_interval", "x")
          .AddLabeled(label, x, p.write_amp);
      results.Series("conv_crash_lost_units_vs_journal_interval", "units")
          .AddLabeled(label, x, static_cast<double>(p.lost_units));
      results.Series("conv_silent_corruptions_vs_journal_interval", "lbas")
          .AddLabeled(label, x,
                      static_cast<double>(p.rep.silent_corruptions));
      integrity_ok = integrity_ok && p.rep.ok();
      // Journal and checkpoint programs only ever add write amplification.
      recovery_ok = recovery_ok && p.recovery_ms > 0 && p.write_amp >= 1.0;
      t.AddRow({label, harness::Fmt(p.recovery_ms, 3) + " ms",
                std::to_string(p.replay_entries),
                std::to_string(p.reverted_entries),
                std::to_string(p.lost_units),
                std::to_string(p.journal_units),
                harness::Fmt(p.write_amp, 3),
                std::to_string(p.rep.silent_corruptions),
                VerdictCell(p.rep)});
    }
    t.Print();
    std::printf(
        "  a short sync interval keeps the unsynced-delta window (and the\n"
        "  replay tail) small at the price of journal write amplification;\n"
        "  a long one does the opposite — the firmware durability knob\n");
  }

  std::printf("\nintegrity: %s\n",
              !integrity_ok  ? "FAIL — silent corruption detected"
              : !recovery_ok ? "FAIL — recovery time or conv WA out of range"
                             : "PASS (no silent corruption, no read errors, "
                               "recovery time > 0 exactly where crashes hit, "
                               "conv WA >= 1)");
  return integrity_ok && recovery_ok ? 0 : 1;
}
