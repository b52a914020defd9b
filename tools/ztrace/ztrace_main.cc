// ztrace: analysis CLI for the simulator's JSONL output — span traces
// (--trace; schema DESIGN.md section 7) and telemetry timelines
// (--timeline; section 10), alone or mixed in one file. PrintUsage()
// lists the flags. Produce input with any bench or example binary:
//
//   ./bench/bench_fig2_latency --trace=run.jsonl
//   ztrace run.jsonl --qd --chrome=run_chrome.json
//   ./bench/bench_fig6_gc_interference --timeline=tl.jsonl
//   ztrace tl.jsonl --require-dip
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "ztrace/analysis.h"

namespace {

using namespace zstor::ztrace;

const char* MatchFlag(const char* arg, const char* name) {
  std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') return arg + n + 1;
  return nullptr;
}

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: ztrace FILE.jsonl [--chrome=FILE] [--qd] [--tb=LABEL]\n"
      "              [--threshold=FRAC] [--require-dip]\n"
      "              [--require-window=PFX]\n"
      "\n"
      "Analyzes the JSONL a bench binary writes with --trace=FILE (span\n"
      "trace, DESIGN.md section 7) and/or --timeline=FILE (telemetry\n"
      "timeline, section 10); a file may mix both. Exits 1 when a gate\n"
      "fails or a line of FILE is neither a span nor a timeline record.\n"
      "\n"
      "  --chrome=FILE    write one Chrome trace-event export of spans,\n"
      "                   queue depth and every testbed's counter tracks\n"
      "                   and background windows (Perfetto or\n"
      "                   chrome://tracing)\n"
      "  --qd             also print queue-depth change points\n"
      "  --tb=LABEL       analyze only this testbed's timeline\n"
      "  --threshold=FRAC call intervals below FRAC x median throughput\n"
      "                   a dip (default 0.7)\n"
      "  --require-dip    exit 1 unless at least one dip is attributed\n"
      "                   to an overlapping background window\n"
      "  --require-window=PFX\n"
      "                   exit 1 unless a background window whose kind\n"
      "                   starts with PFX (e.g. 'recovery') was recorded\n");
}

double Us(double ns) { return ns / 1000.0; }
double Ms(double ns) { return ns / 1e6; }

void PrintBreakdown(const std::vector<StageStat>& stages) {
  std::uint64_t grand_total = 0;
  for (const StageStat& s : stages) grand_total += s.total_ns;
  std::printf("Per-stage breakdown (all spans):\n");
  std::printf("  %-9s %-16s %10s %14s %12s %7s\n", "layer", "stage", "count",
              "total_us", "mean_us", "share");
  for (const StageStat& s : stages) {
    double share = grand_total == 0
                       ? 0.0
                       : 100.0 * static_cast<double>(s.total_ns) /
                             static_cast<double>(grand_total);
    std::printf("  %-9s %-16s %10llu %14.1f %12.3f %6.1f%%\n",
                s.layer.c_str(), s.name.c_str(),
                static_cast<unsigned long long>(s.count),
                Us(static_cast<double>(s.total_ns)),
                Us(s.mean_ns()), share);
  }
}

void PrintTails(const std::vector<TailAttribution>& tails) {
  std::printf("\nPer-op-class latency and tail attribution:\n");
  std::printf("  %-14s %8s %10s %10s %10s %10s %8s %7s  %s\n", "op",
              "cmds", "mean_us", "p50_us", "p95_us", "p99_us", "retries",
              "err%", "tail dominated by");
  for (const TailAttribution& t : tails) {
    double p95_share = 0.0;
    if (auto it = t.p95_stage_ns.find(t.p95_dominant);
        it != t.p95_stage_ns.end() && t.p95_ns > 0) {
      double tail_total = 0.0;
      for (const auto& [stage, ns] : t.p95_stage_ns) tail_total += ns;
      if (tail_total > 0) p95_share = 100.0 * it->second / tail_total;
    }
    std::printf("  %-14s %8zu %10.2f %10.2f %10.2f %10.2f %8llu %6.2f%%  "
                "p95: %s (%.0f%%), p99: %s\n",
                t.op.c_str(), t.commands, Us(t.mean_ns), Us(t.p50_ns),
                Us(t.p95_ns), Us(t.p99_ns),
                static_cast<unsigned long long>(t.retries),
                100.0 * t.error_rate(), t.p95_dominant.c_str(), p95_share,
                t.p99_dominant.c_str());
  }
  std::uint64_t retries = 0, timeouts = 0, resets = 0, dupes = 0;
  std::size_t errored = 0;
  for (const TailAttribution& t : tails) {
    retries += t.retries;
    timeouts += t.timeouts;
    errored += t.errored_commands;
    resets += t.device_resets;
    dupes += t.replay_dupes;
  }
  // Resilience rollup line: only when the trace has any retry activity.
  if (retries + timeouts + errored > 0) {
    std::printf("  host resilience: %llu retried attempt(s), %llu "
                "timeout(s), %zu command(s) surfaced an error\n",
                static_cast<unsigned long long>(retries),
                static_cast<unsigned long long>(timeouts), errored);
  }
  // Crash rollup line: only when the run saw a device reset.
  if (resets + dupes > 0) {
    std::printf("  crash resilience: %llu attempt(s) absorbed a device "
                "reset, %llu append(s) settled by wp-replay dedupe\n",
                static_cast<unsigned long long>(resets),
                static_cast<unsigned long long>(dupes));
  }
}

void PrintQdSummary(const QdTimeline& qd, bool dump_points) {
  std::printf("\nQueue depth: max=%lld, time-weighted mean=%.2f\n",
              static_cast<long long>(qd.max_qd), qd.mean_qd);
  if (dump_points) {
    std::printf("  %-16s %s\n", "ts_ns", "qd");
    for (const auto& p : qd.points) {
      std::printf("  %-16llu %lld\n",
                  static_cast<unsigned long long>(p.ts),
                  static_cast<long long>(p.qd));
    }
  }
}

/// Prints the span report; returns the queue-depth timeline when the
/// trace has command-scoped spans (nullopt otherwise).
std::optional<QdTimeline> PrintSpanReport(
    const std::vector<TraceRecord>& recs, const std::string& path,
    bool dump_qd) {
  std::vector<CommandTrace> cmds = GroupByCommand(recs);
  std::uint64_t t_min = recs.front().ts, t_max = 0;
  for (const auto& r : recs) {
    t_min = std::min(t_min, r.ts);
    t_max = std::max(t_max, r.end());
  }
  std::printf("%zu spans, %zu commands, %.3f ms of virtual time (%s)\n\n",
              recs.size(), cmds.size(),
              static_cast<double>(t_max - t_min) / 1e6, path.c_str());

  PrintBreakdown(StageBreakdown(recs));

  CrashSummary crashes = SummarizeCrashes(recs);
  if (crashes.any()) {
    std::printf("\nPower-loss events: %llu crash(es), %llu recovery(ies)\n",
                static_cast<unsigned long long>(crashes.power_losses),
                static_cast<unsigned long long>(crashes.recoveries));
  }

  if (cmds.empty()) return std::nullopt;
  PrintTails(AttributeTails(cmds));
  QdTimeline qd = ComputeQueueDepth(cmds);
  PrintQdSummary(qd, dump_qd);
  return qd;
}

void PrintIntervals(const TbTimeline& tl,
                    const std::vector<IntervalRow>& rows) {
  std::printf("Testbed %s: %zu sample(s), %zu zone event(s), %zu die "
              "window(s), %zu background window(s)\n",
              tl.tb.c_str(), tl.samples.size(), tl.zone_events.size(),
              tl.die_busy.size(), tl.windows.size());
  std::printf("  %-18s %10s %10s %10s %6s %6s %6s %10s %10s %10s\n",
              "interval_ms", "W_MiBps", "R_MiBps", "IOPS", "QD", "util%",
              "zones", "gc_ms", "reset_ms", "recov_ms");
  for (const IntervalRow& r : rows) {
    double gc_ms =
        Ms(static_cast<double>(r.overlap("gc.migrate") +
                               r.overlap("gc.erase")));
    double reset_ms = Ms(static_cast<double>(r.overlap("zone.reset")));
    // Power-loss recovery outages: zone scan (ZNS) + journal replay
    // (conv). The crash instant itself is a zero-duration marker.
    double recov_ms =
        Ms(static_cast<double>(r.overlap("recovery.scan") +
                               r.overlap("recovery.replay")));
    char span[32];
    std::snprintf(span, sizeof span, "[%.0f,%.0f)",
                  Ms(static_cast<double>(r.begin)),
                  Ms(static_cast<double>(r.end)));
    std::printf("  %-18s %10.1f %10.1f %10.0f %6.0f %5.1f%% %6u %10.2f "
                "%10.2f %10.2f\n",
                span, r.write_mibps, r.read_mibps, r.iops, r.qd,
                100.0 * r.die_util, r.zone_transitions, gc_ms, reset_ms,
                recov_ms);
  }
}

/// Prints the dip report; returns how many dips have an attributed cause.
std::size_t PrintDips(const std::vector<Dip>& dips) {
  std::size_t attributed = 0;
  if (dips.empty()) {
    std::printf("  no throughput dips below threshold\n");
    return attributed;
  }
  std::printf("  throughput dips (median %.1f MiB/s):\n",
              dips.front().median_mibps);
  for (const Dip& d : dips) {
    std::printf("    [%.0f,%.0f) ms: %.1f MiB/s",
                Ms(static_cast<double>(d.row.begin)),
                Ms(static_cast<double>(d.row.end)), d.throughput_mibps);
    if (d.causes.empty()) {
      std::printf(" — unexplained (no overlapping window)\n");
      continue;
    }
    ++attributed;
    std::printf(" — overlapping:");
    for (const auto& [kind, ns] : d.causes) {
      std::printf(" %s %.2fms", kind.c_str(),
                  Ms(static_cast<double>(ns)));
    }
    std::printf("\n");
  }
  return attributed;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string chrome_path;
  std::string tb_filter;
  std::string require_window;
  double threshold = 0.7;
  bool dump_qd = false;
  bool require_dip = false;
  for (int i = 1; i < argc; ++i) {
    if (const char* c = MatchFlag(argv[i], "--chrome")) {
      chrome_path = c;
    } else if (const char* v = MatchFlag(argv[i], "--tb")) {
      tb_filter = v;
    } else if (const char* w = MatchFlag(argv[i], "--require-window")) {
      require_window = w;
    } else if (const char* t = MatchFlag(argv[i], "--threshold")) {
      threshold = std::atof(t);
      if (threshold <= 0 || threshold >= 1) {
        std::fprintf(stderr, "ztrace: --threshold must be in (0, 1)\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--qd") == 0) {
      dump_qd = true;
    } else if (std::strcmp(argv[i], "--require-dip") == 0) {
      require_dip = true;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      PrintUsage();
      return 0;
    } else if (path.empty() && argv[i][0] != '-') {
      path = argv[i];
    } else {
      std::fprintf(stderr, "ztrace: unrecognized argument '%s'\n", argv[i]);
      PrintUsage();
      return 2;
    }
  }
  if (path.empty()) {
    PrintUsage();
    return 2;
  }

  LoadResult loaded = LoadJsonlFile(path);
  if (loaded.records.empty() && loaded.tbs.empty()) {
    std::fprintf(stderr, "ztrace: no trace spans or timeline records in %s\n",
                 path.c_str());
    return 1;
  }
  if (loaded.bad_lines > 0) {
    std::fprintf(stderr, "ztrace: skipped %zu unrecognized line(s)\n",
                 loaded.bad_lines);
  }
  if (!tb_filter.empty()) {
    std::erase_if(loaded.tbs, [&tb_filter](const TbTimeline& tl) {
      return tl.tb != tb_filter;
    });
    if (loaded.tbs.empty()) {
      std::fprintf(stderr, "ztrace: no testbed labeled '%s' in %s\n",
                   tb_filter.c_str(), path.c_str());
      return 1;
    }
  }

  std::optional<QdTimeline> qd;
  if (!loaded.records.empty()) {
    qd = PrintSpanReport(loaded.records, path, dump_qd);
  }

  std::size_t attributed = 0;
  std::size_t matched_windows = 0;
  for (std::size_t i = 0; i < loaded.tbs.size(); ++i) {
    const TbTimeline& tl = loaded.tbs[i];
    if (i > 0 || !loaded.records.empty()) std::printf("\n");
    for (const Window& w : tl.windows) {
      if (w.kind.starts_with(require_window)) ++matched_windows;
    }
    std::vector<IntervalRow> rows = BuildIntervals(tl);
    PrintIntervals(tl, rows);
    attributed += PrintDips(FindDips(rows, threshold));
  }

  if (!chrome_path.empty()) {
    if (!WriteChromeTrace(chrome_path, loaded, qd ? &*qd : nullptr)) {
      return 1;
    }
    std::printf("\nwrote Chrome trace export to %s\n", chrome_path.c_str());
  }
  if (!require_window.empty()) {
    if (matched_windows == 0) {
      std::fprintf(stderr,
                   "ztrace: --require-window: no '%s*' window recorded\n",
                   require_window.c_str());
      return 1;
    }
    std::printf("%zu window(s) matching '%s*'\n", matched_windows,
                require_window.c_str());
  }
  if (require_dip && attributed == 0) {
    std::fprintf(stderr,
                 "ztrace: --require-dip: no throughput dip attributed to a "
                 "background window\n");
    return 1;
  }
  // The reports above cover the readable lines; a file with any other
  // line still fails.
  return loaded.bad_lines > 0 ? 1 : 0;
}
