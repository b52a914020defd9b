// Table I — the paper's key-insight summary, regenerated: one measured
// headline number per insight category.
#include <cstdio>

#include "harness/bench_flags.h"
#include "harness/experiments.h"
#include "harness/gc_experiment.h"
#include "harness/parallel.h"
#include "harness/table.h"
#include "zns/profile.h"

using namespace zstor;
using nvme::Opcode;

int main(int argc, char** argv) {
  harness::InitBench(argc, argv);
  zns::ZnsProfile profile = zns::Zn540Profile();

  harness::Banner("Table I — overview of the key insights (measured)");

  // Every headline is an independent experiment; compute them all
  // concurrently under --jobs and record serially (harness/parallel.h).
  double w = 0, a = 0, finish_empty = 0, merged = 0;
  workload::JobResult intra_read, intra_write, inter_write;
  harness::ResetInterferenceResult reset_alone, reset_write;
  harness::GcExperimentResult conv, zns;
  harness::ParallelTasks({
      [&] {
        w = harness::Qd1LatencyUs(profile, StackChoice::kSpdk, Opcode::kWrite,
                                  4096, 4096);
      },
      [&] {
        a = harness::Qd1LatencyUs(profile, StackChoice::kSpdk, Opcode::kAppend,
                                  8192, 4096);
      },
      [&] {
        intra_read = harness::IntraZone(profile, Opcode::kRead, 4096, 128);
      },
      [&] {
        intra_write =
            harness::IntraZone(profile, Opcode::kWrite, 4096, 32, &merged);
      },
      [&] {
        inter_write = harness::InterZone(profile, Opcode::kWrite, 4096, 14);
      },
      [&] { finish_empty = harness::FinishLatencyMs(profile, 0.0, 3); },
      [&] {
        reset_alone = harness::ResetInterference(profile, Opcode::kFlush);
      },
      [&] {
        reset_write = harness::ResetInterference(profile, Opcode::kWrite);
      },
      [&] { conv = harness::RunConvGcExperiment(0, sim::Seconds(6), 2); },
      [&] { zns = harness::RunZnsGcExperiment(0, sim::Seconds(6), 2); },
  });
  double gap_pct = 100.0 * (a - w) / a;
  double reset_inc = 100.0 * (reset_write.reset_p95_ms /
                                  reset_alone.reset_p95_ms -
                              1.0);

  auto& results = harness::Results();
  results.Config("profile", "ZN540 + SN640");
  results.Series("table1_headlines", "")
      .AddLabeled("write_qd1_us", 0, w)
      .AddLabeled("append_qd1_us", 1, a)
      .AddLabeled("append_gap_pct", 2, gap_pct)
      .AddLabeled("intra_read_kiops", 3, intra_read.Kiops())
      .AddLabeled("intra_write_kiops", 4, intra_write.Kiops())
      .AddLabeled("inter_write_kiops", 5, inter_write.Kiops())
      .AddLabeled("finish_empty_ms", 6, finish_empty)
      .AddLabeled("reset_p95_increase_pct", 7, reset_inc)
      .AddLabeled("conv_read_mibps", 8, conv.read_mibps_mean)
      .AddLabeled("zns_read_mibps", 9, zns.read_mibps_mean);

  harness::Table t({"category", "measured", "paper"});
  t.AddRow({"append vs. write",
            "write " + harness::FmtUs(w) + " vs append " +
                harness::FmtUs(a) + " (" + harness::Fmt(gap_pct, 1) +
                "% lower)",
            "writes up to 23% lower latency"});
  t.AddRow({"scalability",
            "intra: read " + harness::FmtKiops(intra_read.Kiops()) +
                ", merged write " + harness::FmtKiops(intra_write.Kiops()) +
                " > inter write " + harness::FmtKiops(inter_write.Kiops()),
            "prefer intra-zone scalability"});
  t.AddRow({"zone transitions",
            "finish of near-empty zone " + harness::FmtMs(finish_empty),
            "finish costs up to hundreds of ms"});
  t.AddRow({"I/O interference",
            "read MiB/s under writes: zns " +
                harness::Fmt(zns.read_mibps_mean, 2) + " vs conv " +
                harness::Fmt(conv.read_mibps_mean, 2) + " (fluctuating)",
            "ZNS ~3x higher read throughput under load"});
  t.AddRow({"I/O & GC interference",
            "reset p95 +" + harness::Fmt(reset_inc, 1) +
                "% under writes; I/O unaffected by resets",
            "reset +78% under writes; no reverse effect"});
  t.Print();
  return 0;
}
