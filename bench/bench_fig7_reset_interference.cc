// Figure 7 — interference between reset and concurrent I/O (Obs. 12/13).
//
// One thread resets 100%-occupied zones in the first half of the device
// while another issues read/write/append traffic to the second half.
//
// Paper reference: p95 reset latency rises from 17.94 ms (isolated) to
// 28.00 ms (+56%, reads), 32.00 ms (+78%, writes), 31.48 ms (+75.5%,
// appends) — while the I/O itself is unaffected by the resets (Obs. 12).
#include <cstdio>

#include "harness/bench_flags.h"
#include "harness/experiments.h"
#include "harness/parallel.h"
#include "harness/table.h"
#include "zns/profile.h"

using namespace zstor;
using nvme::Opcode;

int main(int argc, char** argv) {
  harness::InitBench(argc, argv);
  zns::ZnsProfile profile = zns::Zn540Profile();

  harness::Banner("Figure 7 — p95 reset latency under concurrent I/O");
  // All five measurements are independent; compute them concurrently
  // under --jobs and record serially below (see harness/parallel.h).
  harness::ResetInterferenceResult none, read, write, append;
  double write_alone = 0;
  harness::ParallelTasks({
      [&] { none = harness::ResetInterference(profile, Opcode::kFlush); },
      [&] { read = harness::ResetInterference(profile, Opcode::kRead); },
      [&] { write = harness::ResetInterference(profile, Opcode::kWrite); },
      [&] { append = harness::ResetInterference(profile, Opcode::kAppend); },
      [&] {
        write_alone = harness::Qd1LatencyUs(
            profile, StackChoice::kSpdk, Opcode::kWrite, 4096, 4096);
      },
  });

  auto& results = harness::Results();
  results.Config("profile", "ZN540");
  results.Series("fig7_reset_p95", "ms")
      .AddLabeled("none", 0, none.reset_p95_ms)
      .AddLabeled("read", 1, read.reset_p95_ms)
      .AddLabeled("write", 2, write.reset_p95_ms)
      .AddLabeled("append", 3, append.reset_p95_ms);

  harness::Table t({"concurrent op", "reset p95", "increase", "paper"});
  auto inc = [&](const harness::ResetInterferenceResult& r) {
    return harness::Fmt(100.0 * (r.reset_p95_ms / none.reset_p95_ms - 1.0),
                        1) +
           "%";
  };
  t.AddRow({"none", harness::FmtMs(none.reset_p95_ms), "-", "17.94ms"});
  t.AddRow({"read (QD12)", harness::FmtMs(read.reset_p95_ms), inc(read),
            "28.00ms (+56.1%)"});
  t.AddRow({"write (QD1)", harness::FmtMs(write.reset_p95_ms), inc(write),
            "32.00ms (+78.4%)"});
  t.AddRow({"append (QD1)", harness::FmtMs(append.reset_p95_ms),
            inc(append), "31.48ms (+75.5%)"});
  t.Print();

  harness::Banner("Observation #12 — I/O latency is reset-agnostic");
  results.Series("fig7_write_mean", "us")
      .AddLabeled("with_resets", 0, write.io_mean_us)
      .AddLabeled("no_resets", 1, write_alone);
  harness::Table t2({"metric", "value"});
  t2.AddRow({"4KiB write mean, concurrent resets",
             harness::FmtUs(write.io_mean_us)});
  t2.AddRow({"4KiB write mean, no resets", harness::FmtUs(write_alone)});
  t2.Print();
  std::printf(
      "  paper: resets do not measurably affect read/write/append\n"
      "         latency; the reverse interference is large\n");
  return 0;
}
