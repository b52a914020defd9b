// Figure 2 — I/O latencies of append and write operations at QD=1.
//
//  (a) write/append latency across {SPDK, kernel-none, kernel-mq-deadline}
//      x LBA format {512 B, 4 KiB}, request size == LBA size.
//  (b) the best request sizes (4 KiB write / 8 KiB append) per format.
//
// Paper reference values: SPDK 4 KiB write 11.36 us, kernel-none 12.62 us,
// kernel-mq 14.47 us, SPDK 8 KiB append 14.02 us; 512 B format up to ~2x
// slower (Observations #1, #2, #4).
#include <cstdio>
#include <string>
#include <vector>

#include "harness/bench_flags.h"
#include "harness/experiments.h"
#include "harness/parallel.h"
#include "harness/table.h"
#include "zns/profile.h"

using namespace zstor;
using nvme::Opcode;

namespace {

struct Param {
  StackChoice kind;
  std::uint32_t lba;
};

struct Measured {  // all QD1 latencies for one (stack, format) point
  double write_lba = 0, append_lba = 0, write_4k = 0, append_8k = 0;
};

}  // namespace

int main(int argc, char** argv) {
  harness::InitBench(argc, argv);
  zns::ZnsProfile profile = zns::Zn540Profile();
  auto& results = harness::Results();
  results.Config("profile", "ZN540");
  results.Config("qd", 1.0);

  // Compute every sweep point (possibly on --jobs threads; each point
  // builds its own testbed), then record serially in index order so the
  // output is identical for any job count.
  std::vector<Param> params;
  for (StackChoice kind : {StackChoice::kSpdk, StackChoice::kKernelNone,
                           StackChoice::kKernelMq}) {
    for (std::uint32_t lba : {512u, 4096u}) params.push_back({kind, lba});
  }
  std::vector<Measured> sweep =
      harness::ParallelSweep(params.size(), [&](std::size_t i) {
        const Param& p = params[i];
        Measured m;
        m.write_lba = harness::Qd1LatencyUs(profile, p.kind, Opcode::kWrite,
                                            p.lba, p.lba);
        m.append_lba = harness::Qd1LatencyUs(profile, p.kind, Opcode::kAppend,
                                             p.lba, p.lba);
        m.write_4k = harness::Qd1LatencyUs(profile, p.kind, Opcode::kWrite,
                                           4096, p.lba);
        m.append_8k = harness::Qd1LatencyUs(profile, p.kind, Opcode::kAppend,
                                            8192, p.lba);
        return m;
      });

  harness::Banner(
      "Figure 2a — QD1 latency, request size == LBA size (us)");
  {
    harness::Table t({"stack", "format", "write", "append"});
    for (std::size_t i = 0; i < params.size(); ++i) {
      const Param& p = params[i];
      const Measured& m = sweep[i];
      std::string label = std::string(ToString(p.kind)) + "/" +
                          (p.lba == 512 ? "512B" : "4KiB");
      results.Series("fig2a_write_latency", "us")
          .AddLabeled(label, p.lba, m.write_lba);
      results.Series("fig2a_append_latency", "us")
          .AddLabeled(label, p.lba, m.append_lba);
      t.AddRow({ToString(p.kind), p.lba == 512 ? "512B" : "4KiB",
                harness::FmtUs(m.write_lba), harness::FmtUs(m.append_lba)});
    }
    t.Print();
    std::printf(
        "  paper: spdk/4KiB write=11.36us, kernel-none 12.62us,\n"
        "         kernel-mq 14.47us; 512B format up to ~2x slower (Obs.1)\n");
  }

  harness::Banner(
      "Figure 2b — QD1 latency at the best request sizes (us)");
  {
    harness::Table t(
        {"stack", "format", "write(4KiB)", "append(8KiB)"});
    for (std::size_t i = 0; i < params.size(); ++i) {
      const Param& p = params[i];
      const Measured& m = sweep[i];
      std::string label = std::string(ToString(p.kind)) + "/" +
                          (p.lba == 512 ? "512B" : "4KiB");
      results.Series("fig2b_write4k_latency", "us")
          .AddLabeled(label, p.lba, m.write_4k);
      results.Series("fig2b_append8k_latency", "us")
          .AddLabeled(label, p.lba, m.append_8k);
      t.AddRow({ToString(p.kind), p.lba == 512 ? "512B" : "4KiB",
                harness::FmtUs(m.write_4k), harness::FmtUs(m.append_8k)});
    }
    t.Print();
    std::printf(
        "  paper: best write 11.36us (spdk, 4KiB), best append 14.02us\n"
        "         (spdk, 8KiB); write beats append by up to 23%% (Obs.4)\n");
  }
  return 0;
}
