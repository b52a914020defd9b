// Self-tests of the benchmark itself: the percentile helper, decorator
// transparency, failure accounting, and the oracle on the held-out input
// seed (checked by run.py against oracle/<workload>.json).
#include <cstdio>
#include <string>

#include "ladder.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("selftest %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  Expect(Percentile(v, 50) == 50 && Percentile(v, 99) == 99 &&
             Percentile(v, 100) == 100 && Percentile(v, 0) == 1,
         "nearest-rank percentiles of 1..100");
  Expect(Percentile({}, 50) == 0, "percentile of no samples is 0");
  // The highest percentile that leaves at least ten samples beyond it.
  Expect(HighestReportablePercentile(19) == 0, "19 samples: none");
  Expect(HighestReportablePercentile(20) == 50, "20 samples: p50");
  Expect(HighestReportablePercentile(999) == 90, "999 samples: p90");
  Expect(HighestReportablePercentile(1000) == 99, "1000 samples: p99");
  Expect(HighestReportablePercentile(10000) == 99.9, "10^4 samples: p99.9");
  Expect(HighestReportablePercentile(100000) == 99.99,
         "10^5 samples: p99.99");
}

void TestFailureAccounting() {
  // Synthetic: 90 completed + 10 failed operations are 100 attempts.
  RepResult r;
  zstor::workload::JobResult a, b;
  a.ops = 60;
  a.errors = 4;
  b.ops = 30;
  b.errors = 6;
  TallyJobs(r, {a, b});
  Expect(r.ops == 90 && r.failed == 10 && r.attempted == 100,
         "attempts = completed + JobResult::errors");

  // Real: writes into a full zone are all rejected by the device, and
  // every rejection is counted as a failed attempt.
  zstor::Testbed tb = zstor::TestbedBuilder()
                          .WithZnsProfile(zstor::zns::TinyProfile())
                          .Build();
  tb.FillZones(0, 1);
  zstor::workload::JobSpec w;
  w.op = zstor::nvme::Opcode::kWrite;
  w.zones = {0};
  w.duration = zstor::sim::Milliseconds(5);
  RepResult real;
  TallyJobs(real, {tb.RunJob(w)});
  Expect(real.ops == 0 && real.failed > 0 && real.attempted == real.failed,
         "writes to a full zone: fail ratio 1 (" +
             std::to_string(real.failed) + " failed)");
}

void TestHeldOutSeed(std::uint64_t seed) {
  for (const Workload& w : Workloads()) {
    const std::string name = w.name;
    const Outputs ref = w.run(seed, RunOptions{.sliced = false}).out;
    const Outputs sliced = w.run(seed, RunOptions{}).out;
    std::printf("virtual %s:reference %llu %s\n", name.c_str(),
                static_cast<unsigned long long>(seed), ref.Json().c_str());
    std::printf("virtual %s:sliced %llu %s\n", name.c_str(),
                static_cast<unsigned long long>(seed), sliced.Json().c_str());
    Expect(sliced == ref, name + ": sliced run equals one-call run");

    // Decorators must be transparent. stripe4's decorated stack runs on
    // the classic engine, so it is compared with a classic Testbed run.
    RunOptions classic{.sliced = false};
    classic.sim_threads = 0;
    const Outputs plain = name == "stripe4" ? w.run(seed, classic).out : ref;
    const Outputs decorated = DecoratedOutputs(name, seed);
    Expect(decorated == plain,
           name + ": decorated drive equals undecorated run " +
               decorated.FirstDifference(plain));
  }
}

}  // namespace

int RunSelfTests(std::uint64_t held_out_seed) {
  std::printf("condition %s\n",
              ConditionJson("selftest", held_out_seed, 1).c_str());
  TestPercentiles();
  TestFailureAccounting();
  TestHeldOutSeed(held_out_seed);
  std::printf("selftest failures=%d\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
