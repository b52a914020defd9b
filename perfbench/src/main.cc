// perfbench: the simulator's wall-clock benchmark.
//
//   perfbench --workload W --seed N --seconds S --trace 0   end-to-end run
//   perfbench --workload W --seed N --trace 1               traced ladder run
//   perfbench --workload W --seed N --reference             oracle values
//   perfbench --selftest                                    self-tests
//
// Output is line oriented: "condition {...}", one
// "virtual <tag> <input seed> {...}" per drive whose simulated outputs the
// caller checks against the oracle, "metric <name> <value> <unit>" lines,
// and a final "result {attempted, failed, replay_mismatches, metrics}"
// object. run.py builds the binary and turns that into the benchmark's
// JSON verdict.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "ladder.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
int RunSelfTests(std::uint64_t held_out_seed);
}

using namespace perfbench;

namespace {

/// The oracle records the outputs of input seeds [0, kInputSeeds). Runs
/// draw their inputs from the first kRunSeeds of them; the last one is
/// held out for the self-test, a seed no tuning of the benchmark used.
constexpr std::uint64_t kInputSeeds = 20;
constexpr std::uint64_t kRunSeeds = kInputSeeds - 1;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  int trace = 0;
  bool reference = false;
  bool selftest = false;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) Usage("missing flag value");
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--workload")) {
      a.workload = value();
    } else if (!std::strcmp(argv[i], "--seed")) {
      a.seed = std::strtoull(value(), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--seconds")) {
      a.seconds = std::atof(value());
    } else if (!std::strcmp(argv[i], "--trace")) {
      a.trace = std::atoi(value());
    } else if (!std::strcmp(argv[i], "--reference")) {
      a.reference = true;
    } else if (!std::strcmp(argv[i], "--selftest")) {
      a.selftest = true;
    } else {
      Usage("unknown flag");
    }
  }
  return a;
}

void PrintMetric(std::string& json, const char* name, double v,
                 const char* unit) {
  std::printf("metric %s %.9g %s\n", name, v, unit);
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s\"%s\":{\"value\":%.9g,\"unit\":\"%s\"}",
                json.empty() ? "" : ",", name, v, unit);
  json += buf;
}

void PrintResult(std::uint64_t attempted, std::uint64_t failed,
                 std::uint64_t mismatches, const std::string& metrics) {
  std::printf(
      "result {\"attempted\":%llu,\"failed\":%llu,"
      "\"replay_mismatches\":%llu,\"metrics\":{%s}}\n",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(mismatches), metrics.c_str());
}

/// A run is whole passes over the kRunSeeds inputs, one pass per ten
/// requested seconds (at least one), starting at input (seed mod
/// kRunSeeds). Every run therefore measures the same work in a
/// seed-dependent order, and the same seed always yields the same inputs.
///
/// Host times are reported in reference seconds: each repetition's times
/// are scaled by how fast the machine ran the fixed calibration loop just
/// before and after it (see ReferenceSeconds). On a shared machine whose
/// speed drifts by tens of percent between minutes this removes most of
/// the drift. Each figure is then the median over repetitions of a
/// per-repetition value, so a burst of noise within a run does not move
/// it either.
int RunEndToEnd(const Workload& w, std::uint64_t seed, double seconds) {
  const auto passes = static_cast<std::uint64_t>(
      std::max(1.0, std::round(seconds / 10.0)));
  std::vector<double> rate, setup, p50, p99, speed;
  std::uint64_t attempted = 0, failed = 0;
  double before = CalibrationSeconds();
  for (std::uint64_t r = 0; r < passes * kRunSeeds; ++r) {
    const std::uint64_t input = (seed + r) % kRunSeeds;
    const RepResult rep = w.run(input, RunOptions{});
    const double after = CalibrationSeconds();
    const double calibration = (before + after) / 2;
    before = after;
    auto ref = [&](double host) { return ReferenceSeconds(host, calibration); };
    std::printf("virtual rep%llu %llu %s\n",
                static_cast<unsigned long long>(r),
                static_cast<unsigned long long>(input),
                rep.out.Json().c_str());
    if (HighestReportablePercentile(rep.slice_ms.size()) < 99.0) {
      std::fprintf(stderr, "perfbench: %zu slices are too few for a p99\n",
                   rep.slice_ms.size());
      return 1;
    }
    rate.push_back(static_cast<double>(rep.ops) / ref(rep.measured_s));
    setup.push_back(ref(rep.setup_s));
    p50.push_back(ref(Percentile(rep.slice_ms, 50)));
    p99.push_back(ref(Percentile(rep.slice_ms, 99)));
    speed.push_back(kReferenceCalibrationS / calibration);
    attempted += rep.attempted;
    failed += rep.failed;
  }
  std::printf("note reps=%zu machine_speed_median=%.4f\n", rate.size(),
              Median(speed));
  std::string json;
  PrintMetric(json, "ops_per_s", Median(rate), "ops/s");
  PrintMetric(json, "slice_ms_p50", Median(p50), "ms");
  PrintMetric(json, "slice_ms_p99", Median(p99), "ms");
  PrintMetric(json, "setup_s", Median(setup), "s");
  PrintMetric(json, "peak_rss_mb", PeakRssMib(), "MiB");
  std::printf("metric fail_ratio %.9g ratio\n",
              static_cast<double>(failed) / static_cast<double>(attempted));
  PrintResult(attempted, failed, 0, json);
  return 0;
}

/// The traced run uses input seed (seed mod kRunSeeds).
int RunTraced(const std::string& workload, std::uint64_t input) {
  LadderResult lr = RunLadder(workload, input);
  for (const auto& [tag, out] : lr.outputs) {
    std::printf("virtual %s %llu %s\n", tag.c_str(),
                static_cast<unsigned long long>(input), out.Json().c_str());
  }
  for (const std::string& n : lr.notes) std::printf("note %s\n", n.c_str());
  std::string json;
  for (const LadderResult::Metric& m : lr.metrics) {
    PrintMetric(json, m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("note replayed=%llu mismatches=%llu\n",
              static_cast<unsigned long long>(lr.replayed),
              static_cast<unsigned long long>(lr.replay_mismatches));
  PrintResult(lr.attempted, lr.failed, lr.replay_mismatches, json);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = Parse(argc, argv);
  if (a.selftest) return RunSelfTests(kInputSeeds - 1);
  const Workload* w = FindWorkload(a.workload);
  if (w == nullptr) Usage("unknown --workload");
  const std::uint64_t input = a.seed % kRunSeeds;
  const int threads = a.workload == "stripe4" ? RunOptions{}.sim_threads : 0;
  std::printf("condition %s\n",
              ConditionJson(a.workload, a.seed, threads).c_str());
  if (a.reference) {
    const std::uint64_t recorded = a.seed % kInputSeeds;
    RepResult r = w->run(recorded, RunOptions{.sliced = false});
    std::printf("virtual reference %llu %s\n",
                static_cast<unsigned long long>(recorded),
                r.out.Json().c_str());
    return 0;
  }
  if (!IsReleaseBuild()) {
    std::fprintf(stderr,
                 "perfbench: refusing to report host time from a %s build "
                 "(needs Release with NDEBUG)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  if (a.trace != 0) return RunTraced(a.workload, input);
  return RunEndToEnd(*w, a.seed, a.seconds);
}
