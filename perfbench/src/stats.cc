#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

namespace perfbench {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()) / 100.0);
  std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (i >= v.size()) i = v.size() - 1;
  return v[i];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double HighestReportablePercentile(std::size_t n) {
  // In basis points, so the rank arithmetic is exact.
  for (std::uint64_t bp : {9999, 9990, 9900, 9000, 5000}) {
    // Nearest-rank position of the percentile; the rest lie beyond it.
    const std::uint64_t at = (bp * n + 9999) / 10000;
    if (n - at >= 10) return static_cast<double>(bp) / 100.0;
  }
  return 0.0;
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool IsReleaseBuild() {
#ifdef NDEBUG
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

std::string ConditionJson(const std::string& workload, std::uint64_t seed,
                          int sim_threads) {
  return std::string("{\"workload\":\"") + workload +
         "\",\"build_type\":\"" + PERFBENCH_BUILD_TYPE +
         "\",\"compiler\":\"" + PERFBENCH_COMPILER + "\",\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"sim_threads\":" + std::to_string(sim_threads) +
         ",\"seed\":" + std::to_string(seed) +
         ",\"telemetry\":false}";
}

}  // namespace perfbench
