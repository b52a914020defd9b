// Host-time statistics, allocation counting and the stated run condition.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 for an empty input.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);

/// The highest of the percentiles 50, 90, 99, 99.9 and 99.99 that leaves
/// at least ten of `n` samples beyond it; 0 when even the median does
/// not (n < 20).
double HighestReportablePercentile(std::size_t n);

/// Host seconds since `t0` on the steady clock.
inline double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Heap allocations (operator new calls) made since process start while
/// counting was enabled. Counting is off unless a traced run turns it on,
/// so end-to-end runs pay one predictable branch per allocation.
std::uint64_t Allocations();
void SetAllocationCounting(bool on);

/// Host seconds one fixed calibration loop takes right now: a miniature
/// event loop (binary heap, one allocation and one hash-map update per
/// event) with the simulator's cost profile but none of its code.
double CalibrationSeconds();
/// What CalibrationSeconds() takes on the reference machine (a quiet
/// 4-core x86-64 VM, GCC 12, Release).
inline constexpr double kReferenceCalibrationS = 0.040;
/// Host seconds expressed in reference seconds, given what the calibration
/// loop took around them: removes the drift of a shared machine's speed.
inline double ReferenceSeconds(double host_s, double calibration_s) {
  return host_s * kReferenceCalibrationS / calibration_s;
}

/// Peak resident set size of this process, in MiB.
double PeakRssMib();

/// The condition every result is reported under, as one JSON object:
/// build type, compiler, nproc, sim threads, seed and telemetry state
/// (off: only the traced run's telemetry.* figures turn it on).
std::string ConditionJson(const std::string& workload, std::uint64_t seed,
                          int sim_threads);
/// True when this binary was built as a Release build with assertions
/// off; host-time metrics from any other build are refused.
bool IsReleaseBuild();

}  // namespace perfbench
