// InitBench flag parsing: a numeric flag whose value does not fit its
// target type must fail like any other bad value (exit 2), never wrap
// into a different setting.
#include "harness/bench_flags.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace zstor::harness {
namespace {

/// Runs InitBench on `flag` alone, then exits 0 if it returned.
void InitWith(const char* flag) {
  std::string a0 = "bench_flags_test";
  std::string a1 = flag;
  char* argv[] = {a0.data(), a1.data(), nullptr};
  int argc = 2;
  InitBench(argc, argv);
  std::exit(0);
}

TEST(BenchFlagsDeathTest, SimThreadsAboveIntMaxExits2) {
  EXPECT_EXIT(InitWith("--sim-threads=2147483648"),
              testing::ExitedWithCode(2), "bad --sim-threads value");
}

TEST(BenchFlagsDeathTest, JobsAboveIntMaxExits2) {
  EXPECT_EXIT(InitWith("--jobs=4294967296"), testing::ExitedWithCode(2),
              "bad --jobs value");
}

TEST(BenchFlagsDeathTest, SampleIntervalBeyondTimeRangeExits2) {
  EXPECT_EXIT(InitWith("--sample-interval=1e30"), testing::ExitedWithCode(2),
              "bad --sample-interval value");
}

TEST(BenchFlagsDeathTest, LargestInRangeValuesStillParse) {
  EXPECT_EXIT(InitWith("--sim-threads=2147483647"),
              testing::ExitedWithCode(0), "");
  EXPECT_EXIT(InitWith("--jobs=2147483647"), testing::ExitedWithCode(0), "");
  EXPECT_EXIT(InitWith("--sample-interval=1e10s"), testing::ExitedWithCode(0),
              "");
}

}  // namespace
}  // namespace zstor::harness
