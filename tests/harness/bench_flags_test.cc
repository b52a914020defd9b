// InitBench flag parsing: a numeric flag whose value does not fit its
// target type must fail like any other bad value (exit 2), never wrap
// into a different setting; so must an argument no bench knows and an
// output file that cannot be opened. BenchEnv's --metrics and --logpages
// documents carry one labeled entry per testbed.
#include "harness/bench_flags.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ftl/conv_profile.h"
#include "harness/testbed.h"
#include "zns/profile.h"
#include "ztrace/json_value.h"

namespace zstor::harness {
namespace {

/// Runs InitBench on `flag` alone, with `--devices` as the bench's own
/// flag, then exits with the --devices value (0 when absent).
void InitWith(const char* flag) {
  std::string a0 = "bench_flags_test";
  std::string a1 = flag;
  char* argv[] = {a0.data(), a1.data(), nullptr};
  int devices = 0;
  InitBench(2, argv, {{"--devices", &devices}});
  std::exit(devices);
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

TEST(BenchFlagsDeathTest, UnknownArgumentsExit2) {
  for (const char* arg : {"--bogus", "--jsno=x", "--devcies=2", "extra"}) {
    EXPECT_EXIT(InitWith(arg), testing::ExitedWithCode(2),
                "unknown argument: " + std::string(arg));
  }
}

TEST(BenchFlagsDeathTest, OwnCountFlagIsRangeChecked) {
  EXPECT_EXIT(InitWith("--devices=4294967297"), testing::ExitedWithCode(2),
              "bad --devices value");
  EXPECT_EXIT(InitWith("--devices=0"), testing::ExitedWithCode(2),
              "bad --devices value");
  EXPECT_EXIT(InitWith("--devices=7"), testing::ExitedWithCode(7), "");
}

TEST(BenchFlagsDeathTest, UnwritableOutputsExit2) {
  for (const char* flag : {"--json", "--trace", "--timeline", "--metrics",
                           "--logpages"}) {
    const std::string arg = std::string(flag) + "=/nonexistent/out.json";
    EXPECT_EXIT(InitWith(arg.c_str()), testing::ExitedWithCode(2),
                "cannot open output file /nonexistent/out.json");
  }
}

std::optional<ztrace::JsonValue> ParseFile(const std::string& path) {
  std::ostringstream text;
  text << std::ifstream(path).rdbuf();
  return ztrace::JsonValue::Parse(text.str());
}

TEST(BenchEnvFiles, LabeledArraysCarryOneEntryPerTestbed) {
  const std::string metrics = ::testing::TempDir() + "/bench_env_metrics.json";
  const std::string logpages =
      ::testing::TempDir() + "/bench_env_logpages.json";
  std::string a0 = "bench_flags_test";
  std::string a1 = "--metrics=" + metrics;
  std::string a2 = "--logpages=" + logpages;
  char* argv[] = {a0.data(), a1.data(), a2.data(), nullptr};
  InitBench(3, argv);
  // The second label needs escaping.
  const std::vector<std::string> labels = {"zns", "conv \"b\""};
  Testbed zns = TestbedBuilder()
                    .WithZnsProfile(zns::TinyProfile())
                    .WithLabel(labels[0])
                    .Build();
  Testbed conv = TestbedBuilder()
                     .WithConvProfile(ftl::TinyConvProfile())
                     .WithLabel(labels[1])
                     .Build();
  zns.Finish();  // entries come in Finish() order
  conv.Finish();
  FinishBench();

  for (const auto& [path, key] :
       {std::pair{metrics, "metrics"}, std::pair{logpages, "logpages"}}) {
    SCOPED_TRACE(path);
    std::optional<ztrace::JsonValue> doc = ParseFile(path);
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(doc->is_array());
    ASSERT_EQ(doc->array().size(), labels.size());
    for (std::size_t i = 0; i < labels.size(); ++i) {
      const ztrace::JsonValue& entry = doc->array()[i];
      EXPECT_EQ(entry.StringOr("label", ""), labels[i]);
      const ztrace::JsonValue* body = entry.Find(key);
      ASSERT_NE(body, nullptr);
      ASSERT_TRUE(body->is_object());
      if (std::string(key) == "logpages") {
        const ztrace::JsonValue* smart = body->Find("smart");
        ASSERT_NE(smart, nullptr);
        EXPECT_EQ(smart->StringOr("device", ""), i == 0 ? "zns" : "conv");
        // The error counters are split, never one io_errors field.
        EXPECT_GE(smart->NumberOr("host_rejects", -1), 0);
        EXPECT_GE(smart->NumberOr("media_errors", -1), 0);
        EXPECT_EQ(smart->Find("io_errors"), nullptr);
      }
    }
  }
}

}  // namespace
}  // namespace zstor::harness
