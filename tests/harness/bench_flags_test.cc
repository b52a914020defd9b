// InitBench flag parsing: a numeric flag whose value does not fit its
// target type must fail like any other bad value (exit 2), never wrap
// into a different setting; so must an argument no bench knows and an
// output file that cannot be opened. BenchEnv's --metrics and --logpages
// documents carry one labeled entry per testbed.
#include "harness/bench_flags.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

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

/// Runs InitBench on `flag` alone, creates the file `ready`, then exits
/// 0, which makes FinishBench write the outputs.
void InitThenSignal(const std::string& flag, const std::string& ready) {
  std::string a0 = "bench_flags_test";
  std::string a1 = flag;
  char* argv[] = {a0.data(), a1.data(), nullptr};
  InitBench(2, argv);
  std::ofstream(ready).put('1');
  std::exit(0);
}

TEST(BenchFlagsDeathTest, JsonIntoFifoCompletes) {
  // A FIFO's reader reads one stream to EOF, so the output check must
  // open nothing: it would block until a reader comes, and its close
  // would end the reader's stream before the document is written. The
  // reader here opens the FIFO only once start-up is done.
  const std::string fifo = ::testing::TempDir() + "/bench_flags_json.fifo";
  const std::string ready = fifo + ".ready";
  ::unlink(fifo.c_str());
  ::unlink(ready.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  std::string got;
  std::thread reader([&fifo, &ready, &got] {
    for (int ms = 0; ms < 25000 && !std::filesystem::exists(ready); ++ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!std::filesystem::exists(ready)) return;
    std::ifstream in(fifo);
    got.assign(std::istreambuf_iterator<char>(in), {});
  });
  const std::string arg = "--json=" + fifo;
  EXPECT_EXIT(
      {
        ::alarm(20);  // a start-up that opens the FIFO blocks forever
        InitThenSignal(arg, ready);
      },
      testing::ExitedWithCode(0), "");
  reader.join();
  ::unlink(fifo.c_str());
  ::unlink(ready.c_str());
  std::optional<ztrace::JsonValue> doc = ztrace::JsonValue::Parse(got);
  ASSERT_TRUE(doc.has_value()) << got;
  EXPECT_EQ(doc->StringOr("bench", ""), "bench_flags_test");
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
