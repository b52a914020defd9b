// ztrace CLI tests: run the real binary as a process on small span and
// timeline files and check its exit codes — 0 on success, 1 when a gate,
// an output file or an input line fails, 2 on a usage error — and that a
// mixed file gets both reports.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

// Two overlapping commands' spans.
const char kTrace[] =
    R"({"ts":0,"dur":10,"cmd":1,"layer":"host","name":"host.submit","a":2}
{"ts":10,"dur":90,"cmd":1,"layer":"fcp","name":"fcp.service"}
{"ts":50,"dur":10,"cmd":2,"layer":"host","name":"host.submit"}
{"ts":60,"dur":40,"cmd":2,"layer":"fcp","name":"fcp.service"}
)";

// Four 100 ms intervals; the second runs at a tenth of the others'
// throughput under a gc.migrate window, so it is an attributed dip.
const char kTimeline[] =
    R"({"type":"sample","t":100000000,"tb":"run","interval_ns":100000000,"counters":{"zns.bytes_written":104857600},"gauges":{},"hist":{}}
{"type":"window","t":110000000,"tb":"run","dur":80000000,"lane":0,"kind":"gc.migrate"}
{"type":"sample","t":200000000,"tb":"run","interval_ns":100000000,"counters":{"zns.bytes_written":10485760},"gauges":{},"hist":{}}
{"type":"sample","t":300000000,"tb":"run","interval_ns":100000000,"counters":{"zns.bytes_written":104857600},"gauges":{},"hist":{}}
{"type":"sample","t":400000000,"tb":"run","interval_ns":100000000,"counters":{"zns.bytes_written":104857600},"gauges":{},"hist":{}}
)";

/// Per-test scratch path: ctest runs these tests in parallel processes.
std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/ztrace_cli_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + name;
}

std::string WriteInput(const std::string& name, const std::string& text) {
  std::string path = TempPath(name);
  std::ofstream(path) << text;
  return path;
}

/// Runs ztrace with `args`; returns its exit code and captures stdout.
int RunZtrace(const std::string& args, std::string* out = nullptr) {
  const std::string out_path = TempPath("stdout.txt");
  const std::string cmd = std::string(ZTRACE_BIN) + " " + args + " > " +
                          out_path + " 2> /dev/null";
  const int status = std::system(cmd.c_str());
  if (out != nullptr) {
    std::ostringstream text;
    text << std::ifstream(out_path).rdbuf();
    *out = text.str();
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(ZtraceCli, ReportsATraceAndATimeline) {
  const std::string trace = WriteInput("trace.jsonl", kTrace);
  const std::string timeline = WriteInput("timeline.jsonl", kTimeline);
  std::string out;
  EXPECT_EQ(RunZtrace(trace + " --qd", &out), 0);
  EXPECT_NE(out.find("4 spans, 2 commands"), std::string::npos) << out;
  EXPECT_EQ(out.find("Testbed"), std::string::npos) << out;
  EXPECT_EQ(RunZtrace(timeline + " --require-dip --threshold=0.5", &out), 0);
  EXPECT_NE(out.find("Testbed run: 4 sample(s)"), std::string::npos) << out;
  EXPECT_NE(out.find("overlapping: gc.migrate"), std::string::npos) << out;
  EXPECT_EQ(out.find("spans,"), std::string::npos) << out;
}

TEST(ZtraceCli, MixedFileGetsBothReports) {
  const std::string mixed =
      WriteInput("mixed.jsonl", std::string(kTrace) + kTimeline);
  std::string out;
  EXPECT_EQ(RunZtrace(mixed + " --tb=run --require-window=gc --chrome=" +
                          TempPath("chrome.json"),
                      &out),
            0);
  EXPECT_NE(out.find("4 spans, 2 commands"), std::string::npos) << out;
  EXPECT_NE(out.find("Testbed run:"), std::string::npos) << out;
  EXPECT_NE(out.find("wrote Chrome trace export"), std::string::npos) << out;
  EXPECT_NE(out.find("1 window(s) matching 'gc*'"), std::string::npos) << out;
}

TEST(ZtraceCli, FailedGatesAndOutputsExitOne) {
  const std::string trace = WriteInput("trace.jsonl", kTrace);
  const std::string timeline = WriteInput("timeline.jsonl", kTimeline);
  EXPECT_EQ(RunZtrace(timeline + " --require-window=nosuchkind"), 1);
  EXPECT_EQ(RunZtrace(trace + " --require-dip"), 1);
  EXPECT_EQ(RunZtrace(timeline + " --tb=nosuchtb"), 1);
  EXPECT_EQ(RunZtrace(timeline + " --chrome=" + TempPath("no/such/dir.json")),
            1);
  EXPECT_EQ(RunZtrace(TempPath("missing.jsonl")), 1);
  std::string out;
  EXPECT_EQ(RunZtrace(WriteInput("torn.jsonl",
                                 std::string(kTimeline) + "{\"type\":\"sam\n"),
                      &out),
            1);
  EXPECT_NE(out.find("Testbed run: 4 sample(s)"), std::string::npos) << out;
}

TEST(ZtraceCli, UsageErrorsExitTwo) {
  const std::string trace = WriteInput("trace.jsonl", kTrace);
  EXPECT_EQ(RunZtrace(trace + " --no-such-flag"), 2);
  EXPECT_EQ(RunZtrace(trace + " --threshold=1.5"), 2);
  EXPECT_EQ(RunZtrace(""), 2);
}

}  // namespace
