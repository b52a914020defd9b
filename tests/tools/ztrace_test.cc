// ztrace span-analysis tests: the JSON parser, the JSONL loader, and
// the round-trip property the tool is built on — a traced QD1 run's
// per-command span sum must reproduce the latency the application saw
// (the span-tiling invariant of telemetry/trace.h), and the Chrome
// export must be valid JSON.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "harness/testbed.h"
#include "sim/task.h"
#include "ztrace/analysis.h"
#include "ztrace/json_value.h"

namespace zstor::ztrace {
namespace {

using nvme::Opcode;

// ---- JsonValue parser ------------------------------------------------

TEST(JsonValue, ParsesScalarsAndNesting) {
  auto v = JsonValue::Parse(
      R"({"n": -3.5e2, "s": "hi", "t": true, "nul": null,)"
      R"( "arr": [1, 2, 3], "obj": {"k": "v"}})");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_object());
  EXPECT_DOUBLE_EQ(v->NumberOr("n", 0), -350.0);
  EXPECT_EQ(v->StringOr("s", ""), "hi");
  const JsonValue* arr = v->Find("arr");
  ASSERT_NE(arr, nullptr);
  ASSERT_TRUE(arr->is_array());
  EXPECT_EQ(arr->array().size(), 3u);
  const JsonValue* obj = v->Find("obj");
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->StringOr("k", ""), "v");
}

TEST(JsonValue, DecodesEscapesAndUnicode) {
  auto v = JsonValue::Parse(
      R"({"s": "a\"b\\c\n\t", "u": "Aé", "emoji": "😀"})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->StringOr("s", ""), "a\"b\\c\n\t");
  EXPECT_EQ(v->StringOr("u", ""), "A\xc3\xa9");
  EXPECT_EQ(v->StringOr("emoji", ""), "\xf0\x9f\x98\x80");
}

TEST(JsonValue, RejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("").has_value());
  EXPECT_FALSE(JsonValue::Parse("{").has_value());
  EXPECT_FALSE(JsonValue::Parse("{} trailing").has_value());
  EXPECT_FALSE(JsonValue::Parse(R"({"a": 01})").has_value());
  EXPECT_FALSE(JsonValue::Parse("{\"a\": \"raw\ncontrol\"}").has_value());
}

// ---- loader ----------------------------------------------------------

TEST(LoadJsonl, SkipsBadLinesAndKeepsGoodOnes) {
  std::istringstream in(
      "{\"ts\":10,\"dur\":5,\"cmd\":1,\"layer\":\"host\","
      "\"name\":\"host.submit\",\"a\":2,\"b\":1}\n"
      "this is not json\n"
      "{\"ts\":15,\"dur\":7,\"cmd\":1,\"layer\":\"fcp\","
      "\"name\":\"fcp.service\"}\n");
  LoadResult r = LoadJsonl(in);
  EXPECT_EQ(r.bad_lines, 1u);
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.records[0].ts, 10u);
  EXPECT_EQ(r.records[0].a, 2);
  EXPECT_EQ(r.records[1].name, "fcp.service");
  EXPECT_EQ(r.records[1].end(), 22u);
}

TEST(LoadJsonl, SkipsTimelineRecordsInMixedFiles) {
  // A file carrying both --trace spans and --timeline records (same
  // shared path): typed records go to their testbed's timeline, never
  // mis-parsed as zero-duration trace spans.
  std::istringstream in(
      "{\"ts\":10,\"dur\":5,\"cmd\":1,\"layer\":\"host\","
      "\"name\":\"host.submit\"}\n"
      "{\"type\":\"sample\",\"t\":100,\"tb\":\"x\",\"interval_ns\":100,"
      "\"counters\":{},\"gauges\":{},\"hist\":{}}\n"
      "{\"type\":\"zone_state\",\"t\":5,\"tb\":\"x\",\"lane\":0,"
      "\"zone\":1,\"from\":\"Empty\",\"to\":\"Full\"}\n");
  LoadResult r = LoadJsonl(in);
  EXPECT_EQ(r.bad_lines, 0u);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].name, "host.submit");
  ASSERT_EQ(r.tbs.size(), 1u);
  EXPECT_EQ(r.tbs[0].samples.size(), 1u);
  EXPECT_EQ(r.tbs[0].zone_events.size(), 1u);
}

TEST(LoadJsonl, MixedFileYieldsSpansAndTimelines) {
  // One file carrying --trace spans and --timeline records: one pass
  // returns both, typed records are never mis-parsed as zero-duration
  // spans, and only garbage or an unknown record type is a bad line.
  std::istringstream in(
      "{\"ts\":10,\"dur\":5,\"cmd\":1,\"layer\":\"host\","
      "\"name\":\"host.submit\"}\n"
      "{\"type\":\"sample\",\"t\":100,\"tb\":\"x\",\"interval_ns\":100,"
      "\"counters\":{},\"gauges\":{},\"hist\":{}}\n"
      "{\"type\":\"hologram\",\"t\":1,\"tb\":\"y\"}\n"
      "not json at all\n"
      "{\"type\":\"zone_state\",\"t\":5,\"tb\":\"x\",\"lane\":0,"
      "\"zone\":1,\"from\":\"Empty\",\"to\":\"Full\"}\n"
      "{\"type\":\"window\",\"t\":7,\"tb\":\"z\",\"dur\":3,\"lane\":0,"
      "\"kind\":\"gc.erase\"}\n");
  LoadResult r = LoadJsonl(in);
  EXPECT_EQ(r.bad_lines, 2u);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].name, "host.submit");
  // Only known record types create testbed groups, in first-seen order.
  ASSERT_EQ(r.tbs.size(), 2u);
  EXPECT_EQ(r.tbs[0].tb, "x");
  EXPECT_EQ(r.tbs[0].samples.size(), 1u);
  EXPECT_EQ(r.tbs[0].zone_events.size(), 1u);
  EXPECT_EQ(r.tbs[1].tb, "z");
  ASSERT_EQ(r.tbs[1].windows.size(), 1u);
  EXPECT_EQ(r.tbs[1].windows[0].end(), 10u);
}

// ---- synthetic analysis ----------------------------------------------

std::vector<TraceRecord> SyntheticTwoCommands() {
  // cmd 1: submit(a=2 append) 10ns + service 90ns; cmd 2 overlaps.
  return {
      {0, 10, 1, "host", "host.submit", 2, 1},
      {10, 90, 1, "fcp", "fcp.service", 0, 0},
      {50, 10, 2, "host", "host.submit", 0, 1},
      {60, 40, 2, "fcp", "fcp.service", 0, 0},
  };
}

TEST(Analysis, StageBreakdownAggregatesAndSorts) {
  auto stages = StageBreakdown(SyntheticTwoCommands());
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0].name, "fcp.service");  // 130ns > 20ns: sorted desc
  EXPECT_EQ(stages[0].count, 2u);
  EXPECT_EQ(stages[0].total_ns, 130u);
  EXPECT_DOUBLE_EQ(stages[1].mean_ns(), 10.0);
}

TEST(Analysis, GroupByCommandDecodesOpcodeAndSpanSum) {
  auto cmds = GroupByCommand(SyntheticTwoCommands());
  ASSERT_EQ(cmds.size(), 2u);
  EXPECT_EQ(cmds[0].op, "append");  // a=2 == Opcode::kAppend
  EXPECT_EQ(cmds[0].total_ns, 100u);
  EXPECT_EQ(cmds[1].op, "read");  // a=0 == Opcode::kRead
  EXPECT_EQ(cmds[1].begin, 50u);
  EXPECT_EQ(cmds[1].end, 100u);
}

TEST(Analysis, QueueDepthTracksOverlapAndWeightedMean) {
  auto cmds = GroupByCommand(SyntheticTwoCommands());
  QdTimeline qd = ComputeQueueDepth(cmds);
  // [0,50): 1 in flight, [50,100): 2 in flight -> mean 1.5, max 2.
  EXPECT_EQ(qd.max_qd, 2);
  EXPECT_DOUBLE_EQ(qd.mean_qd, 1.5);
}

TEST(Analysis, TailAttributionFindsDominantStage) {
  std::vector<TraceRecord> recs;
  // 20 reads: submit is always 10ns; nand.read is 100ns but 2000ns for
  // the slowest two -> the p95 tail must be attributed to nand.read.
  for (std::uint64_t i = 0; i < 20; ++i) {
    std::uint64_t nand = i >= 18 ? 2000 : 100;
    recs.push_back({i * 5000, 10, i + 1, "host", "host.submit", 0, 1});
    recs.push_back({i * 5000 + 10, nand, i + 1, "nand", "nand.read", 0, 0});
  }
  auto tails = AttributeTails(GroupByCommand(recs));
  ASSERT_EQ(tails.size(), 1u);
  EXPECT_EQ(tails[0].op, "read");
  EXPECT_EQ(tails[0].commands, 20u);
  EXPECT_EQ(tails[0].p95_dominant, "nand.read");
  EXPECT_EQ(tails[0].p99_dominant, "nand.read");
  EXPECT_GT(tails[0].p95_ns, tails[0].p50_ns);
}

TEST(Analysis, RetrySpansAreCountedButNotDoubleCounted) {
  // cmd 1: a failed first attempt (100ns nand.read overlaid by the
  // host.retry span) and a clean second attempt. The retry span must
  // count as a retry, not as extra latency.
  std::vector<TraceRecord> recs = {
      {0, 10, 1, "host", "host.submit", 0, 1},
      {10, 100, 1, "nand", "nand.read", 0, 0},
      {0, 110, 1, "host", "host.retry", 1, 20},  // overlays attempt 1
      {110, 100, 1, "nand", "nand.read", 0, 0},
      // cmd 2: times out twice, then every attempt is spent -> errored.
      {500, 10, 2, "host", "host.submit", 0, 1},
      {510, 0, 2, "host", "host.timeout", 1, 100},
      {510, 100, 2, "host", "host.retry", 1, 23},
      {610, 0, 2, "host", "host.timeout", 2, 100},
      {610, 0, 2, "host", "host.error", 23, 2},
  };
  auto cmds = GroupByCommand(recs);
  ASSERT_EQ(cmds.size(), 2u);
  EXPECT_EQ(cmds[0].retries, 1u);
  EXPECT_FALSE(cmds[0].errored);
  // 10 submit + 2x100 nand: the 110ns retry span added nothing.
  EXPECT_EQ(cmds[0].total_ns, 210u);
  EXPECT_EQ(cmds[0].stage_ns.count("host.retry"), 0u);
  EXPECT_EQ(cmds[1].retries, 1u);
  EXPECT_EQ(cmds[1].timeouts, 2u);
  EXPECT_TRUE(cmds[1].errored);

  auto tails = AttributeTails(cmds);
  ASSERT_EQ(tails.size(), 1u);
  EXPECT_EQ(tails[0].op, "read");
  EXPECT_EQ(tails[0].retries, 2u);
  EXPECT_EQ(tails[0].timeouts, 2u);
  EXPECT_EQ(tails[0].retried_commands, 2u);
  EXPECT_EQ(tails[0].errored_commands, 1u);
  EXPECT_DOUBLE_EQ(tails[0].error_rate(), 0.5);
}

TEST(Analysis, CleanTracesReportZeroResilienceActivity) {
  auto tails = AttributeTails(GroupByCommand(SyntheticTwoCommands()));
  for (const TailAttribution& t : tails) {
    EXPECT_EQ(t.retries, 0u);
    EXPECT_EQ(t.timeouts, 0u);
    EXPECT_EQ(t.errored_commands, 0u);
    EXPECT_DOUBLE_EQ(t.error_rate(), 0.0);
  }
}

// ---- round trip through a real traced run ----------------------------

std::string TempTracePath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

/// Ring large enough that the small runs below never wrap it.
constexpr std::size_t kRingEvents = 1 << 16;

/// Finishes `tb` and writes its captured events through the same JSONL
/// sink --trace uses, so the loader reads what a bench trace file holds.
void WriteRingAsJsonl(Testbed& tb, const std::string& path) {
  tb.Finish();
  ASSERT_NE(tb.ring(), nullptr);
  ASSERT_EQ(tb.ring()->dropped(), 0u);
  telemetry::JsonlFileSink sink(path);
  ASSERT_TRUE(sink.ok());
  for (const telemetry::TraceEvent& e : tb.ring()->Events()) sink.OnEvent(e);
}

TEST(RoundTrip, Qd1SpanSumsMatchMeasuredLatencies) {
  std::string path = TempTracePath("ztrace_roundtrip.jsonl");
  struct Done {
    std::uint64_t trace_id;
    sim::Time latency;
    Opcode op;
  };
  std::vector<Done> done;
  {
    Testbed tb = TestbedBuilder()
                     .WithZnsProfile(zns::TinyProfile())
                     .WithStack(StackChoice::kSpdk)
                     .WithTelemetry({.ring_capacity = kRingEvents})
                     .Build();
    auto body = [&]() -> sim::Task<> {
      for (int i = 0; i < 8; ++i) {
        auto tc = co_await tb.stack().Submit(
            {.opcode = Opcode::kAppend, .slba = 0, .nlb = 1});
        EXPECT_TRUE(tc.completion.ok());
        done.push_back({tc.trace_id, tc.latency(), Opcode::kAppend});
      }
      for (int i = 0; i < 4; ++i) {
        auto tc = co_await tb.stack().Submit(
            {.opcode = Opcode::kRead, .slba = 0, .nlb = 1});
        EXPECT_TRUE(tc.completion.ok());
        done.push_back({tc.trace_id, tc.latency(), Opcode::kRead});
      }
    };
    auto t = body();
    tb.sim().Run();
    ASSERT_NO_FATAL_FAILURE(WriteRingAsJsonl(tb, path));
  }
  ASSERT_EQ(done.size(), 12u);

  LoadResult loaded = LoadJsonlFile(path);
  EXPECT_EQ(loaded.bad_lines, 0u);
  ASSERT_FALSE(loaded.records.empty());
  auto cmds = GroupByCommand(loaded.records);

  for (const Done& d : done) {
    const CommandTrace* found = nullptr;
    for (const CommandTrace& c : cmds) {
      if (c.cmd == d.trace_id) found = &c;
    }
    ASSERT_NE(found, nullptr) << "command " << d.trace_id << " not traced";
    // The tiling invariant: span durations sum to the e2e latency.
    EXPECT_EQ(found->total_ns, static_cast<std::uint64_t>(d.latency));
    EXPECT_EQ(found->op, nvme::ToString(d.op));
  }
  std::remove(path.c_str());
}

TEST(RoundTrip, FaultedRunTracesItsRetryHistory) {
  // One scheduled uncorrectable read against a retrying stack: the trace
  // must carry the host.retry span and the analysis must report exactly
  // one retried, recovered read — and no surfaced error.
  std::string path = TempTracePath("ztrace_faulted.jsonl");
  {
    fault::FaultSpec spec;
    spec.enabled = true;
    spec.scheduled.push_back(
        {.at = 0,
         .kind = fault::FaultKind::kReadUncorrectable,
         .die = fault::kAnySite,
         .block = fault::kAnySite});
    Testbed tb = TestbedBuilder()
                     .WithZnsProfile(zns::TinyProfile())
                     .WithFaults(spec)
                     .WithRetryPolicy({.max_attempts = 4,
                                       .backoff = sim::Microseconds(50)})
                     .WithTelemetry({.ring_capacity = kRingEvents})
                     .Build();
    auto body = [&]() -> sim::Task<> {
      auto w = co_await tb.stack().Submit(
          {.opcode = Opcode::kWrite, .slba = 0, .nlb = 4});
      EXPECT_TRUE(w.completion.ok());
      auto f = co_await tb.stack().Submit({.opcode = Opcode::kFlush});
      EXPECT_TRUE(f.completion.ok());
      auto r = co_await tb.stack().Submit(
          {.opcode = Opcode::kRead, .slba = 0, .nlb = 4});
      EXPECT_TRUE(r.completion.ok());
    };
    auto t = body();
    tb.sim().Run();
    ASSERT_NO_FATAL_FAILURE(WriteRingAsJsonl(tb, path));
  }

  LoadResult loaded = LoadJsonlFile(path);
  EXPECT_EQ(loaded.bad_lines, 0u);
  auto tails = AttributeTails(GroupByCommand(loaded.records));
  const TailAttribution* read = nullptr;
  for (const TailAttribution& t : tails) {
    if (t.op == "read") read = &t;
  }
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->retries, 1u);
  EXPECT_EQ(read->retried_commands, 1u);
  EXPECT_EQ(read->errored_commands, 0u);  // the retry recovered it
  std::remove(path.c_str());
}

TEST(RoundTrip, ChromeExportIsValidJson) {
  auto recs = SyntheticTwoCommands();
  auto cmds = GroupByCommand(recs);
  QdTimeline qd = ComputeQueueDepth(cmds);
  std::string json = ToChromeTrace(LoadResult{.records = recs}, &qd);
  auto v = JsonValue::Parse(json);
  ASSERT_TRUE(v.has_value()) << "chrome export is not valid JSON";
  const JsonValue* events = v->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // 4 spans + qd counter points + 9 thread_name metadata records.
  EXPECT_GE(events->array().size(), recs.size() + 9);
  std::size_t complete = 0, counters = 0, meta = 0;
  for (const JsonValue& e : events->array()) {
    std::string ph = e.StringOr("ph", "");
    if (ph == "X") {
      ++complete;
      ASSERT_NE(e.Find("dur"), nullptr);
    } else if (ph == "C") {
      ++counters;
    } else if (ph == "M") {
      ++meta;
    }
  }
  EXPECT_EQ(complete, 4u);
  EXPECT_EQ(counters, qd.points.size());
  EXPECT_EQ(meta, 9u);
}

}  // namespace
}  // namespace zstor::ztrace
