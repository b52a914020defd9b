// ztrace timeline-analysis tests: golden parsing of the DESIGN.md §10
// record types, interval-row derivation, throughput-dip attribution, and
// the timeline half of the Chrome export. (The Zmon* suites keep the name
// of the standalone timeline tool this code came from.)
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ztrace/analysis.h"
#include "ztrace/json_value.h"

namespace zstor::ztrace {
namespace {

LoadResult Load(const std::string& text) {
  std::istringstream in(text);
  return LoadJsonl(in);
}

/// Parses a Chrome export; fails the test if it is not valid JSON.
std::vector<JsonValue> ChromeEvents(const std::string& json) {
  std::optional<JsonValue> doc = JsonValue::Parse(json);
  EXPECT_TRUE(doc.has_value()) << "chrome export is not valid JSON";
  if (!doc.has_value()) return {};
  const JsonValue* events = doc->Find("traceEvents");
  EXPECT_TRUE(events != nullptr && events->is_array());
  return events == nullptr ? std::vector<JsonValue>{} : events->array();
}

// A two-interval run: full-speed first interval, then a GC-ridden one at
// a tenth the throughput. 100 ms sample cadence, 4 dies.
const char kGolden[] =
    R"({"type":"sample","t":100000000,"tb":"run","interval_ns":100000000,"counters":{"zns.bytes_written":104857600,"qp.completions":800},"gauges":{"qp.inflight":8},"hist":{"host.latency_ns":{"count":800,"mean_ns":1000,"p50_ns":900,"p95_ns":2000,"p99_ns":3000,"max_ns":4000}}}
{"type":"zone_state","t":120000000,"tb":"run","lane":0,"zone":5,"from":"Empty","to":"ImplicitlyOpened"}
{"type":"window","t":110000000,"tb":"run","dur":80000000,"lane":0,"kind":"gc.migrate","a":7,"b":64}
{"type":"die_busy","t":100000000,"tb":"run","dur":50000000,"lane":0,"die":0,"ops":100,"busy_ns":40000000}
{"type":"sample","t":200000000,"tb":"run","interval_ns":100000000,"counters":{"zns.bytes_written":10485760,"qp.completions":80},"gauges":{"qp.inflight":8},"hist":{}}
{"type":"sample","t":300000000,"tb":"run","interval_ns":100000000,"counters":{"zns.bytes_written":104857600,"qp.completions":800},"gauges":{"qp.inflight":8},"hist":{}}
{"type":"sample","t":400000000,"tb":"run","interval_ns":100000000,"counters":{"zns.bytes_written":104857600,"qp.completions":800},"gauges":{"qp.inflight":8},"hist":{}}
)";

TEST(ZmonLoad, ParsesAllRecordTypesGroupedByTestbed) {
  LoadResult r = Load(kGolden);
  EXPECT_EQ(r.bad_lines, 0u);
  EXPECT_TRUE(r.records.empty());
  ASSERT_EQ(r.tbs.size(), 1u);
  const TbTimeline& tl = r.tbs[0];
  EXPECT_EQ(tl.tb, "run");
  ASSERT_EQ(tl.samples.size(), 4u);
  EXPECT_EQ(tl.samples[0].t, 100000000u);
  EXPECT_EQ(tl.samples[0].counters.at("zns.bytes_written"), 104857600.0);
  EXPECT_EQ(tl.samples[0].gauges.at("qp.inflight"), 8.0);
  ASSERT_EQ(tl.samples[0].hists.count("host.latency_ns"), 1u);
  EXPECT_EQ(tl.samples[0].hists.at("host.latency_ns").count, 800u);
  ASSERT_EQ(tl.zone_events.size(), 1u);
  EXPECT_EQ(tl.zone_events[0].zone, 5u);
  EXPECT_EQ(tl.zone_events[0].to, "ImplicitlyOpened");
  ASSERT_EQ(tl.windows.size(), 1u);
  EXPECT_EQ(tl.windows[0].kind, "gc.migrate");
  ASSERT_EQ(tl.die_busy.size(), 1u);
  EXPECT_EQ(tl.die_busy[0].busy_ns, 40000000u);
}

TEST(ZmonLoad, SkipsForeignRecordsInsteadOfFailing) {
  // A mixed file: a trace span (no "type") is kept as a span; a future
  // record type and a garbage line are skipped without breaking loading.
  LoadResult r = Load(
      "{\"ts\":5,\"dur\":2,\"layer\":\"nand\",\"name\":\"die.service\"}\n"
      "{\"type\":\"hologram\",\"t\":1,\"tb\":\"x\"}\n"
      "not json at all\n"
      "{\"type\":\"zone_state\",\"t\":1,\"tb\":\"x\",\"lane\":0,"
      "\"zone\":1,\"from\":\"Empty\",\"to\":\"Full\"}\n");
  EXPECT_EQ(r.bad_lines, 2u);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].name, "die.service");
  // Only the real zone_state record creates a testbed group.
  ASSERT_EQ(r.tbs.size(), 1u);
  EXPECT_EQ(r.tbs[0].zone_events.size(), 1u);
}

TEST(ZmonIntervals, DerivesThroughputQdAndOverlaps) {
  LoadResult r = Load(kGolden);
  ASSERT_EQ(r.tbs.size(), 1u);
  std::vector<IntervalRow> rows = BuildIntervals(r.tbs[0], /*num_dies=*/4);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_NEAR(rows[0].write_mibps, 1000.0, 1e-6);  // 100 MiB in 0.1 s
  EXPECT_NEAR(rows[1].write_mibps, 100.0, 1e-6);
  EXPECT_NEAR(rows[0].iops, 8000.0, 1e-6);
  EXPECT_EQ(rows[0].qd, 8.0);
  EXPECT_EQ(rows[0].zone_transitions, 0u);  // event at t=120ms: interval 2
  EXPECT_EQ(rows[1].zone_transitions, 1u);
  // gc.migrate [110ms, 190ms) lies fully inside the second interval.
  EXPECT_EQ(rows[0].overlap("gc.migrate"), 0u);
  EXPECT_EQ(rows[1].overlap("gc.migrate"), 80000000u);
  // Die busy [100ms, 150ms): 40 ms of service across 4 dies lands in the
  // second interval.
  EXPECT_NEAR(rows[0].die_util, 0.0, 1e-9);
  EXPECT_NEAR(rows[1].die_util, 0.1, 1e-9);
}

TEST(ZmonDips, AttributesTheDipToTheOverlappingGcWindow) {
  LoadResult r = Load(kGolden);
  std::vector<IntervalRow> rows = BuildIntervals(r.tbs[0], 4);
  std::vector<Dip> dips = FindDips(rows, /*threshold_frac=*/0.5);
  ASSERT_EQ(dips.size(), 1u);
  EXPECT_EQ(dips[0].row.begin, 100000000u);
  EXPECT_NEAR(dips[0].throughput_mibps, 100.0, 1e-6);
  EXPECT_EQ(dips[0].dominant(), "gc.migrate");
}

TEST(ZmonDips, ShortRunsAndIdleTailsAreNotDips) {
  // Two samples only: not enough intervals to establish a median.
  LoadResult two = Load(
      R"({"type":"sample","t":100,"tb":"a","interval_ns":100,"counters":{"zns.bytes_written":1000},"gauges":{},"hist":{}}
{"type":"sample","t":200,"tb":"a","interval_ns":100,"counters":{"zns.bytes_written":10},"gauges":{},"hist":{}}
)");
  EXPECT_TRUE(FindDips(BuildIntervals(two.tbs[0])).empty());
}

TEST(ZmonChrome, ExportCarriesCounterTracksAndWindows) {
  LoadResult r = Load(kGolden);
  std::size_t throughput = 0, qd = 0, util = 0, windows = 0;
  for (const JsonValue& e : ChromeEvents(ToChromeTrace(r))) {
    const std::string name = e.StringOr("name", "");
    const std::string ph = e.StringOr("ph", "");
    if (ph == "C") {
      EXPECT_EQ(e.NumberOr("pid", 0), 2.0);  // the testbed's own pid
      throughput += name == "throughput_MiBps";
      qd += name == "queue_depth";
      util += name == "die_util";
    } else if (ph == "X") {
      // Chrome's complete event with microsecond times.
      EXPECT_EQ(name, "gc.migrate");
      EXPECT_EQ(e.NumberOr("ts", 0), 110000.0);
      EXPECT_EQ(e.NumberOr("dur", 0), 80000.0);
      ++windows;
    }
  }
  // One counter event per track per interval.
  EXPECT_EQ(throughput, 4u);
  EXPECT_EQ(qd, 4u);
  EXPECT_EQ(util, 4u);
  EXPECT_EQ(windows, 1u);
}

TEST(ChromeExport, HostileWindowKindsRoundTrip) {
  // Kinds are free-form strings: quotes and backslashes must be escaped
  // and long kinds kept whole, on the span and on its track name.
  const std::string nasty = "a\"b\\c";
  const std::string long_kind(300, 'k');
  LoadResult r;
  r.tbs.push_back(TbTimeline{.tb = "t\"b"});
  r.tbs[0].windows.push_back({.t = 1000, .dur = 10, .kind = nasty});
  r.tbs[0].windows.push_back({.t = 2000, .dur = 10, .kind = long_kind});
  std::vector<std::string> spans, tracks;
  std::string process;
  for (const JsonValue& e : ChromeEvents(ToChromeTrace(r))) {
    const std::string name = e.StringOr("name", "");
    const JsonValue* args = e.Find("args");
    if (name == "thread_name") {
      tracks.push_back(args->StringOr("name", ""));
    } else if (name == "process_name") {
      process = args->StringOr("name", "");
    } else if (e.StringOr("ph", "") == "X") {
      spans.push_back(name);
    }
  }
  EXPECT_EQ(spans, (std::vector<std::string>{nasty, long_kind}));
  EXPECT_EQ(tracks, (std::vector<std::string>{nasty, long_kind}));
  EXPECT_EQ(process, "tb t\"b");
}

TEST(ChromeExport, OneDocumentCarriesSpansAndEveryTestbed) {
  LoadResult r = Load(
      std::string(kGolden) +
      "{\"ts\":0,\"dur\":10,\"cmd\":1,\"layer\":\"host\","
      "\"name\":\"host.submit\"}\n"
      "{\"type\":\"window\",\"t\":5,\"tb\":\"other\",\"dur\":1,"
      "\"lane\":0,\"kind\":\"zone.reset\"}\n");
  ASSERT_EQ(r.tbs.size(), 2u);
  std::map<double, std::string> process_names;
  std::size_t span_events = 0;
  for (const JsonValue& e : ChromeEvents(ToChromeTrace(r))) {
    if (e.StringOr("name", "") == "process_name") {
      process_names[e.NumberOr("pid", 0)] =
          e.Find("args")->StringOr("name", "");
    }
    if (e.StringOr("cat", "") == "host") {
      EXPECT_EQ(e.NumberOr("pid", 0), 1.0);
      ++span_events;
    }
  }
  EXPECT_EQ(span_events, 1u);
  EXPECT_EQ(process_names,
            (std::map<double, std::string>{{2, "tb run"}, {3, "tb other"}}));
}

}  // namespace
}  // namespace zstor::ztrace
