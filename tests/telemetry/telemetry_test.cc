#include "telemetry/telemetry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace zstor::telemetry {
namespace {

TraceEvent Ev(sim::Time begin, sim::Time end, std::uint64_t cmd,
              const char* name) {
  return {begin, end, cmd, Layer::kFcp, name, 0, 0};
}

TEST(RingBufferSink, KeepsEventsInEmissionOrder) {
  RingBufferSink ring(8);
  ring.OnEvent(Ev(0, 10, 1, "a"));
  ring.OnEvent(Ev(10, 20, 1, "b"));
  ring.OnEvent(Ev(5, 25, 2, "c"));
  auto events = ring.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "a");
  EXPECT_STREQ(events[1].name, "b");
  EXPECT_STREQ(events[2].name, "c");
  EXPECT_EQ(ring.total_events(), 3u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(RingBufferSink, WrapsAroundKeepingTheNewest) {
  RingBufferSink ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) ring.OnEvent(Ev(i, i + 1, i, "e"));
  auto events = ring.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first among the surviving (newest) four: cmds 6, 7, 8, 9.
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].cmd, 6 + i);
  EXPECT_EQ(ring.total_events(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
}

TEST(Tracer, DisabledTracerDropsEverything) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  // No sink: these must be no-ops, not crashes.
  t.Span(0, 10, 1, Layer::kHost, "host.submit");
  t.Instant(5, 1, Layer::kZone, "zone.transition");
  t.Emit(Ev(0, 1, 1, "x"));
}

TEST(Tracer, EmitsToAttachedSinkAndStopsWhenDetached) {
  Tracer t;
  RingBufferSink ring(8);
  t.SetSink(&ring);
  EXPECT_TRUE(t.enabled());
  t.Span(0, 10, 7, Layer::kNand, "die.read", 3, 4096);
  ASSERT_EQ(ring.Events().size(), 1u);
  EXPECT_EQ(ring.Events()[0].cmd, 7u);
  EXPECT_EQ(ring.Events()[0].a, 3);
  EXPECT_EQ(ring.Events()[0].b, 4096);
  t.SetSink(nullptr);
  t.Span(10, 20, 7, Layer::kNand, "die.read");
  EXPECT_EQ(ring.Events().size(), 1u);
}

TEST(Tracer, NextIdIsUniqueAndNonZero) {
  // Two lanes of one testbed epoch, and the same lane of the next epoch.
  Tracer t;
  Tracer other_lane;
  Tracer next_epoch;
  t.SetIdNamespace(7, 0);
  other_lane.SetIdNamespace(7, 1);
  next_epoch.SetIdNamespace(8, 0);
  std::uint64_t a = t.NextId();
  std::uint64_t b = t.NextId();
  std::uint64_t c = other_lane.NextId();
  std::uint64_t d = next_epoch.NextId();
  for (std::uint64_t id : {a, b, c, d}) {
    EXPECT_NE(id, 0u);
    EXPECT_LT(id, 1ull << 53);  // exact through a JSON double
  }
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
  EXPECT_NE(a, d);
  EXPECT_NE(b, d);
  // A tracer that was never namespaced still hands out ids from 1.
  EXPECT_EQ(Tracer().NextId(), 1u);
}

TEST(JsonlFileSink, WritesOneJsonObjectPerEvent) {
  std::string path = testing::TempDir() + "/trace_test.jsonl";
  {
    JsonlFileSink sink(path);
    ASSERT_TRUE(sink.ok());
    sink.OnEvent(Ev(100, 250, 42, "fcp.service"));
    sink.OnEvent(Ev(250, 250, 42, "qp.cqe"));
    EXPECT_EQ(sink.written(), 2u);
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[512];
  ASSERT_NE(std::fgets(line, sizeof line, f), nullptr);
  std::string first = line;
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(first.find("\"ts\":100"), std::string::npos) << first;
  EXPECT_NE(first.find("\"dur\":150"), std::string::npos) << first;
  EXPECT_NE(first.find("\"cmd\":42"), std::string::npos) << first;
  EXPECT_NE(first.find("\"name\":\"fcp.service\""), std::string::npos)
      << first;
}

TEST(MetricsRegistry, SameNameReturnsTheSameInstrument) {
  MetricsRegistry m;
  Counter& c1 = m.GetCounter("zns.writes");
  c1.Add(3);
  Counter& c2 = m.GetCounter("zns.writes");
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(c2.value(), 3u);
  Gauge& g1 = m.GetGauge("conv.wa");
  g1.Set(1.5);
  EXPECT_EQ(&g1, &m.GetGauge("conv.wa"));
}

TEST(MetricsRegistryDeathTest, KindCollisionAborts) {
  MetricsRegistry m;
  m.GetCounter("x");
  EXPECT_DEATH(m.GetGauge("x"), "");
  EXPECT_DEATH(m.GetHistogram("x"), "");
}

TEST(MetricsRegistry, SnapshotFreezesSortedValues) {
  MetricsRegistry m;
  m.GetCounter("b.count").Add(7);
  m.GetGauge("a.level").Set(0.25);
  m.GetHistogram("c.latency_ns").Record(sim::Microseconds(10));
  Snapshot snap = m.TakeSnapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(snap.metrics[0].name, "a.level");
  EXPECT_EQ(snap.metrics[1].name, "b.count");
  EXPECT_EQ(snap.metrics[2].name, "c.latency_ns");

  const auto* c = snap.Find("b.count");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->kind, "counter");
  EXPECT_DOUBLE_EQ(c->value, 7.0);

  const auto* h = snap.Find("c.latency_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->kind, "histogram");
  EXPECT_DOUBLE_EQ(h->value, 1.0);  // count
  EXPECT_NEAR(h->mean, 10'000.0, 1.0);

  EXPECT_EQ(snap.Find("missing"), nullptr);

  std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"b.count\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"a.level\":0.25"), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":1"), std::string::npos) << json;
}

TEST(Telemetry, BundlePointsAtOutputsAndFlushes) {
  RingBufferSink ring(4);
  std::string cap;
  TimelineWriter writer(&cap);
  {
    Telemetry t;
    EXPECT_FALSE(t.tracer().enabled());
    EXPECT_EQ(t.timeline(), nullptr);
    t.SetSink(&ring);
    t.SetTimeline(&writer);
    EXPECT_TRUE(t.tracer().enabled());
    EXPECT_EQ(t.timeline(), &writer);
    t.tracer().Span(0, 5, 1, Layer::kHost, "host.submit");
    EXPECT_EQ(ring.total_events(), 1u);
    t.timeline()->Window(0, 5, "tb", 0, "zone.reset");
    t.Flush();  // ring and capture flushes are no-ops; must not crash
    t.SetSink(nullptr);
    t.SetTimeline(nullptr);
    EXPECT_FALSE(t.tracer().enabled());
    EXPECT_EQ(t.timeline(), nullptr);
    t.tracer().Span(5, 9, 1, Layer::kHost, "host.submit");
    t.Flush();
  }
  // The bundle owned neither: both outlive it with what they received.
  EXPECT_EQ(ring.total_events(), 1u);
  EXPECT_EQ(writer.written(), 1u);
  EXPECT_NE(cap.find("\"kind\":\"zone.reset\""), std::string::npos) << cap;
}

}  // namespace
}  // namespace zstor::telemetry
