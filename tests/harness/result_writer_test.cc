// ResultWriter schema tests: the --json document must parse, follow the
// DESIGN.md §7 shape, render absent latency data as null (never zero),
// and survive hostile strings — validated with the same parser ztrace
// uses, so producer and consumer agree by construction.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "harness/result_writer.h"
#include "sim/stats.h"
#include "ztrace/json_value.h"

namespace zstor::harness {
namespace {

using ztrace::JsonValue;

TEST(ResultWriter, EmitsTheDocumentedSchema) {
  ResultWriter w;
  w.set_bench("my_bench");
  w.Config("device", "zn540");
  w.Config("runtime_s", 2.0);
  w.Series("lat", "us").Add(4096, 13.2).AddLabeled("8KiB", 8192, 14.0);
  w.SetMeta("wall_ms", 12.5);

  auto v = JsonValue::Parse(w.ToJson());
  ASSERT_TRUE(v.has_value()) << w.ToJson();
  EXPECT_EQ(v->StringOr("bench", ""), "my_bench");
  EXPECT_DOUBLE_EQ(v->NumberOr("schema_version", 0), 3.0);
  ASSERT_NE(v->Find("meta"), nullptr);
  EXPECT_DOUBLE_EQ(v->Find("meta")->NumberOr("wall_ms", 0), 12.5);

  const JsonValue* config = v->Find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_EQ(config->StringOr("device", ""), "zn540");
  EXPECT_DOUBLE_EQ(config->NumberOr("runtime_s", 0), 2.0);

  const JsonValue* series = v->Find("series");
  ASSERT_NE(series, nullptr);
  ASSERT_TRUE(series->is_array());
  ASSERT_EQ(series->array().size(), 1u);
  const JsonValue& s = series->array()[0];
  EXPECT_EQ(s.StringOr("name", ""), "lat");
  EXPECT_EQ(s.StringOr("unit", ""), "us");
  const JsonValue* points = s.Find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->array().size(), 2u);
  EXPECT_DOUBLE_EQ(points->array()[0].NumberOr("x", 0), 4096.0);
  EXPECT_DOUBLE_EQ(points->array()[0].NumberOr("value", 0), 13.2);
  EXPECT_EQ(points->array()[1].StringOr("label", ""), "8KiB");
}

TEST(ResultWriter, AbsentLatencyIsNullNotZero) {
  ResultWriter w;
  w.Series("s", "us").Add(1, 2.0);
  auto v = JsonValue::Parse(w.ToJson());
  ASSERT_TRUE(v.has_value());
  const JsonValue& p =
      v->Find("series")->array()[0].Find("points")->array()[0];
  const JsonValue* mean = p.Find("mean_ns");
  ASSERT_NE(mean, nullptr);
  EXPECT_TRUE(mean->is_null());
  EXPECT_TRUE(p.Find("p99_ns")->is_null());
}

TEST(ResultWriter, HistogramFillsThePercentileFields) {
  sim::LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) h.Record(i * 1000);
  ResultWriter w;
  w.Series("s", "us").Add(1, 2.0, h);
  auto v = JsonValue::Parse(w.ToJson());
  ASSERT_TRUE(v.has_value());
  const JsonValue& p =
      v->Find("series")->array()[0].Find("points")->array()[0];
  EXPECT_DOUBLE_EQ(p.NumberOr("samples", 0), 100.0);
  EXPECT_GT(p.NumberOr("mean_ns", 0), 0.0);
  EXPECT_GE(p.NumberOr("p99_ns", 0), p.NumberOr("p50_ns", 0));
  // An empty histogram must leave the fields null.
  sim::LatencyHistogram empty;
  w.Series("s").Add(2, 3.0, empty);
  v = JsonValue::Parse(w.ToJson());
  const JsonValue& p2 =
      v->Find("series")->array()[0].Find("points")->array()[1];
  EXPECT_TRUE(p2.Find("mean_ns")->is_null());
}

TEST(ResultWriter, PartsAreEmittedOnlyWhenAttached) {
  ResultWriter w;
  w.Series("kiops", "KIOPS")
      .Add(1, 130.0)
      .Add(2, 260.0)
      .WithParts({130.0, 130.0});
  auto v = JsonValue::Parse(w.ToJson());
  ASSERT_TRUE(v.has_value()) << w.ToJson();
  const auto& pts = v->Find("series")->array()[0].Find("points")->array();
  ASSERT_EQ(pts.size(), 2u);
  // The plain point has no "parts" key at all (v1 consumers unaffected).
  EXPECT_EQ(pts[0].Find("parts"), nullptr);
  const JsonValue* parts = pts[1].Find("parts");
  ASSERT_NE(parts, nullptr);
  ASSERT_TRUE(parts->is_array());
  ASSERT_EQ(parts->array().size(), 2u);
  EXPECT_DOUBLE_EQ(parts->array()[0].number(), 130.0);
  EXPECT_DOUBLE_EQ(parts->array()[1].number(), 130.0);
}

TEST(ResultWriter, WaIsEmittedOnlyWhenAttached) {
  ResultWriter w;
  w.Series("wa", "x").Add(1, 3.0).Add(2, 4.0).WithWa(3.4);
  auto v = JsonValue::Parse(w.ToJson());
  ASSERT_TRUE(v.has_value()) << w.ToJson();
  const auto& pts = v->Find("series")->array()[0].Find("points")->array();
  ASSERT_EQ(pts.size(), 2u);
  // The plain point has no "wa" key at all (v2 consumers unaffected).
  EXPECT_EQ(pts[0].Find("wa"), nullptr);
  const JsonValue* wa = pts[1].Find("wa");
  ASSERT_NE(wa, nullptr);
  EXPECT_DOUBLE_EQ(wa->number(), 3.4);
}

TEST(ResultWriter, SeriesIsGetOrCreateAndConfigLastWriteWins) {
  ResultWriter w;
  ResultSeries& a = w.Series("s", "us");
  ResultSeries& b = w.Series("s");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.unit(), "us");
  w.Config("k", 1.0);
  w.Config("k", "two");
  auto v = JsonValue::Parse(w.ToJson());
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->Find("config")->StringOr("k", ""), "two");
  // Only one "k" key survives.
  EXPECT_EQ(v->Find("config")->object().size(), 1u);
}

TEST(ResultWriter, EscapesHostileStrings) {
  ResultWriter w;
  w.set_bench("bench\"with\\quotes\nand newlines");
  w.Config("key \"x\"", "va\tlue");
  w.Series("ser\"ies", "u\\nit").AddLabeled("lab\nel", 1, 2.0);
  auto v = JsonValue::Parse(w.ToJson());
  ASSERT_TRUE(v.has_value()) << w.ToJson();
  EXPECT_EQ(v->StringOr("bench", ""), "bench\"with\\quotes\nand newlines");
  EXPECT_EQ(v->Find("config")->StringOr("key \"x\"", ""), "va\tlue");
  const JsonValue& s = v->Find("series")->array()[0];
  EXPECT_EQ(s.StringOr("name", ""), "ser\"ies");
  EXPECT_EQ(s.Find("points")->array()[0].StringOr("label", ""), "lab\nel");
}

TEST(ResultWriter, EmptyDocumentIsStillValid) {
  ResultWriter w;
  w.set_bench("noop");
  EXPECT_TRUE(w.empty());
  auto v = JsonValue::Parse(w.ToJson());
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->Find("series")->is_array());
  EXPECT_EQ(v->Find("series")->array().size(), 0u);
}

}  // namespace
}  // namespace zstor::harness
