// Named metrics shared by every layer: monotonic counters, point-in-time
// gauges, and latency histograms, all living in one MetricsRegistry so a
// run can be summarized as a single JSON snapshot. Layers either register
// live instruments (hot-path increments) or batch-export their internal
// counter structs at snapshot time via a `Describe(MetricsRegistry&)`
// method.
//
// Counter structs made of plain uint64 fields describe themselves once,
// in a field table: `static constexpr CounterField<T> kFields[]` pairs
// each member with its full metric name ("zns.reads"). SetFields()
// exports a struct through its table, AddFields() sums two structs field
// by field (the cross-device totals of a striped testbed), and
// ListsEveryFieldOnce() is the compile-time guard placed next to every
// table. Derived gauges (write amplification, merged fraction) stay
// hand-written after the table export. Structs using the protocol:
// zns::ZnsCounters, ftl::ConvCounters, nand::FlashCounters,
// fault::FaultCounters, hostif::ResilienceStats, hostif::SchedulerStats,
// hostif::LaneStats (whose names are per-lane suffixes), zkv::KvStats
// and nvme::SmartLog (whose names are its JSON keys).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/stats.h"

namespace zstor::telemetry {

/// A monotonically increasing count (events, bytes, retries...).
class Counter {
 public:
  void Add(std::uint64_t delta = 1) { value_ += delta; }
  /// Overwrites the value — for batch export from an external tally.
  void Set(std::uint64_t value) { value_ = value; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// A point-in-time level (occupancy, fraction, amplification factor...).
class Gauge {
 public:
  void Set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// A name -> instrument directory. Instruments are created on first use
/// and live as long as the registry; re-requesting a name returns the
/// same instrument. Requesting an existing name as a different kind is a
/// programming error and aborts.
class MetricsRegistry {
 public:
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  sim::LatencyHistogram& GetHistogram(const std::string& name);

  /// Folds another registry into this one: counters add, gauges take the
  /// other's value (last-writer-wins, matching Describe semantics),
  /// histograms merge. The parallel Testbed gives each device lane its
  /// own registry and folds them into the coordinator's at Finish, in
  /// lane order, so the merged snapshot is thread-count independent.
  void MergeFrom(const MetricsRegistry& other);

  struct Snapshot;
  Snapshot TakeSnapshot() const;
  /// Like TakeSnapshot(), but histogram entries carry *interval* stats —
  /// the samples recorded since the previous TakeIntervalSnapshot() —
  /// via sim::LatencyHistogram::TakeInterval(). Counters and gauges are
  /// reported cumulatively as usual (the sampler diffs counters itself).
  /// Cumulative histogram stats, and thus --metrics output, are
  /// undisturbed.
  Snapshot TakeIntervalSnapshot();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<sim::LatencyHistogram> histogram;
  };
  Entry& Lookup(const std::string& name, Kind kind);

  std::map<std::string, Entry> entries_;  // ordered => sorted snapshots
};

/// A frozen, exportable copy of a registry's state.
struct MetricsRegistry::Snapshot {
  struct Metric {
    std::string name;
    std::string kind;     // "counter" | "gauge" | "histogram"
    double value = 0.0;   // counter/gauge value, histogram count
    // Histogram-only summary (nanoseconds).
    double mean = 0.0, p50 = 0.0, p95 = 0.0, p99 = 0.0, max = 0.0;
  };
  std::vector<Metric> metrics;  // sorted by name

  const Metric* Find(const std::string& name) const;
  /// One JSON object: {"metric.name": ..., ...}; histograms expand into
  /// an object with count/mean/percentile fields.
  std::string ToJson() const;
};

using Snapshot = MetricsRegistry::Snapshot;

/// One row of a counters struct's field table.
template <typename T>
struct CounterField {
  const char* name;  // full metric name, e.g. "zns.reads"
  std::uint64_t T::*member;
};

/// Sets every field of `s` into `m` as a counter under its table name.
template <typename T>
void SetFields(const T& s, MetricsRegistry& m) {
  for (const CounterField<T>& f : T::kFields) {
    m.GetCounter(f.name).Set(s.*f.member);
  }
}

/// Adds every field of `b` into `a`.
template <typename T>
void AddFields(T& a, const T& b) {
  for (const CounterField<T>& f : T::kFields) a.*f.member += b.*f.member;
}

/// True when T::kFields lists each of T's uint64 members exactly once:
/// no member repeats, and the rows account for all of sizeof(T) except
/// `other_bytes` (members deliberately left out of the table).
template <typename T>
constexpr bool ListsEveryFieldOnce(std::size_t other_bytes = 0) {
  const auto& f = T::kFields;
  if (std::size(f) * sizeof(std::uint64_t) + other_bytes != sizeof(T)) {
    return false;
  }
  for (std::size_t i = 0; i < std::size(f); ++i) {
    for (std::size_t j = i + 1; j < std::size(f); ++j) {
      if (f[i].member == f[j].member) return false;
    }
  }
  return true;
}

}  // namespace zstor::telemetry
