// The per-testbed telemetry bundle: one Tracer plus one MetricsRegistry,
// handed (non-owning) to every layer via AttachTelemetry(). A null
// Telemetry* anywhere means "disabled" and costs one branch per would-be
// emit — see DESIGN.md §7 for the architecture and overhead argument.
#pragma once

#include <string>
#include <utility>

#include "telemetry/metrics.h"
#include "telemetry/timeline.h"
#include "telemetry/trace.h"

namespace zstor::telemetry {

class Telemetry {
 public:
  Telemetry() = default;
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  Tracer& tracer() { return tracer_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Points the tracer at `sink` (null disables tracing). The bundle
  /// owns no output: harness::BenchEnv owns the --trace file, a Testbed
  /// owns its ring and per-lane shards.
  void SetSink(TraceSink* sink) { tracer_.SetSink(sink); }

  /// The timeline stream for state-change records (zone lifecycle, die
  /// busy windows, GC/reset/fault windows); null means "no timeline" and
  /// costs emit sites one branch, like a disabled tracer.
  TimelineWriter* timeline() { return timeline_; }
  /// The testbed label stamped into this bundle's timeline records.
  const std::string& timeline_label() const { return timeline_label_; }
  void set_timeline_label(std::string label) {
    timeline_label_ = std::move(label);
  }
  /// Points at a timeline writer owned elsewhere (null = no timeline),
  /// under the same ownership split as SetSink.
  void SetTimeline(TimelineWriter* writer) { timeline_ = writer; }

  void Flush() {
    if (tracer_.sink() != nullptr) tracer_.sink()->Flush();
    if (timeline_ != nullptr) timeline_->Flush();
  }

 private:
  Tracer tracer_;
  MetricsRegistry metrics_;
  TimelineWriter* timeline_ = nullptr;
  std::string timeline_label_;
};

}  // namespace zstor::telemetry
