// Process-wide telemetry plumbing for bench binaries: every bench calls
// InitBench(argc, argv) first thing in main(), which strips the shared
// flags
//
//   --trace=FILE     append every testbed's trace events to FILE (JSONL,
//                    one object per event; schema in DESIGN.md §7)
//   --metrics=FILE   write a JSON array of labeled metrics snapshots,
//                    one element per testbed, at process exit
//   --json=FILE      write the bench's machine-readable results (the
//                    harness::ResultWriter document; schema in
//                    DESIGN.md §7) at process exit
//   --logpages=FILE  write a JSON array of labeled per-testbed NVMe-style
//                    log pages (SMART / Zone Report / Die Utilization) at
//                    process exit
//   --faults=SPEC    inject media faults into every testbed the bench
//                    builds (grammar in fault/fault_plan.h; e.g.
//                    "seed=7,read_uc=1e-4,prog=1e-3")
//   --timeline=FILE  append every testbed's timeline records to FILE
//                    (JSONL: periodic metric samples, zone state
//                    changes, die-busy and GC/reset/fault windows;
//                    schema in DESIGN.md §10 — analyze with tools/ztrace)
//   --sample-interval=DUR
//                    virtual-time cadence of the timeline's periodic
//                    samples (suffix ns/us/ms/s; a bare number means
//                    milliseconds; default 100ms)
//   --jobs=N         run independent sweep points on N worker threads
//                    (0 = one per hardware thread; default 1). Output is
//                    byte-identical for every N — see harness/parallel.h.
//                    Ignored (forced to 1, with a warning) when a
//                    telemetry flag is active, because testbeds then
//                    funnel snapshots into this process-wide singleton.
//   --sim-threads=N  run each multi-device ZNS testbed's simulation on
//                    the parallel per-device-lane engine with N worker
//                    threads (sim/parallel_sim.h; default 0 = classic
//                    serial engine). Output is byte-identical for every
//                    N >= 1 because N=1 executes the same bounded-window
//                    schedule serially. Composes with --jobs: sweep
//                    points fan out across jobs, devices across sim
//                    threads within each point.
//
// and leaves the rest of argv untouched for the bench's own parsing.
// Testbeds built without an explicit TelemetryConfig pick these up
// automatically (see testbed.h), so `bench_fig2_latency --trace=t.jsonl`
// traces every experiment the bench runs with zero per-bench code.
#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_plan.h"
#include "harness/result_writer.h"
#include "telemetry/telemetry.h"

namespace zstor::harness {

/// Parses and removes the shared flags from argv; registers an atexit
/// hook that flushes the shared sink and writes the output files. Safe to
/// call once per process (subsequent calls only re-parse flags).
void InitBench(int& argc, char** argv);

/// Flushes the shared trace sink and writes the output files. Idempotent;
/// runs automatically at exit after InitBench().
void FinishBench();

/// The singleton holding what the flags configured.
class BenchEnv {
 public:
  static BenchEnv& Get();

  /// True when any snapshot-producing flag was given: freshly built
  /// testbeds should enable telemetry and report here. (--json alone does
  /// not force telemetry: results are recorded by the bench itself.)
  bool telemetry_requested() const {
    return !trace_path_.empty() || !metrics_path_.empty() ||
           !logpages_path_.empty() || !timeline_path_.empty();
  }
  /// True when --timeline was given: freshly built testbeds stream
  /// timeline records into the shared writer and run a MetricSampler.
  bool timeline_requested() const { return !timeline_path_.empty(); }
  /// The --sample-interval value (virtual ns; default 100 ms).
  sim::Time sample_interval() const { return sample_interval_; }
  /// The shared timeline writer (opened lazily); null when --timeline is
  /// absent.
  telemetry::TimelineWriter* shared_timeline();
  /// True when --logpages was given: testbeds dump their device log pages
  /// here on Finish().
  bool logpages_requested() const { return !logpages_path_.empty(); }
  /// True when --faults was given: freshly built testbeds inject this
  /// fault spec (builder-level WithFaults overrides it per testbed).
  bool faults_requested() const { return fault_spec_.enabled; }
  const fault::FaultSpec& fault_spec() const { return fault_spec_; }
  /// The raw --jobs value (0 = auto-detect). Use harness::SweepJobs()
  /// (parallel.h), which resolves auto-detect and the telemetry clamp.
  int jobs_requested() const { return jobs_; }
  /// The --sim-threads value: worker threads for the parallel
  /// discrete-event engine inside each multi-device testbed (testbed.h).
  /// 0 (default) = classic single-simulator engine; N >= 1 = parallel
  /// engine with N workers (N=1 runs the same window schedule serially,
  /// so output is byte-identical for every N >= 1). Orthogonal to
  /// --jobs, which parallelizes across independent sweep points.
  int sim_threads_requested() const { return sim_threads_; }
  /// The shared JSONL sink (opened lazily); null when --trace is absent.
  telemetry::TraceSink* shared_sink();

  /// The process-wide result document (also via harness::Results()).
  ResultWriter& results() { return results_; }

  /// Collects one testbed's frozen snapshot for the metrics file.
  void AddSnapshot(std::string label, telemetry::Snapshot snap);
  /// Collects one testbed's log-pages JSON object for the logpages file.
  void AddLogPages(std::string label, std::string logpages_json);

  /// A default label for the next unlabeled testbed ("testbed-N").
  std::string NextLabel();

  /// Disambiguates repeated testbed labels for the shared timeline: a
  /// bench that rebuilds same-labeled testbeds across sweep points (each
  /// restarting virtual time at 0) would otherwise merge them into one
  /// ambiguous record group. First use returns `base`, repeats get
  /// "base#2", "base#3", ...
  std::string UniqueTimelineLabel(const std::string& base);

  void Finish();

 private:
  friend void InitBench(int& argc, char** argv);

  std::string trace_path_;
  std::string metrics_path_;
  std::string json_path_;
  std::string logpages_path_;
  std::string timeline_path_;
  sim::Time sample_interval_ = sim::Milliseconds(100);
  fault::FaultSpec fault_spec_;  // enabled=false until --faults parses
  int jobs_ = 1;
  int sim_threads_ = 0;
  std::chrono::steady_clock::time_point wall_start_{};
  bool wall_start_set_ = false;
  std::unique_ptr<telemetry::JsonlFileSink> sink_;
  std::unique_ptr<telemetry::TimelineWriter> timeline_;
  std::vector<std::pair<std::string, telemetry::Snapshot>> snapshots_;
  std::vector<std::pair<std::string, std::string>> logpages_;
  ResultWriter results_;
  std::map<std::string, int> timeline_label_uses_;
  int label_seq_ = 0;
  bool finished_ = false;
};

}  // namespace zstor::harness
