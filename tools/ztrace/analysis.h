// Analysis behind the ztrace CLI: loads the JSONL the simulator emits —
// span traces (--trace, telemetry::JsonlFileSink; DESIGN.md §7) and
// telemetry timelines (--timeline, telemetry::TimelineWriter; §10), alone
// or mixed in one file — and answers the questions the paper's figures
// keep asking —
//
//   * per-stage latency breakdown: where does command time go between
//     submit, queueing, FCP, post/DMA, write buffer, NAND, GC?
//   * tail attribution: for each op class, which stage dominates the
//     commands at and beyond p95/p99?
//   * queue-depth timeline: how many commands were in flight over time?
//   * per-interval device activity: throughput, IOPS, QD, die
//     utilization and zone transitions per timeline sample interval;
//   * throughput-dip attribution: intervals below a fraction of the run's
//     median, annotated with the GC / zone-reset / media-error windows
//     that overlap them;
//   * Chrome trace-event export: the whole run — spans, queue depth and
//     every testbed's counter tracks and background windows — in one
//     document for Perfetto / chrome://tracing.
//
// Everything here is plain post-processing over parsed record vectors,
// so tests drive it directly against in-memory traces.
#pragma once

#include <cstdint>
#include <istream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace zstor::ztrace {

/// One JSONL trace line. Mirrors telemetry::TraceEvent after export:
/// ts/dur are virtual nanoseconds; cmd correlates a command's spans
/// across layers (0 = not command-scoped, e.g. die service, GC).
struct TraceRecord {
  std::uint64_t ts = 0;
  std::uint64_t dur = 0;
  std::uint64_t cmd = 0;
  std::string layer;
  std::string name;
  std::int64_t a = 0;
  std::int64_t b = 0;

  std::uint64_t end() const { return ts + dur; }
};

// ---- timeline records ---------------------------------------------------

/// One "sample" record: counter deltas, gauge levels and interval
/// histogram stats for the sample interval ending at `t`.
struct Sample {
  std::uint64_t t = 0;
  std::uint64_t interval_ns = 0;
  std::map<std::string, double> counters;  // deltas over the interval
  std::map<std::string, double> gauges;
  struct Hist {
    std::uint64_t count = 0;
    double mean_ns = 0, p50_ns = 0, p95_ns = 0, p99_ns = 0, max_ns = 0;
  };
  std::map<std::string, Hist> hists;

  std::uint64_t begin() const { return t - interval_ns; }
};

/// One "zone_state" record: a zone's lifecycle transition.
struct ZoneEvent {
  std::uint64_t t = 0;
  std::uint32_t lane = 0;
  std::uint32_t zone = 0;
  std::string from;
  std::string to;
};

/// One "die_busy" record: a coalesced window in which a die serviced
/// back-to-back media ops. busy_ns is the exact sum of service time (the
/// window itself may span short idle gaps the writer merged).
struct DieBusy {
  std::uint64_t t = 0;
  std::uint64_t dur = 0;
  std::uint32_t lane = 0;
  std::uint32_t die = 0;
  std::uint64_t ops = 0;
  std::uint64_t busy_ns = 0;

  std::uint64_t end() const { return t + dur; }
};

/// One "window" record: a named background activity (gc.migrate,
/// gc.erase, zone.reset, media.error, recovery.*, kv.*).
struct Window {
  std::uint64_t t = 0;
  std::uint64_t dur = 0;
  std::uint32_t lane = 0;
  std::string kind;
  std::int64_t a = 0;
  std::int64_t b = 0;

  std::uint64_t end() const { return t + dur; }
};

/// All timeline records of one testbed (one "tb" label), in file order.
struct TbTimeline {
  std::string tb;
  std::vector<Sample> samples;
  std::vector<ZoneEvent> zone_events;
  std::vector<DieBusy> die_busy;
  std::vector<Window> windows;
};

// ---- loader --------------------------------------------------------------

/// Everything one JSONL file holds. A line without a "type" member is a
/// trace span; a typed line is a timeline record (DESIGN.md §10).
struct LoadResult {
  std::vector<TraceRecord> records;  // trace spans, in file order
  /// Per-testbed timelines, ordered by first appearance in the file.
  std::vector<TbTimeline> tbs;
  /// Lines skipped: unparsable, not a JSON object, or a record "type"
  /// this reader does not know (e.g. from a newer writer).
  std::size_t bad_lines = 0;
};

/// Parses JSONL trace and timeline lines from a stream in one pass;
/// blank lines are ignored.
LoadResult LoadJsonl(std::istream& in);
/// Opens `path` and LoadJsonl()s it. Empty result if unopenable.
LoadResult LoadJsonlFile(const std::string& path);

// ---- per-stage breakdown -----------------------------------------------

/// Aggregate service time of one stage (a distinct layer+name pair).
struct StageStat {
  std::string layer;
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;

  double mean_ns() const {
    return count == 0 ? 0.0
                      : static_cast<double>(total_ns) /
                            static_cast<double>(count);
  }
};

/// All stages seen in the trace, sorted by total_ns descending.
std::vector<StageStat> StageBreakdown(const std::vector<TraceRecord>& recs);

// ---- per-command grouping ----------------------------------------------

/// Everything the trace says about one command (one `cmd` id).
struct CommandTrace {
  std::uint64_t cmd = 0;
  /// Op-class name decoded from the host.submit / qp.doorbell payload
  /// ("read", "write", "append", ...); "unknown" when neither span
  /// appeared for this command.
  std::string op = "unknown";
  std::uint64_t begin = 0;  // earliest span start
  std::uint64_t end = 0;    // latest span end
  /// Sum of span durations. By the span-tiling invariant this equals
  /// end - begin (the measured latency) for QD=1 commands. "host.retry"
  /// spans are excluded: they overlay the failed attempt's own device
  /// spans and would double-count its time.
  std::uint64_t total_ns = 0;
  /// Per-stage service time, keyed by span name (same exclusion).
  std::map<std::string, std::uint64_t> stage_ns;
  /// Resilience events (hostif::ResilientStack): failed-then-reissued
  /// attempts, per-attempt timeouts, and whether an error ultimately
  /// surfaced to the caller.
  std::uint32_t retries = 0;   // "host.retry" spans
  std::uint32_t timeouts = 0;  // "host.timeout" instants
  bool errored = false;        // "host.error" instant present
  /// Power-loss crash events (DESIGN.md §11): attempts that completed
  /// kDeviceReset and appends settled by write-pointer replay dedupe.
  std::uint32_t device_resets = 0;  // "host.reset" instants
  std::uint32_t replay_dupes = 0;   // "host.replay_dupe" instants
};

/// Groups command-scoped records (cmd != 0) into per-command traces,
/// ordered by first appearance.
std::vector<CommandTrace> GroupByCommand(const std::vector<TraceRecord>& recs);

// ---- tail attribution --------------------------------------------------

/// Which stage dominates the slow commands of one op class.
struct TailAttribution {
  std::string op;
  std::size_t commands = 0;
  double mean_ns = 0.0;
  double p50_ns = 0.0;
  double p95_ns = 0.0;
  double p99_ns = 0.0;
  /// Mean per-stage time among commands with total_ns >= the quantile.
  std::map<std::string, double> p95_stage_ns;
  std::map<std::string, double> p99_stage_ns;
  /// argmax of the above: the stage the tail spends most time in.
  std::string p95_dominant;
  std::string p99_dominant;
  /// Resilience rollup: host-layer retry/timeout totals and how many
  /// commands surfaced an error despite them.
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::size_t retried_commands = 0;
  std::size_t errored_commands = 0;
  std::uint64_t device_resets = 0;  // kDeviceReset completions absorbed
  std::uint64_t replay_dupes = 0;   // appends settled by wp-replay dedupe

  /// Caller-visible error fraction of this op class (0 when clean).
  double error_rate() const {
    return commands == 0 ? 0.0
                         : static_cast<double>(errored_commands) /
                               static_cast<double>(commands);
  }
};

/// Per-op-class latency distribution and tail attribution, sorted by
/// command count descending.
std::vector<TailAttribution> AttributeTails(
    const std::vector<CommandTrace>& cmds);

// ---- crash/recovery summary --------------------------------------------

/// Device power-loss activity in the trace (DESIGN.md §11). The
/// "crash.power_loss" / "recovery.done" instants the devices emit are
/// not command-scoped (cmd = 0), so GroupByCommand never sees them;
/// they are summarized here instead.
struct CrashSummary {
  std::uint64_t power_losses = 0;  // "crash.power_loss" instants
  std::uint64_t recoveries = 0;    // "recovery.done" instants

  bool any() const { return power_losses + recoveries > 0; }
};

CrashSummary SummarizeCrashes(const std::vector<TraceRecord>& recs);

// ---- queue-depth timeline ----------------------------------------------

struct QdPoint {
  std::uint64_t ts = 0;
  std::int64_t qd = 0;  // commands in flight from this instant
};

struct QdTimeline {
  /// Change points (one per command start/end instant), ts ascending.
  std::vector<QdPoint> points;
  std::int64_t max_qd = 0;
  double mean_qd = 0.0;  // time-weighted over [first, last]
};

/// Commands in flight over time, from each command's [begin, end) window.
QdTimeline ComputeQueueDepth(const std::vector<CommandTrace>& cmds);

// ---- per-interval activity ---------------------------------------------

/// One sample interval's activity, derived from a Sample plus the
/// windows/events overlapping [begin, end).
struct IntervalRow {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  double write_mibps = 0;  // zns.bytes_written + conv.bytes_written
  double read_mibps = 0;   // zns.bytes_read + conv.bytes_read
  double iops = 0;         // qp.completions delta / interval
  double qd = 0;           // qp.inflight gauge at sample time
  double die_util = 0;     // mean busy fraction across dies (0..1)
  std::uint32_t zone_transitions = 0;
  /// Overlap of background windows with this interval, ns per kind.
  std::map<std::string, std::uint64_t> window_ns;

  double interval_ns() const { return static_cast<double>(end - begin); }
  std::uint64_t overlap(const std::string& kind) const {
    auto it = window_ns.find(kind);
    return it == window_ns.end() ? 0 : it->second;
  }
};

/// Builds per-interval rows from one testbed's timeline. `num_dies` for
/// the utilization denominator is inferred (distinct lane/die pairs) when
/// 0.
std::vector<IntervalRow> BuildIntervals(const TbTimeline& tl,
                                        std::uint32_t num_dies = 0);

// ---- throughput-dip attribution ----------------------------------------

/// One below-threshold throughput interval and what overlapped it.
struct Dip {
  IntervalRow row;
  double throughput_mibps = 0;  // write + read
  double median_mibps = 0;      // run median the threshold derives from
  /// Background-window overlap inside the dip, largest first.
  std::vector<std::pair<std::string, std::uint64_t>> causes;

  /// The dominant overlapping window kind ("" when nothing overlapped —
  /// an unexplained dip).
  std::string dominant() const {
    return causes.empty() ? std::string() : causes.front().first;
  }
};

/// Finds intervals whose total throughput is below `threshold_frac` of
/// the run's median (computed over intervals with any throughput) and
/// attributes each to the background windows overlapping it. Warm-up and
/// idle intervals (zero throughput and no window overlap) are ignored.
std::vector<Dip> FindDips(const std::vector<IntervalRow>& rows,
                          double threshold_frac = 0.7);

// ---- Chrome trace-event export -----------------------------------------

/// Renders a loaded file as one Chrome trace-event JSON document
/// (loadable in Perfetto / chrome://tracing). Spans become complete
/// events on pid 1, one track per layer, plus a queue-depth counter track
/// when `qd` is non-null. Each testbed gets its own pid carrying
/// throughput / QD / die-utilization counter tracks and one span track
/// per background-window kind.
std::string ToChromeTrace(const LoadResult& loaded,
                          const QdTimeline* qd = nullptr);

/// Writes ToChromeTrace() to `path`; false (warning on stderr) if
/// unopenable.
bool WriteChromeTrace(const std::string& path, const LoadResult& loaded,
                      const QdTimeline* qd = nullptr);

}  // namespace zstor::ztrace
