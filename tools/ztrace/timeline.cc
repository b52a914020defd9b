// Per-interval activity rows and throughput-dip attribution over one
// testbed's timeline (DESIGN.md §10).
#include "ztrace/analysis.h"

#include <algorithm>
#include <utility>

namespace zstor::ztrace {

namespace {

/// Overlap in ns of [a0, a1) with [b0, b1).
std::uint64_t OverlapNs(std::uint64_t a0, std::uint64_t a1, std::uint64_t b0,
                        std::uint64_t b1) {
  std::uint64_t lo = std::max(a0, b0);
  std::uint64_t hi = std::min(a1, b1);
  return hi > lo ? hi - lo : 0;
}

double MiBps(double bytes, double interval_ns) {
  if (interval_ns <= 0) return 0.0;
  return bytes / (1024.0 * 1024.0) / (interval_ns / 1e9);
}

double CounterOr(const Sample& s, const std::string& name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0.0 : it->second;
}

}  // namespace

std::vector<IntervalRow> BuildIntervals(const TbTimeline& tl,
                                        std::uint32_t num_dies) {
  if (num_dies == 0) {
    // Distinct (lane, die) pairs: a striped testbed repeats die indices
    // across lanes, and lumping them would overstate utilization.
    std::vector<std::uint64_t> seen;
    for (const DieBusy& d : tl.die_busy) {
      std::uint64_t key =
          (static_cast<std::uint64_t>(d.lane) << 32) | d.die;
      if (std::find(seen.begin(), seen.end(), key) == seen.end()) {
        seen.push_back(key);
      }
    }
    num_dies = static_cast<std::uint32_t>(seen.size());
  }
  std::vector<IntervalRow> rows;
  rows.reserve(tl.samples.size());
  for (const Sample& s : tl.samples) {
    if (s.interval_ns == 0) continue;  // degenerate final sample
    IntervalRow r;
    r.begin = s.begin();
    r.end = s.t;
    // Host-visible data rate: device-level byte counters only. nand.*
    // would double-count GC-amplified media traffic and laneN.* the
    // per-lane split of the same bytes.
    r.write_mibps = MiBps(CounterOr(s, "zns.bytes_written") +
                              CounterOr(s, "conv.bytes_written"),
                          r.interval_ns());
    r.read_mibps = MiBps(
        CounterOr(s, "zns.bytes_read") + CounterOr(s, "conv.bytes_read"),
        r.interval_ns());
    r.iops = CounterOr(s, "qp.completions") / (r.interval_ns() / 1e9);
    if (auto it = s.gauges.find("qp.inflight"); it != s.gauges.end()) {
      r.qd = it->second;
    }
    if (num_dies > 0) {
      // busy_ns is exact per window; clip each window to the interval
      // proportionally to its overlap.
      double busy = 0;
      for (const DieBusy& d : tl.die_busy) {
        std::uint64_t ov = OverlapNs(r.begin, r.end, d.t, d.end());
        if (ov == 0) continue;
        busy += d.dur == 0 ? static_cast<double>(d.busy_ns)
                           : static_cast<double>(d.busy_ns) *
                                 (static_cast<double>(ov) /
                                  static_cast<double>(d.dur));
      }
      r.die_util = busy / (static_cast<double>(num_dies) * r.interval_ns());
    }
    for (const ZoneEvent& e : tl.zone_events) {
      if (e.t >= r.begin && e.t < r.end) ++r.zone_transitions;
    }
    for (const Window& w : tl.windows) {
      // Zero-duration windows (media.error) count as point events inside
      // the interval; give them 1 ns so they register as a cause.
      std::uint64_t ov =
          w.dur == 0 ? ((w.t >= r.begin && w.t < r.end) ? 1 : 0)
                     : OverlapNs(r.begin, r.end, w.t, w.end());
      if (ov > 0) r.window_ns[w.kind] += ov;
    }
    rows.push_back(std::move(r));
  }
  return rows;
}

std::vector<Dip> FindDips(const std::vector<IntervalRow>& rows,
                          double threshold_frac) {
  std::vector<double> rates;
  for (const IntervalRow& r : rows) {
    double tp = r.write_mibps + r.read_mibps;
    if (tp > 0) rates.push_back(tp);
  }
  std::vector<Dip> dips;
  if (rates.size() < 3) return dips;  // too short a run to call a dip
  std::sort(rates.begin(), rates.end());
  double median = rates[rates.size() / 2];
  double threshold = threshold_frac * median;
  for (const IntervalRow& r : rows) {
    double tp = r.write_mibps + r.read_mibps;
    if (tp >= threshold) continue;
    if (tp == 0 && r.window_ns.empty()) continue;  // idle, not a dip
    Dip d;
    d.row = r;
    d.throughput_mibps = tp;
    d.median_mibps = median;
    d.causes.assign(r.window_ns.begin(), r.window_ns.end());
    std::sort(d.causes.begin(), d.causes.end(),
              [](const auto& a, const auto& b) {
                return a.second != b.second ? a.second > b.second
                                            : a.first < b.first;
              });
    dips.push_back(std::move(d));
  }
  return dips;
}

}  // namespace zstor::ztrace
