// Streaming statistics used by every experiment: exact moments (Welford),
// log-linear latency histograms with percentile queries (HDR-style), and
// binned throughput time series for the Fig. 6 style over-time plots.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/time.h"

namespace zstor::sim {

/// Exact streaming mean/variance/min/max (Welford's algorithm).
class Welford {
 public:
  void Record(double x);
  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  /// NaN when no samples were recorded — an empty window must never be
  /// mistaken for a real zero-valued measurement.
  double min() const {
    return n_ ? min_ : std::numeric_limits<double>::quiet_NaN();
  }
  double max() const {
    return n_ ? max_ : std::numeric_limits<double>::quiet_NaN();
  }
  /// Coefficient of variation (stddev / mean); 0 when undefined.
  double cv() const;

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Log-linear histogram over nanosecond latencies, ~1.6% relative
/// resolution (64 linear sub-buckets per power of two), range 1 ns .. ~5 h.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void Record(Time latency_ns);

  std::uint64_t count() const { return moments_.count(); }
  double mean_ns() const { return moments_.mean(); }
  double min_ns() const { return moments_.min(); }
  double max_ns() const { return moments_.max(); }

  /// Latency (ns) at quantile q in [0,1], e.g. 0.95 for p95. Exact count
  /// ranks; value is the midpoint of the containing bucket (<=1.6% error).
  /// NaN when the histogram is empty — same convention as Welford
  /// min()/max(): an empty window must never look like a measurement.
  double Quantile(double q) const;

  double p50_ns() const { return Quantile(0.50); }
  double p95_ns() const { return Quantile(0.95); }
  double p99_ns() const { return Quantile(0.99); }

  void Merge(const LatencyHistogram& other);
  void Reset();

  /// Distribution of the samples recorded since the previous
  /// TakeInterval() (or since construction/Reset). Same NaN-when-empty
  /// convention as the cumulative accessors.
  struct IntervalStats {
    std::uint64_t count = 0;
    double mean_ns = std::numeric_limits<double>::quiet_NaN();
    double p50_ns = std::numeric_limits<double>::quiet_NaN();
    double p95_ns = std::numeric_limits<double>::quiet_NaN();
    double p99_ns = std::numeric_limits<double>::quiet_NaN();
    double max_ns = std::numeric_limits<double>::quiet_NaN();
  };

  /// Computes IntervalStats from bucket deltas against a baseline copy,
  /// then advances the baseline (snapshot-and-clear for the *interval*
  /// view only). Cumulative count/mean/quantiles are untouched, and the
  /// Record() hot path never pays for intervals nobody takes: the
  /// baseline is allocated lazily on the first call. Interval values are
  /// bucket midpoints (<= 1.6% error), including mean and max.
  IntervalStats TakeInterval();

  /// "mean=12.3us p50=… p95=…" — for logs and bench output.
  std::string Summary() const;

 private:
  static constexpr int kSubBucketBits = 6;  // 64 sub-buckets per octave
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kOctaves = 45;       // up to ~2^45 ns ≈ 9.7 h
  static constexpr int kBuckets = kOctaves * kSubBuckets;

  static int BucketIndex(Time v);
  static double BucketMidpoint(int idx);

  std::vector<std::uint64_t> buckets_;
  Welford moments_;
  /// Bucket counts at the last TakeInterval(); empty (= all zeros) until
  /// the first call, so cumulative-only users never pay the copy.
  std::vector<std::uint64_t> interval_base_;
  std::uint64_t interval_base_count_ = 0;
};

/// Accumulates an amount (bytes, ops) into fixed-width virtual-time bins;
/// yields a throughput-over-time series like the paper's Fig. 6.
class TimeSeries {
 public:
  /// Bins of `bin_width` ns starting at t=0.
  explicit TimeSeries(Time bin_width);

  void Record(Time when, double amount);

  Time bin_width() const { return bin_width_; }
  std::size_t num_bins() const { return bins_.size(); }

  /// Sum recorded in bin i.
  double BinTotal(std::size_t i) const { return bins_[i]; }
  /// Recorded amount per second for bin i (e.g. bytes/s).
  double BinRate(std::size_t i) const;

  /// Adds another series bin-wise (bin widths must match). Bins are an
  /// order-insensitive sum, so merging per-shard series reproduces the
  /// single-collector series exactly.
  void Merge(const TimeSeries& other);

  /// Moments over the per-bin rates, optionally skipping warmup bins.
  Welford RateMoments(std::size_t skip_bins = 0) const;

 private:
  Time bin_width_;
  std::vector<double> bins_;
};

}  // namespace zstor::sim
