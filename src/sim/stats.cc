#include "sim/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>

#include "sim/check.h"

namespace zstor::sim {

void Welford::Record(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  double d = x - mean_;
  mean_ += d / static_cast<double>(n_);
  m2_ += d * (x - mean_);
}

double Welford::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double Welford::stddev() const { return std::sqrt(variance()); }

double Welford::cv() const {
  return (n_ > 1 && mean_ != 0.0) ? stddev() / mean_ : 0.0;
}

LatencyHistogram::LatencyHistogram() : buckets_(kBuckets, 0) {}

int LatencyHistogram::BucketIndex(Time v) {
  if (v < kSubBuckets) return static_cast<int>(v);  // exact below 64 ns
  int msb = 63 - std::countl_zero(static_cast<std::uint64_t>(v));
  int octave = msb - kSubBucketBits + 1;
  int sub = static_cast<int>(v >> octave) - (kSubBuckets >> 1);
  int idx = kSubBuckets + (octave - 1) * (kSubBuckets >> 1) + sub;
  return std::min(idx, kBuckets - 1);
}

double LatencyHistogram::BucketMidpoint(int idx) {
  if (idx < kSubBuckets) return idx;
  int rel = idx - kSubBuckets;
  int octave = rel / (kSubBuckets >> 1) + 1;
  int sub = rel % (kSubBuckets >> 1) + (kSubBuckets >> 1);
  double lo = std::ldexp(static_cast<double>(sub), octave);
  double width = std::ldexp(1.0, octave);
  return lo + width / 2.0;
}

void LatencyHistogram::Record(Time latency_ns) {
  buckets_[static_cast<std::size_t>(BucketIndex(latency_ns))]++;
  moments_.Record(static_cast<double>(latency_ns));
}

double LatencyHistogram::Quantile(double q) const {
  ZSTOR_CHECK(q >= 0.0 && q <= 1.0);
  std::uint64_t total = moments_.count();
  if (total == 0) return std::numeric_limits<double>::quiet_NaN();
  // Rank of the q-th sample (1-based, nearest-rank definition).
  auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[static_cast<std::size_t>(i)];
    if (seen >= rank) return BucketMidpoint(i);
  }
  return moments_.max();
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[static_cast<std::size_t>(i)] +=
        other.buckets_[static_cast<std::size_t>(i)];
  }
  // Scalar moments: replay the other histogram's samples from bucket
  // midpoints. Counts stay exact; mean error is within bucket resolution.
  for (int i = 0; i < kBuckets; ++i) {
    std::uint64_t c = other.buckets_[static_cast<std::size_t>(i)];
    double mid = BucketMidpoint(i);
    for (std::uint64_t k = 0; k < c; ++k) moments_.Record(mid);
  }
}

void LatencyHistogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  moments_ = Welford{};
  interval_base_.clear();
  interval_base_count_ = 0;
}

LatencyHistogram::IntervalStats LatencyHistogram::TakeInterval() {
  IntervalStats s;
  s.count = moments_.count() - interval_base_count_;
  if (s.count > 0) {
    auto rank = [&](double q) {
      auto r = static_cast<std::uint64_t>(
          std::ceil(q * static_cast<double>(s.count)));
      return r == 0 ? 1 : r;
    };
    const std::uint64_t r50 = rank(0.50), r95 = rank(0.95), r99 = rank(0.99);
    double sum = 0.0;
    std::uint64_t seen = 0;
    int last_nonzero = 0;
    for (int i = 0; i < kBuckets; ++i) {
      std::uint64_t base =
          interval_base_.empty() ? 0
                                 : interval_base_[static_cast<std::size_t>(i)];
      std::uint64_t d = buckets_[static_cast<std::size_t>(i)] - base;
      if (d == 0) continue;
      double mid = BucketMidpoint(i);
      sum += mid * static_cast<double>(d);
      if (seen < r50 && seen + d >= r50) s.p50_ns = mid;
      if (seen < r95 && seen + d >= r95) s.p95_ns = mid;
      if (seen < r99 && seen + d >= r99) s.p99_ns = mid;
      seen += d;
      last_nonzero = i;
    }
    s.mean_ns = sum / static_cast<double>(s.count);
    s.max_ns = BucketMidpoint(last_nonzero);
  }
  interval_base_ = buckets_;
  interval_base_count_ = moments_.count();
  return s;
}

namespace {
std::string FormatNs(double ns) {
  char buf[48];
  if (ns >= 1e9) {
    std::snprintf(buf, sizeof buf, "%.2fs", ns / 1e9);
  } else if (ns >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.2fms", ns / 1e6);
  } else if (ns >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.2fus", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0fns", ns);
  }
  return buf;
}
}  // namespace

std::string LatencyHistogram::Summary() const {
  if (count() == 0) return "n=0";
  std::string out = "n=" + std::to_string(count());
  out += " mean=" + FormatNs(mean_ns());
  out += " p50=" + FormatNs(Quantile(0.50));
  out += " p95=" + FormatNs(Quantile(0.95));
  out += " p99=" + FormatNs(Quantile(0.99));
  out += " max=" + FormatNs(max_ns());
  return out;
}

TimeSeries::TimeSeries(Time bin_width) : bin_width_(bin_width) {
  ZSTOR_CHECK(bin_width > 0);
}

void TimeSeries::Record(Time when, double amount) {
  std::size_t bin = static_cast<std::size_t>(when / bin_width_);
  if (bin >= bins_.size()) bins_.resize(bin + 1, 0.0);
  bins_[bin] += amount;
}

void TimeSeries::Merge(const TimeSeries& other) {
  ZSTOR_CHECK(bin_width_ == other.bin_width_);
  if (other.bins_.size() > bins_.size()) bins_.resize(other.bins_.size(), 0.0);
  for (std::size_t i = 0; i < other.bins_.size(); ++i) {
    bins_[i] += other.bins_[i];
  }
}

double TimeSeries::BinRate(std::size_t i) const {
  return bins_[i] / ToSeconds(bin_width_);
}

Welford TimeSeries::RateMoments(std::size_t skip_bins) const {
  Welford w;
  for (std::size_t i = skip_bins; i < bins_.size(); ++i) w.Record(BinRate(i));
  return w;
}

}  // namespace zstor::sim
