// YCSB-style key-value workload driver (Cooper et al., SoCC '10) over
// the repo's ZipfGenerator — the standard benchmark shape for LSM
// engines, here driving zkv (or any KvBackend) inside the simulator.
//
// Core mixes:
//   A  update-heavy   50% read / 50% update
//   B  read-mostly    95% read /  5% update
//   C  read-only     100% read
//   F  read-modify-write  50% read / 50% RMW (read then update)
//
// Key popularity follows the zipfian request distribution (theta in
// (0,1); 0 selects uniform). Like YCSB itself, ranks are scattered over
// the key space by a hash so the hottest keys are not neighbors.
//
// Determinism: `workers` coroutines each draw from a private sim::Rng
// seeded from (seed, worker); histograms merge in worker order. Two runs
// with the same spec produce identical operation streams and results.
#pragma once

#include <cstdint>
#include <string_view>

#include "nvme/types.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace zstor::workload {

/// The engine under test. zkv::KvStore implements this; the driver knows
/// nothing about zones, so it also runs against mocks in unit tests.
class KvBackend {
 public:
  virtual ~KvBackend() = default;
  virtual sim::Task<nvme::Status> Put(std::uint64_t key,
                                      std::uint64_t value_bytes) = 0;
  /// *found (optional) reports whether the key held a live value; the
  /// status covers the reads the lookup issued.
  virtual sim::Task<nvme::Status> Get(std::uint64_t key,
                                      bool* found) = 0;
};

enum class YcsbMix : std::uint8_t { kA, kB, kC, kF };

constexpr std::string_view ToString(YcsbMix m) {
  switch (m) {
    case YcsbMix::kA: return "A";
    case YcsbMix::kB: return "B";
    case YcsbMix::kC: return "C";
    case YcsbMix::kF: return "F";
  }
  return "?";
}

struct YcsbSpec {
  YcsbMix mix = YcsbMix::kA;
  std::uint64_t record_count = 1024;
  std::uint64_t operations = 4096;
  std::uint64_t value_bytes = 4096;
  /// Zipfian skew of the request distribution; 0 = uniform.
  double zipf_theta = 0.99;
  std::uint32_t workers = 4;
  std::uint64_t seed = 1;
};

struct YcsbResult {
  std::uint64_t ops = 0;
  std::uint64_t reads = 0;
  std::uint64_t updates = 0;   // plain updates + the update half of RMWs
  std::uint64_t rmws = 0;
  std::uint64_t not_found = 0;
  std::uint64_t errors = 0;    // non-success statuses from the backend
  sim::LatencyHistogram read_latency;
  sim::LatencyHistogram update_latency;
  sim::Time span = 0;          // first submission to last completion

  double Kiops() const {
    if (span == 0) return 0.0;
    return static_cast<double>(ops) / (static_cast<double>(span) / 1e6);
  }
};

class YcsbRunner {
 public:
  YcsbRunner(sim::Simulator& s, KvBackend& kv, YcsbSpec spec);

  /// Loads records 0..record_count-1 (sequential keys, `workers`-wide).
  sim::Task<> Load();
  /// Runs `operations` ops of the spec's mix and returns the merged
  /// result.
  sim::Task<YcsbResult> Run();

 private:
  /// Scatters a popularity rank over the key space (FNV-1a, like YCSB's
  /// hashed key order).
  std::uint64_t RankToKey(std::uint64_t rank) const;
  sim::Task<> LoadWorker(std::uint64_t first, std::uint64_t count,
                         sim::WaitGroup* wg);
  sim::Task<> RunWorker(std::uint32_t worker, std::uint64_t ops,
                        YcsbResult* out, sim::WaitGroup* wg);

  sim::Simulator& sim_;
  KvBackend& kv_;
  YcsbSpec spec_;
};

}  // namespace zstor::workload
