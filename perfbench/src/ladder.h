// The traced run: per-layer host cost from outside the program.
//
// Benchmark-owned decorators implement nvme::Controller, hostif::Stack and
// workload::KvBackend. They wrap each boundary of a hand-assembled layer
// stack (device -> MakeStack -> [StripedStack] -> KvStore/Job) and record
// one span per command: op id, parent id, virtual submit and complete,
// status and append LBA. Each ladder rung then replays one boundary's
// recorded stream, at its recorded virtual submit times, into a fresh
// instance of that layer (same preconditioning) and times it; a layer's
// self cost is its rung minus the rung below. Every rung must reproduce
// its recorded completions exactly.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct LadderResult {
  /// Per-layer metrics as (name, value, unit).
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  /// Virtual outputs of every traced drive, each tagged; all must equal
  /// the workload's oracle entry.
  std::vector<std::pair<std::string, Outputs>> outputs;
  /// Rung completions that differed from the recorded stream.
  std::uint64_t replay_mismatches = 0;
  std::uint64_t replayed = 0;
  std::uint64_t attempted = 0, failed = 0;
  /// Human-readable notes (rung timings), printed before the result.
  std::vector<std::string> notes;
};

LadderResult RunLadder(const std::string& workload, std::uint64_t seed);

/// The decorated drive alone (no replays), for the transparency self-test:
/// its outputs must equal the undecorated run's.
Outputs DecoratedOutputs(const std::string& workload, std::uint64_t seed);

}  // namespace perfbench
