// Deterministic fault injection for the NAND layer.
//
// A FaultPlan decides — from a seed and a virtual-time schedule, never from
// wall-clock state — whether a given page read or program suffers a media
// fault. The flash array consults the plan at each cell operation; the plan
// never touches device state itself, it only renders verdicts. Fault sites:
//
//   * correctable read errors: the device re-reads with stepped sensing
//     voltages (a latency penalty per retry step) and the command succeeds,
//   * uncorrectable read errors: ECC is exhausted after the full retry
//     budget and the command completes kMediaReadError,
//   * program failures: the page program fails, the block is retired, and
//     the owning zone degrades (ReadOnly, then Offline once spares run out),
//   * wear-out: P/E cycles beyond a threshold raise the raw bit error rate,
//     so aged blocks fail more often (paper §IV: emulators omit exactly
//     this class of device-internal behavior).
//
// Determinism: the plan owns a private sim::Rng seeded from FaultSpec::seed,
// so enabling faults never perturbs the timing-noise or workload RNG
// streams, and a fixed (seed, schedule, workload) triple reproduces the
// exact same fault sequence. A disabled plan consumes no randomness at all.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/rng.h"
#include "sim/time.h"
#include "telemetry/metrics.h"

namespace zstor::fault {

enum class FaultKind : std::uint8_t {
  kReadCorrectable,
  kReadUncorrectable,
  kProgramFail,
};

constexpr std::string_view ToString(FaultKind k) {
  switch (k) {
    case FaultKind::kReadCorrectable: return "read_c";
    case FaultKind::kReadUncorrectable: return "read_uc";
    case FaultKind::kProgramFail: return "prog";
  }
  return "unknown";
}

/// Wildcard die/block for scheduled faults: matches any site.
inline constexpr std::uint32_t kAnySite = 0xFFFF'FFFFu;

/// A one-shot fault armed at a virtual-time instant. It fires on the first
/// matching cell operation at or after `at`, then disarms.
struct ScheduledFault {
  sim::Time at = 0;
  FaultKind kind = FaultKind::kReadUncorrectable;
  std::uint32_t die = kAnySite;
  std::uint32_t block = kAnySite;
};

/// The full fault configuration. Probabilities are per cell operation.
struct FaultSpec {
  bool enabled = false;

  double read_correctable_rate = 0.0;    // P(read needs retry steps)
  double read_uncorrectable_rate = 0.0;  // P(read exhausts ECC)
  double program_fail_rate = 0.0;        // P(program fails, block retired)

  /// Read-retry budget: a correctable error costs 1..max steps of
  /// `read_retry_penalty` die time; an uncorrectable error charges the
  /// full budget before giving up (the drive tried every voltage).
  std::uint32_t max_read_retries = 8;
  sim::Time read_retry_penalty = sim::Microseconds(25);

  /// Wear model: each P/E cycle beyond the threshold adds
  /// `wear_rber_slope` to the correctable-read and program-fail
  /// probabilities (and slope/16 to the uncorrectable probability — ECC
  /// still corrects most wear-induced raw bit errors). 0 disables.
  std::uint32_t wear_threshold_pe = 0;
  double wear_rber_slope = 0.0;

  std::uint64_t seed = 0xFA17'5EED'0000'0003ull;

  std::vector<ScheduledFault> scheduled;

  /// Scheduled power-loss instants (virtual time, sorted by the parser).
  /// At each instant every attached device freezes, applies its loss
  /// semantics (torn in-flight programs, volatile mapping/write-pointer
  /// state dropped) and runs its latency-modeled recovery procedure. The
  /// devices arm these themselves in AttachFaultPlan — unlike the cell-op
  /// faults above, a crash fires at its instant even on an idle device.
  std::vector<sim::Time> crashes;
};

/// Parses a `--faults=` spec string into *out. Grammar: comma-separated
/// key=value pairs (all optional; parsing any spec sets enabled=true):
///
///   seed=N            RNG seed for the fault stream
///   read_c=RATE       correctable read error probability   [0,1]
///   read_uc=RATE      uncorrectable read error probability [0,1]
///   prog=RATE         program failure probability          [0,1]
///   retries=N         read-retry budget (steps)
///   retry_us=F        per-retry-step latency penalty (microseconds)
///   wear_pe=N         P/E-cycle wear threshold (0 = off)
///   wear_slope=RATE   added error probability per cycle over threshold
///   sched=US:KIND:DIE:BLOCK
///                     one-shot fault at virtual time US microseconds;
///                     KIND in {read_c, read_uc, prog}; DIE/BLOCK numeric
///                     or '*' for any site; repeatable
///   crash=US          power loss at virtual time US microseconds; every
///                     attached device freezes, loses volatile state and
///                     recovers; repeatable
///
/// Example: --faults=seed=7,read_uc=0.001,prog=0.0005,sched=1000:prog:0:*
///
/// Returns false (and fills *error) on malformed input; *out is then
/// unspecified.
bool ParseFaultSpec(std::string_view text, FaultSpec* out, std::string* error);

/// Renders a spec back into the canonical grammar (round-trips through
/// ParseFaultSpec); used to label bench results with the active plan.
std::string FormatFaultSpec(const FaultSpec& spec);

struct FaultCounters {
  std::uint64_t correctable_read_errors = 0;
  std::uint64_t uncorrectable_read_errors = 0;
  std::uint64_t program_failures = 0;
  std::uint64_t read_retry_steps = 0;  // total voltage steps charged
  std::uint64_t scheduled_fired = 0;
  std::uint64_t wear_boosted_ops = 0;  // ops whose rates were wear-raised

  /// Every counter under the "fault." prefix (the field-table protocol;
  /// see telemetry/metrics.h).
  static constexpr telemetry::CounterField<FaultCounters> kFields[] = {
      {"fault.correctable_read_errors",
       &FaultCounters::correctable_read_errors},
      {"fault.uncorrectable_read_errors",
       &FaultCounters::uncorrectable_read_errors},
      {"fault.program_failures", &FaultCounters::program_failures},
      {"fault.read_retry_steps", &FaultCounters::read_retry_steps},
      {"fault.scheduled_fired", &FaultCounters::scheduled_fired},
      {"fault.wear_boosted_ops", &FaultCounters::wear_boosted_ops},
  };

  void Describe(telemetry::MetricsRegistry& m) const {
    telemetry::SetFields(*this, m);
  }
};
static_assert(telemetry::ListsEveryFieldOnce<FaultCounters>());

/// Verdict for one page read.
struct ReadVerdict {
  /// Retry voltage steps the die must charge (0 = clean read). Set for
  /// both correctable errors (1..budget) and uncorrectable ones (full
  /// budget — the drive stepped through every voltage before giving up).
  std::uint32_t retry_steps = 0;
  bool uncorrectable = false;
};

/// Verdict for one page program.
struct ProgramVerdict {
  bool fail = false;
};

class FaultPlan {
 public:
  explicit FaultPlan(FaultSpec spec);

  const FaultSpec& spec() const { return spec_; }
  const FaultCounters& counters() const { return counters_; }
  bool enabled() const { return spec_.enabled; }

  /// Consulted by FlashArray before servicing a page read / program.
  /// `pe_cycles` is the block's wear so far (feeds the wear model).
  ReadVerdict OnRead(sim::Time now, std::uint32_t die, std::uint32_t block,
                     std::uint32_t pe_cycles);
  ProgramVerdict OnProgram(sim::Time now, std::uint32_t die,
                           std::uint32_t block, std::uint32_t pe_cycles);

 private:
  /// Added error probability from wear (0 when under threshold/disabled).
  double WearBoost(std::uint32_t pe_cycles);
  /// Fires (and disarms) the first armed schedule entry matching the site
  /// and one of the given kinds; returns its kind or nullopt-like flag.
  bool TakeScheduled(sim::Time now, std::uint32_t die, std::uint32_t block,
                     FaultKind a, FaultKind b, FaultKind* fired);

  FaultSpec spec_;
  std::vector<char> armed_;  // parallel to spec_.scheduled
  sim::Rng rng_;
  FaultCounters counters_;
};

}  // namespace zstor::fault
