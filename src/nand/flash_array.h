// The flash array: per-die and per-channel service with real queueing.
//
// Dies execute one cell operation (read/program/erase) at a time; channels
// carry one bus transfer at a time. All contention effects in the paper —
// read tails behind program queues, GC erase storms, parallel scaling across
// dies — arise from these two resources plus the timings in geometry.h.
//
// The array also enforces the physical flash contract (a deliberately
// checkable substrate for the FTL layers above):
//   * pages within a block must be programmed strictly sequentially,
//   * a page must be programmed before it is read,
//   * a block must be erased before its pages can be re-programmed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/fault_plan.h"
#include "nand/geometry.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "telemetry/telemetry.h"

namespace zstor::nand {

/// Outcome of one cell operation, as observed by the layer above. kOk is
/// the only value possible unless a fault::FaultPlan is attached.
enum class MediaStatus : std::uint8_t {
  kOk,
  kReadError,    // uncorrectable read: ECC exhausted after every retry step
  kProgramFail,  // program failed (or targeted an already-retired block)
};

struct FlashCounters {
  std::uint64_t page_reads = 0;
  std::uint64_t page_programs = 0;
  std::uint64_t block_erases = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_programmed = 0;
  // Fault-path outcomes (all zero without an attached fault plan).
  std::uint64_t read_retries = 0;       // correctable reads (retry episodes)
  std::uint64_t read_errors = 0;        // uncorrectable reads surfaced
  std::uint64_t program_failures = 0;   // failed page programs
  std::uint64_t blocks_retired = 0;     // blocks taken out of service
  // Crash/recovery activity (zero unless a power loss was injected).
  std::uint64_t recovery_probes = 0;    // ProbePage scans
  std::uint64_t crash_discarded_pages = 0;  // tail pages dropped at boot

  /// Every counter under the "nand." prefix (the field-table protocol;
  /// see telemetry/metrics.h).
  static constexpr telemetry::CounterField<FlashCounters> kFields[] = {
      {"nand.page_reads", &FlashCounters::page_reads},
      {"nand.page_programs", &FlashCounters::page_programs},
      {"nand.block_erases", &FlashCounters::block_erases},
      {"nand.bytes_read", &FlashCounters::bytes_read},
      {"nand.bytes_programmed", &FlashCounters::bytes_programmed},
      {"nand.read_retries", &FlashCounters::read_retries},
      {"nand.read_errors", &FlashCounters::read_errors},
      {"nand.program_failures", &FlashCounters::program_failures},
      {"nand.blocks_retired", &FlashCounters::blocks_retired},
      {"nand.recovery_probes", &FlashCounters::recovery_probes},
      {"nand.crash_discarded_pages", &FlashCounters::crash_discarded_pages},
  };

  void Describe(telemetry::MetricsRegistry& m) const {
    telemetry::SetFields(*this, m);
  }
};
static_assert(telemetry::ListsEveryFieldOnce<FlashCounters>());

/// Per-die service accounting, fed by the die-held portion of each cell
/// operation. busy_ns / sim.now() is that die's utilization — the raw
/// material of the Die Utilization log page (nvme/log_page.h).
struct DieStats {
  std::uint64_t reads = 0;
  std::uint64_t programs = 0;
  std::uint64_t erases = 0;
  sim::Time busy_ns = 0;  // total time the die executed cell operations
};

class FlashArray {
 public:
  FlashArray(sim::Simulator& s, const Geometry& geo, const Timing& timing);

  const Geometry& geometry() const { return geo_; }
  const Timing& timing() const { return timing_; }
  const FlashCounters& counters() const { return counters_; }

  /// Enables die/channel-level tracing (non-owning; null disables). Die
  /// spans carry no command id — cell service is decoupled from commands
  /// by the write-back buffer; `a` holds the die index instead. `lane`
  /// tags this array's timeline records in striped multi-device runs.
  void AttachTelemetry(telemetry::Telemetry* t, std::uint32_t lane = 0) {
    telem_ = t;
    lane_ = lane;
  }

  /// Emits any still-open die_busy timeline windows. Called by the
  /// testbed at Finish(); a no-op without an attached timeline.
  void FlushDieWindows();

  /// Injects media faults into subsequent cell operations (non-owning;
  /// null disables — the default, under which every operation is kOk and
  /// timing is bit-identical to a build without fault support).
  void AttachFaultPlan(fault::FaultPlan* p) { faults_ = p; }

  /// Reads `bytes` (<= page size) from a programmed page: occupies the die
  /// for tR (plus any read-retry voltage steps under an attached fault
  /// plan), then the channel for the data-out transfer. kReadError means
  /// ECC gave up after the full retry budget; no data is transferred.
  sim::Task<MediaStatus> ReadPage(PageAddr addr, std::uint32_t bytes);

  /// Programs the next page of a block (addr.page must equal the block's
  /// write pointer): channel data-in transfer, then die busy for tPROG.
  /// A failing program still consumes the page slot (the write pointer
  /// advances) so queued follow-on programs keep the sequential contract;
  /// programs to a retired block fail immediately without die time.
  sim::Task<MediaStatus> ProgramPage(PageAddr addr);

  /// Erases a block: die busy for tBERS; resets the block write pointer.
  sim::Task<> EraseBlock(std::uint32_t die, std::uint32_t block);

  /// Recovery probe: senses whether `addr` holds programmed data, costing
  /// a full tR of die time (no channel transfer — the controller only
  /// inspects the ECC/meta region). Unlike ReadPage it is legal on
  /// unprogrammed pages; write-pointer rediscovery scans after a power
  /// loss are built from these. Returns true if the page is programmed.
  sim::Task<bool> ProbePage(PageAddr addr);

  /// Power-loss tail discard: drops pages [new_write_ptr, write_ptr) of a
  /// block — programs that were in flight (or torn) when power cut and
  /// that the controller's recovery scan refuses to trust. Models the
  /// controller remapping the partially-programmed word lines away; no
  /// die time, no P/E cycle. Never raises the write pointer; no-op on
  /// retired blocks.
  void CrashDiscardTail(std::uint32_t die, std::uint32_t block,
                        std::uint32_t new_write_ptr);

  /// Marks pages [0, upto_page) of a block as programmed without simulating
  /// the programs (no virtual time, no counters). Test/bench acceleration
  /// for pre-filling state whose write *history* does not matter — see
  /// DESIGN.md §6. Never lowers an existing write pointer.
  void DebugProgramRange(std::uint32_t die, std::uint32_t block,
                         std::uint32_t upto_page);

  /// Erases a block instantly (no die time) while still counting the P/E
  /// cycle. Models erases that firmware hides off the critical path (the
  /// paper: "the reset operation does not immediately force a block
  /// erasure" [74]).
  void DeferredEraseBlock(std::uint32_t die, std::uint32_t block);

  /// Block write pointer: the next page index to program (0 = empty block).
  std::uint32_t BlockWritePointer(std::uint32_t die,
                                  std::uint32_t block) const;
  /// Program/erase cycles endured by the block so far.
  std::uint32_t BlockPeCycles(std::uint32_t die, std::uint32_t block) const;

  /// Takes a block out of service after a program failure: its programmed
  /// pages stay readable, but further programs fail fast and erases are
  /// refused. Returns true if the block was newly retired (callers use
  /// this to charge spare-block accounting exactly once per block).
  bool MarkBlockRetired(std::uint32_t die, std::uint32_t block);
  bool BlockRetired(std::uint32_t die, std::uint32_t block) const;

  /// Per-die service accounting, indexed by die; size == total_dies().
  const std::vector<DieStats>& die_stats() const { return die_stats_; }

  /// Aggregate program bandwidth achievable when all dies stream (bytes/s).
  double PeakProgramBandwidth() const;

 private:
  struct BlockState {
    std::uint32_t write_ptr = 0;
    std::uint32_t pe_cycles = 0;
    bool retired = false;
  };

  BlockState& Block(std::uint32_t die, std::uint32_t block);
  const BlockState& Block(std::uint32_t die, std::uint32_t block) const;
  void CheckAddr(std::uint32_t die, std::uint32_t block) const;

  sim::Time NoisyRead();
  sim::Time NoisyProgram();
  telemetry::Tracer* trace() const {
    return telem_ != nullptr ? &telem_->tracer() : nullptr;
  }
  telemetry::TimelineWriter* timeline() const {
    return telem_ != nullptr ? telem_->timeline() : nullptr;
  }
  /// Folds one die-held service interval [begin, end] into that die's
  /// pending die_busy window: extend it when the idle gap is below the
  /// writer's merge threshold, otherwise emit it and start a new one.
  void NoteDieService(std::uint32_t die, sim::Time begin, sim::Time end);
  void EmitMediaError(std::uint32_t die, std::uint32_t block);

  /// A pending (not yet emitted) die_busy window; `busy` sums the actual
  /// service time inside [begin, end] so utilization stays exact even
  /// though the window spans merged idle gaps.
  struct DieWindow {
    sim::Time begin = 0;
    sim::Time end = 0;
    sim::Time busy = 0;
    std::uint64_t ops = 0;
    bool open = false;
  };

  telemetry::Telemetry* telem_ = nullptr;
  std::uint32_t lane_ = 0;
  std::vector<DieWindow> die_windows_;
  fault::FaultPlan* faults_ = nullptr;
  sim::Simulator& sim_;
  Geometry geo_;
  Timing timing_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<sim::Semaphore>> dies_;
  std::vector<std::unique_ptr<sim::Semaphore>> channels_;
  std::vector<BlockState> blocks_;  // [die * blocks_per_die + block]
  std::vector<DieStats> die_stats_;
  FlashCounters counters_;
};

}  // namespace zstor::nand
