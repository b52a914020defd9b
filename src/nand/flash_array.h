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

#include <coroutine>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <memory>
#include <type_traits>
#include <vector>

#include "fault/fault_plan.h"
#include "nand/geometry.h"
#include "sim/noise.h"
#include "sim/simulator.h"
#include "sim/sync.h"
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

class FlashArray;

/// One cell operation in flight, as a record instead of a coroutine
/// frame. It lives in the issuer's memory (the awaiting coroutine's frame
/// for ReadPage & co., a reused array for batched GC pages) and queues on
/// dies and channels as a sim::Semaphore::Waiter whose grant hook starts
/// its service (`handle` names the awaiting coroutine, if any), so
/// issuing, queueing and finishing an op allocates, parks and resumes
/// nothing of its own. It must stay put from FlashArray::Start until
/// `on_done` runs.
class NandOp : public sim::Semaphore::Waiter {
 public:
  enum class Kind : std::uint8_t { kRead, kProgram, kErase, kProbe };

  // Set by the issuer before Start.
  /// Runs once the op finishes, inline in the event that finished it
  /// (not from Start). It may restart or discard the record.
  void (*on_done)(NandOp&) = nullptr;
  PageAddr addr;            // kErase ignores addr.page
  std::uint32_t bytes = 0;  // kRead: bytes transferred (<= page size)
  Kind kind = Kind::kRead;

  // The outcome, valid from on_done on.
  MediaStatus status = MediaStatus::kOk;  // kRead, kProgram
  bool programmed = false;                // kProbe: the page holds data

 private:
  friend class FlashArray;
  enum class Stage : std::uint8_t { kDie, kChannel };
  Stage stage_ = Stage::kDie;  // the server the op waits on or holds
  std::uint32_t retry_steps_ = 0;
  FlashArray* array_ = nullptr;  // the array serving it, from Start
  sim::Time t0_ = 0;         // issue time (trace span start)
  sim::Time svc_begin_ = 0;  // when the current die service began
};

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

  /// Starts `op` (kind, addr, bytes and on_done set). Every grant of a
  /// busy die or channel is the release's zero-delay event and every
  /// service end a timer (DESIGN.md §1.1). Returns false when the op
  /// finished on the spot (a program to a retired block); on_done is then
  /// not called.
  bool Start(NandOp& op);

  /// The awaitable form of one op: the record sits in the awaiting
  /// frame, starts when awaited and resumes the caller inline when done.
  template <typename T>
  class [[nodiscard]] Awaiter : public NandOp {
   public:
    Awaiter(FlashArray& fa, Kind k, PageAddr a, std::uint32_t b = 0)
        : fa_(fa) {
      kind = k;
      addr = a;
      bytes = b;
      on_done = [](NandOp& op) { op.handle.resume(); };
    }
    Awaiter(const Awaiter&) = delete;
    Awaiter& operator=(const Awaiter&) = delete;

    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) {
      handle = h;
      return fa_.Start(*this);
    }
    T await_resume() const noexcept {
      if constexpr (std::is_same_v<T, MediaStatus>) {
        return status;
      } else if constexpr (std::is_same_v<T, bool>) {
        return programmed;
      }
    }

   private:
    FlashArray& fa_;
  };

  /// Reads `bytes` (<= page size) from a programmed page: occupies the die
  /// for tR (plus any read-retry voltage steps under an attached fault
  /// plan), then the channel for the data-out transfer. kReadError means
  /// ECC gave up after the full retry budget; no data is transferred.
  Awaiter<MediaStatus> ReadPage(PageAddr addr, std::uint32_t bytes) {
    return {*this, NandOp::Kind::kRead, addr, bytes};
  }

  /// Programs the next page of a block (addr.page must equal the block's
  /// write pointer): channel data-in transfer, then die busy for tPROG.
  /// A failing program still consumes the page slot (the write pointer
  /// advances) so queued follow-on programs keep the sequential contract;
  /// programs to a retired block fail immediately without die time.
  Awaiter<MediaStatus> ProgramPage(PageAddr addr) {
    return {*this, NandOp::Kind::kProgram, addr};
  }

  /// Erases a block: die busy for tBERS; resets the block write pointer.
  Awaiter<void> EraseBlock(std::uint32_t die, std::uint32_t block) {
    return {*this, NandOp::Kind::kErase, PageAddr{die, block, 0}};
  }

  /// Recovery probe: senses whether `addr` holds programmed data, costing
  /// a full tR of die time (no channel transfer — the controller only
  /// inspects the ECC/meta region). Unlike ReadPage it is legal on
  /// unprogrammed pages; write-pointer rediscovery scans after a power
  /// loss are built from these. Returns true if the page is programmed.
  Awaiter<bool> ProbePage(PageAddr addr) {
    return {*this, NandOp::Kind::kProbe, addr};
  }

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
  // All-zero bytes are every block's initial state (see blocks_).
  static_assert(std::is_trivially_copyable_v<BlockState> &&
                std::is_trivially_destructible_v<BlockState>);
  struct FreeDeleter {
    void operator()(void* p) const noexcept { std::free(p); }
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
  /// Read and program noise (sources kReadNoise and kProgramNoise).
  static constexpr std::size_t kReadNoise = 0;
  static constexpr std::size_t kProgramNoise = 1;
  sim::NoiseStream noise_;
  /// A die or a channel: a one-unit server, the rest wait in arrival
  /// order.
  sim::Semaphore& ServerOf(const NandOp& op) {
    return op.stage_ == NandOp::Stage::kDie
               ? dies_[op.addr.die]
               : channels_[geo_.channel_of({op.addr.die})];
  }
  /// Serves `op` on its server now, or queues it for a release's grant.
  void Serve(NandOp& op) {
    if (ServerOf(op).Take(op)) BeginService(op);
  }
  /// The op holds its server: start the service timer.
  void BeginService(NandOp& op);
  /// The service timer fired: account, release, and move on.
  void EndService(NandOp& op);
  void EndDieService(NandOp& op);

  /// Deques: a Semaphore stays where it is built.
  std::deque<sim::Semaphore> dies_;
  std::deque<sim::Semaphore> channels_;
  /// [die * blocks_per_die + block], calloc'ed: a large table is
  /// demand-zero memory, so no page of it costs a fault until a block on
  /// it is touched (a ZN540's is 3 MiB, mostly never written).
  std::unique_ptr<BlockState[], FreeDeleter> blocks_;
  std::vector<DieStats> die_stats_;
  FlashCounters counters_;
};

}  // namespace zstor::nand
