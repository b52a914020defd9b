// ConvDevice: the conventional (page-mapped FTL) NVMe SSD model.
//
// Write path: FCP -> post stage -> write-back buffer; a drain process
// packs 4 KiB mapping units into 16 KiB NAND pages and programs them
// round-robin across dies. Overwrites invalidate the unit's old physical
// location. When the free-block pool runs low, background GC workers pick
// the fullest-garbage (min-valid) blocks, migrate the surviving units and
// erase — consuming the same dies and channels as host I/O, which is what
// collapses read/write throughput in the paper's Fig. 6.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "ftl/conv_profile.h"
#include "nand/flash_array.h"
#include "nvme/controller.h"
#include "nvme/log_page.h"
#include "nvme/types.h"
#include "sim/resource.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "telemetry/telemetry.h"

namespace zstor::ftl {

struct ConvCounters {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t deallocates = 0;
  std::uint64_t units_trimmed = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t host_units_programmed = 0;
  std::uint64_t gc_invocations = 0;  // MigrateAndErase passes launched
  std::uint64_t gc_units_migrated = 0;
  std::uint64_t gc_blocks_erased = 0;
  /// Commands rejected for host-side reasons (bad field/range).
  std::uint64_t host_rejects = 0;
  /// Commands completed with a media fault status (kMediaReadError...).
  std::uint64_t media_errors = 0;
  std::uint64_t read_faults = 0;     // uncorrectable NAND reads surfaced
  std::uint64_t write_faults = 0;    // NAND program failures absorbed
  std::uint64_t retired_blocks = 0;  // blocks taken out of service
  /// Page programs re-driven into a fresh block after a failure (host
  /// and GC paths; the FTL heals write faults transparently).
  std::uint64_t program_retries = 0;
  std::uint64_t flushes = 0;
  // Mapping journal (DESIGN.md §11). Journal/checkpoint programs are
  // charged as write-amplification units only — metadata programs ride
  // idle die bandwidth, so non-crash timing is unchanged.
  std::uint64_t journal_syncs = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t journal_units_written = 0;  // journal + checkpoint units
  // Power-loss crash/recovery (zero without injected crashes).
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t crash_lost_units = 0;    // buffered units rolled back
  std::uint64_t journal_reverted_entries = 0;  // unsynced deltas undone
  std::uint64_t recovery_replay_entries = 0;   // journal tail replayed
  std::uint64_t recovery_ns_total = 0;
  std::uint64_t reset_drops = 0;  // commands failed with kDeviceReset

  /// Write amplification: NAND unit programs (host data + GC migration +
  /// mapping journal/checkpoints) per host unit write.
  double WriteAmplification() const {
    return host_units_programmed == 0
               ? 1.0
               : 1.0 + (static_cast<double>(gc_units_migrated) +
                        static_cast<double>(journal_units_written)) /
                           static_cast<double>(host_units_programmed);
  }

  /// Every counter under the "conv." prefix (the field-table protocol;
  /// see telemetry/metrics.h).
  static constexpr telemetry::CounterField<ConvCounters> kFields[] = {
      {"conv.reads", &ConvCounters::reads},
      {"conv.writes", &ConvCounters::writes},
      {"conv.deallocates", &ConvCounters::deallocates},
      {"conv.units_trimmed", &ConvCounters::units_trimmed},
      {"conv.bytes_read", &ConvCounters::bytes_read},
      {"conv.bytes_written", &ConvCounters::bytes_written},
      {"conv.host_units_programmed", &ConvCounters::host_units_programmed},
      {"conv.gc_invocations", &ConvCounters::gc_invocations},
      {"conv.gc_units_migrated", &ConvCounters::gc_units_migrated},
      {"conv.gc_blocks_erased", &ConvCounters::gc_blocks_erased},
      {"conv.host_rejects", &ConvCounters::host_rejects},
      {"conv.media_errors", &ConvCounters::media_errors},
      {"conv.read_faults", &ConvCounters::read_faults},
      {"conv.write_faults", &ConvCounters::write_faults},
      {"conv.retired_blocks", &ConvCounters::retired_blocks},
      {"conv.program_retries", &ConvCounters::program_retries},
      {"conv.flushes", &ConvCounters::flushes},
      {"conv.journal_syncs", &ConvCounters::journal_syncs},
      {"conv.checkpoints", &ConvCounters::checkpoints},
      {"conv.journal_units_written", &ConvCounters::journal_units_written},
      {"conv.crashes", &ConvCounters::crashes},
      {"conv.recoveries", &ConvCounters::recoveries},
      {"conv.crash_lost_units", &ConvCounters::crash_lost_units},
      {"conv.journal_reverted_entries",
       &ConvCounters::journal_reverted_entries},
      {"conv.recovery_replay_entries", &ConvCounters::recovery_replay_entries},
      {"conv.recovery_ns_total", &ConvCounters::recovery_ns_total},
      {"conv.reset_drops", &ConvCounters::reset_drops},
  };

  void Describe(telemetry::MetricsRegistry& m) const {
    telemetry::SetFields(*this, m);
    m.GetGauge("conv.write_amplification").Set(WriteAmplification());
  }
};
static_assert(telemetry::ListsEveryFieldOnce<ConvCounters>());

class ConvDevice : public nvme::Controller {
 public:
  ConvDevice(sim::Simulator& s, ConvProfile profile);

  const nvme::NamespaceInfo& info() const override { return info_; }
  sim::Task<nvme::Completion> Execute(const nvme::Command& cmd) override;

  /// Enables FTL-side tracing/metrics (non-owning; null disables). Also
  /// attaches the NAND array.
  void AttachTelemetry(telemetry::Telemetry* t);

  /// Injects media faults into the NAND backend (non-owning; null
  /// disables) and arms any scheduled power losses (`crash=US`).
  void AttachFaultPlan(fault::FaultPlan* p);

  /// Injects a power loss right now, then runs the modeled recovery.
  /// Loss semantics (DESIGN.md §11): buffered (un-programmed) host units
  /// roll back to their pre-write mapping, unsynced journal deltas are
  /// reverted, in-flight commands complete with kDeviceReset, and the
  /// recovery replays the journal tail since the last checkpoint —
  /// recovery time scales with journal_sync_interval.
  sim::Task<> CrashNow();

  const ConvProfile& profile() const { return profile_; }
  const ConvCounters& counters() const { return counters_; }
  /// Bumped by every power loss; see ZnsDevice::power_epoch().
  std::uint64_t power_epoch() const { return power_epoch_; }
  sim::Time last_recovery_ns() const { return last_recovery_ns_; }
  nand::FlashArray& flash() { return *flash_; }
  std::uint32_t free_blocks() const { return free_total_; }

  // ---- log pages (nvme/log_page.h) ------------------------------------
  // Free introspection: no virtual time, no counter side effects.
  /// SMART-like page: host + media activity, GC stats, write amplification.
  nvme::SmartLog GetSmartLog() const;
  /// Per-die service counts and utilization.
  nvme::DieUtilLog GetDieUtilLog() const;

  /// Maps the whole logical space sequentially without simulated I/O —
  /// the "precondition the drive" step every SSD GC experiment needs
  /// (the paper's drives are aged; see DESIGN.md §6).
  void DebugPrefill();

 private:
  static constexpr std::uint32_t kUnmapped = ~0u;
  // A unit in the volatile write buffer maps to kBuffered | origin, where
  // origin is its last durable physical unit (what a power loss rolls it
  // back to), or kNoOrigin when it has none. Physical units fit in 31
  // bits, so no buffered value collides with a physical unit or kUnmapped.
  static constexpr std::uint32_t kBuffered = 1u << 31;
  static constexpr std::uint32_t kNoOrigin = kBuffered - 2;
  static bool IsBuffered(std::uint32_t l2p) {
    return l2p != kUnmapped && (l2p & kBuffered) != 0;
  }
  /// The l2p_ value of a buffered unit whose rollback target is `origin`
  /// (a physical unit or kUnmapped); OriginOf inverts it.
  static std::uint32_t BufferedWithOrigin(std::uint32_t origin) {
    return kBuffered | (origin == kUnmapped ? kNoOrigin : origin);
  }
  static std::uint32_t OriginOf(std::uint32_t l2p) {
    const std::uint32_t origin = l2p & ~kBuffered;
    return origin == kNoOrigin ? kUnmapped : origin;
  }
  /// Host programs carry at most this many units per NAND page.
  static constexpr std::uint32_t kMaxUnitsPerPage = 16;

  struct Block {
    std::uint32_t valid = 0;          // live units in this block
    std::uint32_t write_ptr_units = 0;
    std::uint32_t inflight = 0;       // programs issued, mapping pending
    std::vector<std::uint64_t> valid_bitmap;  // one bit per unit slot
    bool open = false;                // currently receiving programs
    bool gc_busy = false;             // being migrated/erased
    bool retired = false;             // failed a program; out of service
  };

  // ---- unit/address arithmetic ---------------------------------------
  std::uint32_t units_per_block() const {
    return profile_.nand_geometry.pages_per_block * profile_.units_per_page();
  }
  std::uint32_t BlockIdOf(std::uint32_t die, std::uint32_t block) const {
    return die * profile_.nand_geometry.blocks_per_die + block;
  }
  std::uint32_t DieOfBlockId(std::uint32_t block_id) const {
    return block_id / profile_.nand_geometry.blocks_per_die;
  }
  std::uint32_t BlockOfBlockId(std::uint32_t block_id) const {
    return block_id % profile_.nand_geometry.blocks_per_die;
  }
  std::uint32_t PhysUnit(std::uint32_t block_id, std::uint32_t unit) const {
    return block_id * units_per_block() + unit;
  }

  // ---- FTL state mutation ---------------------------------------------
  void InvalidateUnit(std::uint32_t logical_unit);
  void MapUnit(std::uint32_t logical_unit, std::uint32_t phys_unit);
  bool TestValid(const Block& b, std::uint32_t unit) const;
  void SetValid(Block& b, std::uint32_t unit, bool v);

  /// Builds the free-block pool and GC reserve once the (optional)
  /// prefill has claimed its blocks. Runs lazily before the first I/O.
  void FinalizeLayout();

  // ---- data paths ------------------------------------------------------
  sim::Task<nvme::Completion> DoRead(nvme::Command cmd);
  sim::Task<nvme::Completion> DoWrite(nvme::Command cmd);
  sim::Task<nvme::Completion> DoDeallocate(nvme::Command cmd);
  /// Durability barrier: drains the write buffer (padding any partial
  /// page out to NAND) and force-syncs the mapping journal.
  sim::Task<nvme::Completion> DoFlush(nvme::Command cmd);
  /// `failed` (nullable) is set when the page read comes back bad — a
  /// fan-out read reports the command-level worst case through it.
  sim::Task<> ReadPhysPage(std::uint64_t page_id, sim::WaitGroup* wg,
                           nand::MediaStatus* failed);
  /// Admits one logical unit into the buffer and schedules programs.
  /// `epoch` is the power epoch of the issuing command; admission after a
  /// crash is a no-op (the command is failing with kDeviceReset anyway).
  sim::Task<> AdmitUnit(std::uint32_t logical_unit, std::uint64_t epoch);
  /// One NAND page worth of buffered logical units, carried by value.
  struct PageUnits {
    std::array<std::uint32_t, kMaxUnitsPerPage> unit;
    std::uint32_t count = 0;
  };
  /// Programs one NAND page holding `units` pending logical units. A
  /// stale-epoch completion releases its resources without mapping —
  /// the crash already rolled those units back.
  sim::Task<> ProgramHostPage(PageUnits units, std::uint64_t epoch);

  // ---- mapping journal & crash path (DESIGN.md §11) -------------------
  struct JournalEntry {
    std::uint32_t unit;
    std::uint32_t old_phys;  // kUnmapped when the unit was fresh
    std::uint32_t new_phys;  // kUnmapped for a trim
  };
  /// Records one L2P delta; auto-syncs every journal_sync_interval.
  void JournalAppend(std::uint32_t unit, std::uint32_t old_phys,
                     std::uint32_t new_phys);
  /// Makes all pending deltas durable, charging journal (and possibly
  /// checkpoint) write-amplification units.
  void SyncJournal();
  /// Drops buffered units' rollback origins inside a block about to be
  /// erased (found through their p2l_ back-pointers) — once erased, the
  /// old copy cannot back a crash rollback.
  void ForgetBufferedOldInBlock(std::uint32_t block_id);
  sim::Task<> CrashDriver(std::vector<sim::Time> at);

  // Payload-tag store (integrity model; tag follows the data: committed
  // per physical unit at program time, copied by GC, reverted with the
  // journal). Allocated lazily on the first tagged write.
  void CommitTag(std::uint32_t phys_unit, std::uint64_t tag);
  std::uint64_t TagOfLogical(std::uint32_t logical_unit) const;
  /// Pops a free block (suspends while the pool is empty — this is the
  /// host-write stall that produces the Fig. 6a throughput collapses).
  sim::Task<std::uint32_t> AcquireFreeBlock(std::uint32_t preferred_die);
  void ReleaseErasedBlock(std::uint32_t block_id);

  // ---- GC ---------------------------------------------------------------
  void MaybeWakeGc();
  std::uint32_t PickVictim();
  /// Takes a (possibly partially filled) GC output block; full blocks are
  /// retired to the regular population and new ones come from the
  /// reserve. Output blocks are shared across migrations so no space
  /// leaks in partial blocks.
  std::uint32_t TakeGcOpenBlock();
  void ReturnGcOpenBlock(std::uint32_t block_id);
  sim::Task<> MigrateAndErase(std::uint32_t victim);
  sim::Task<> ReadVictimPage(nand::PageAddr addr, sim::WaitGroup* wg);
  /// Takes a retired block out of every allocation path (free pools never
  /// see it again; its valid units stay mapped and readable). Returns
  /// true if the block was newly retired.
  bool RetireBlock(std::uint32_t block_id);
  /// Programs one page's slice of the survivors. The vector lives in the
  /// MigrateAndErase frame, which joins `wg` before it exits.
  sim::Task<> GcProgramPage(
      std::uint32_t block_id, std::uint32_t page,
      std::span<const std::pair<std::uint32_t, std::uint32_t>> batch,
      sim::WaitGroup* wg, std::uint64_t epoch);

  sim::Time Noise(sim::Time t);
  telemetry::Tracer* trace() const {
    return telem_ != nullptr ? &telem_->tracer() : nullptr;
  }
  /// Same guard for timeline records (GC activity windows). A conv
  /// device is never striped, so its lane is always 0.
  telemetry::TimelineWriter* timeline() const {
    return telem_ != nullptr ? telem_->timeline() : nullptr;
  }

  telemetry::Telemetry* telem_ = nullptr;
  sim::Simulator& sim_;
  ConvProfile profile_;
  nvme::NamespaceInfo info_;
  std::unique_ptr<nand::FlashArray> flash_;
  sim::PriorityResource fcp_;
  sim::Semaphore buffer_slots_;      // units of buffered host data
  sim::Rng rng_;

  std::vector<std::uint32_t> l2p_;   // logical unit -> phys unit/sentinel
  /// phys unit -> logical unit, or kUnmapped. An invalid unit that is a
  /// buffered unit's rollback origin points back at that logical unit.
  std::vector<std::uint32_t> p2l_;
  std::vector<Block> blocks_;        // by block id
  std::vector<std::deque<std::uint32_t>> free_blocks_;  // per die
  std::unique_ptr<sim::Semaphore> free_sem_;  // counts the host pool
  std::deque<std::uint32_t> gc_reserve_;      // GC-private blocks
  std::deque<std::uint32_t> gc_open_pool_;    // partial GC output blocks
  std::uint32_t free_total_ = 0;
  bool layout_done_ = false;

  /// Host write packing: units waiting to fill the next NAND page.
  PageUnits pending_units_;
  std::uint32_t next_die_rr_ = 0;  // round-robin allocation stream
  /// One allocation stream per die index; the stream's current block may
  /// physically live on another die when the preferred die has no free
  /// blocks.
  std::vector<std::uint32_t> host_open_block_;
  std::vector<std::unique_ptr<sim::Semaphore>> die_alloc_;

  std::uint32_t gc_running_ = 0;
  bool gc_target_active_ = false;
  ConvCounters counters_;
  sim::WaitGroup inflight_programs_;

  // ---- mapping journal & crash state (DESIGN.md §11) ------------------
  /// Unsynced L2P deltas: reverted (in reverse) by a power loss, made
  /// durable by SyncJournal. A GC erase force-syncs first, so no entry
  /// here ever references an erased block.
  std::vector<JournalEntry> journal_tail_;
  /// Synced entries since the last checkpoint — the recovery replay tail.
  std::uint64_t journal_entries_since_checkpoint_ = 0;
  std::uint32_t journal_syncs_since_checkpoint_ = 0;
  /// Payload tags for buffered units, keyed by logical unit.
  std::unordered_map<std::uint32_t, std::uint64_t> pending_tags_;
  /// Payload tags by physical unit; empty until the first tagged write.
  std::vector<std::uint64_t> tags_by_phys_;
  fault::FaultPlan* faults_ = nullptr;
  bool crash_driver_armed_ = false;
  bool crashed_ = false;
  std::uint64_t power_epoch_ = 0;
  sim::Time last_recovery_ns_ = 0;
};

}  // namespace zstor::ftl
