// ConvDevice: the conventional (page-mapped FTL) NVMe SSD model.
//
// Built on zns::ControllerCore, the controller skeleton it shares with
// the ZNS model (FCP, write-buffer slots counted in mapping units, noise
// RNG, NAND array, power-loss outage); this class is the mapping policy.
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
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ftl/conv_profile.h"
#include "nand/flash_array.h"
#include "nvme/log_page.h"
#include "nvme/types.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "telemetry/telemetry.h"
#include "zns/controller_core.h"

namespace zstor::ftl {

struct ConvCounters : zns::DeviceCounters {
  std::uint64_t deallocates = 0;
  std::uint64_t units_trimmed = 0;
  std::uint64_t host_units_programmed = 0;
  std::uint64_t gc_invocations = 0;  // MigrateAndErase passes launched
  std::uint64_t gc_units_migrated = 0;
  std::uint64_t gc_blocks_erased = 0;
  /// Page programs re-driven into a fresh block after a failure (host
  /// and GC paths; the FTL heals write faults transparently).
  std::uint64_t program_retries = 0;
  // Mapping journal (DESIGN.md §11). Journal/checkpoint programs are
  // charged as write-amplification units only — metadata programs ride
  // idle die bandwidth, so non-crash timing is unchanged.
  std::uint64_t journal_syncs = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t journal_units_written = 0;  // journal + checkpoint units
  // Power-loss detail (zero without injected crashes).
  std::uint64_t crash_lost_units = 0;    // buffered units rolled back
  std::uint64_t journal_reverted_entries = 0;  // unsynced deltas undone
  std::uint64_t recovery_replay_entries = 0;   // journal tail replayed

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

class ConvDevice : public zns::ControllerCore {
 public:
  ConvDevice(sim::Simulator& s, ConvProfile profile);

  /// Injects a power loss right now, then runs the modeled recovery.
  /// Loss semantics (DESIGN.md §11): buffered (un-programmed) host units
  /// roll back to their pre-write mapping, unsynced journal deltas are
  /// reverted, in-flight commands complete with kDeviceReset, and the
  /// recovery replays the journal tail since the last checkpoint —
  /// recovery time scales with journal_sync_interval.
  sim::Task<> CrashNow() override;

  const ConvProfile& profile() const { return profile_; }
  const ConvCounters& counters() const { return counters_; }
  nand::FlashArray& flash() { return *flash_; }
  std::uint32_t free_blocks() const { return free_total_; }

  // ---- log pages (nvme/log_page.h) ------------------------------------
  // Free introspection: no virtual time, no counter side effects.
  /// SMART-like page: host + media activity, GC stats, write amplification.
  nvme::SmartLog GetSmartLog() const;

  /// Maps the whole logical space sequentially without simulated I/O —
  /// the "precondition the drive" step every SSD GC experiment needs
  /// (the paper's drives are aged; see DESIGN.md §6).
  void DebugPrefill();

 private:
  friend struct ConvDeviceInternals;  // tests/ftl/conv_prefill_test.cc

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
    std::uint32_t die = 0;            // where the block lives
    std::uint32_t block = 0;          // its index on that die
    std::uint32_t valid = 0;          // live units in this block
    std::uint32_t write_ptr_units = 0;
    std::uint32_t inflight = 0;       // programs issued, mapping pending
    bool open = false;                // currently receiving programs
    bool gc_busy = false;             // being migrated/erased
    bool retired = false;             // failed a program; out of service
  };

  // ---- unit/address arithmetic ---------------------------------------
  // Units per page and pages per block are powers of two, so a physical
  // unit splits into (block id, page, unit) by shift and mask.
  std::uint32_t units_per_page() const { return 1u << unit_shift_; }
  std::uint32_t units_per_block() const { return 1u << block_shift_; }
  std::uint32_t BlockIdOf(std::uint32_t die, std::uint32_t block) const {
    return die * profile_.nand_geometry.blocks_per_die + block;
  }
  std::uint32_t DieOfBlockId(std::uint32_t block_id) const {
    return blocks_[block_id].die;
  }
  std::uint32_t BlockOfBlockId(std::uint32_t block_id) const {
    return blocks_[block_id].block;
  }
  std::uint32_t PhysUnit(std::uint32_t block_id, std::uint32_t unit) const {
    return (block_id << block_shift_) + unit;
  }
  std::uint32_t BlockIdOfPhys(std::uint32_t phys_unit) const {
    return phys_unit >> block_shift_;
  }

  // ---- FTL state mutation ---------------------------------------------
  void InvalidateUnit(std::uint32_t logical_unit);
  void MapUnit(std::uint32_t logical_unit, std::uint32_t phys_unit);
  /// Whether physical unit `phys` holds live data (valid_bits_).
  bool TestValid(std::uint32_t phys) const {
    return (valid_bits_[phys >> 6] >> (phys & 63)) & 1;
  }
  void SetValid(std::uint32_t phys, bool v);

  /// Builds the layout on first use, then hands `cmd` to its handler.
  std::optional<sim::Task<nvme::Completion>> Dispatch(
      const nvme::Command& cmd) override;

  /// Builds the free-block pool and GC reserve once the (optional)
  /// prefill has claimed its blocks. Runs lazily before the first I/O.
  void FinalizeLayout();

  // ---- data paths ------------------------------------------------------
  /// The range check read, write and trim share: kInvalidField for no
  /// LBAs, kLbaOutOfRange past the namespace, else kSuccess.
  nvme::Status ValidateIoRange(const nvme::Command& cmd) const;
  sim::Task<nvme::Completion> DoRead(nvme::Command cmd);
  sim::Task<nvme::Completion> DoWrite(nvme::Command cmd);
  sim::Task<nvme::Completion> DoDeallocate(nvme::Command cmd);
  /// Durability barrier: drains the write buffer (padding any partial
  /// page out to NAND) and force-syncs the mapping journal.
  sim::Task<nvme::Completion> DoFlush(nvme::Command cmd);
  /// Where flat physical page `page_id` (block id * pages per block +
  /// page) lives.
  nand::PageAddr AddrOfPhysPage(std::uint64_t page_id) const;
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
  /// Takes a retired block out of every allocation path (free pools never
  /// see it again; its valid units stay mapped and readable). Returns
  /// true if the block was newly retired.
  bool RetireBlock(std::uint32_t block_id);

  struct GcWorker;
  /// One victim page of a GC migration in flight: the NAND op record and
  /// what the migration does once it finishes (the completion hook).
  struct GcPageOp : nand::NandOp {
    ConvDevice* dev = nullptr;
    GcWorker* worker = nullptr;
    std::uint32_t block_id = 0;  // program: the output block
    std::uint32_t first = 0;     // program: this page's survivors slice
  };
  /// What one MigrateAndErase pass reuses from victim to victim: the
  /// snapshot of surviving units, (logical, old phys) pairs, and one op
  /// record per victim page. There are gc_workers of them.
  struct GcWorker {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> survivors;
    std::vector<GcPageOp> ops;
    sim::WaitGroup* wg = nullptr;  // the pass's join, in its frame
    std::uint64_t epoch = 0;       // the pass's power epoch
  };
  static void OnGcReadDone(nand::NandOp& op);
  static void OnGcProgramDone(nand::NandOp& op);
  /// Programs one page's slice of the survivors, restaging it into a
  /// fresh GC block on a program failure.
  void StartGcProgram(GcPageOp& op);
  void FinishGcProgram(GcPageOp& op);

  ConvProfile profile_;

  std::vector<std::uint32_t> l2p_;   // logical unit -> phys unit/sentinel
  /// phys unit -> logical unit, or kUnmapped. An invalid unit that is a
  /// buffered unit's rollback origin points back at that logical unit.
  std::vector<std::uint32_t> p2l_;
  std::vector<Block> blocks_;        // by block id
  /// One valid bit per physical unit, by physical unit number.
  std::vector<std::uint64_t> valid_bits_;
  std::uint32_t unit_shift_ = 0;   // log2 units per page
  std::uint32_t page_shift_ = 0;   // log2 pages per block
  std::uint32_t block_shift_ = 0;  // log2 units per block
  /// FIFO of block ids on a ring sized once. A block sits in at most one
  /// pool at a time, so a ring as large as its possible members never
  /// fills, and cycling blocks allocates nothing (a std::deque frees and
  /// reallocates a chunk every 128 ids).
  class BlockFifo {
   public:
    explicit BlockFifo(std::size_t capacity = 0) : ring_(capacity) {}
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::uint32_t front() const { return ring_[head_]; }
    void push_back(std::uint32_t id) {
      ZSTOR_CHECK(size_ < ring_.size());
      ring_[(head_ + size_++) % ring_.size()] = id;
    }
    void pop_front() {
      head_ = (head_ + 1) % ring_.size();
      --size_;
    }

   private:
    std::vector<std::uint32_t> ring_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  std::vector<BlockFifo> free_blocks_;  // per die
  std::unique_ptr<sim::Semaphore> free_sem_;  // counts the host pool
  BlockFifo gc_reserve_;    // GC-private blocks
  BlockFifo gc_open_pool_;  // partial GC output blocks
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
  std::vector<GcWorker> gc_workers_;
  std::vector<GcWorker*> gc_idle_workers_;
  /// DoRead's distinct physical pages, rebuilt by each read before it
  /// first suspends.
  std::vector<std::uint64_t> read_pages_;
  ConvCounters counters_;

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
};

}  // namespace zstor::ftl
