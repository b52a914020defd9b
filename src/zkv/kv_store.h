// zkv: a zone-aware LSM key-value engine on the hostif::Stack API
// (DESIGN.md §13).
//
// The paper motivates ZNS as a substrate for log-structured application
// stacks (§II-C: ZenFS, LSM key-value stores); zkv is that stack, built
// the way the paper's recommendations say it should be:
//
//   R1  data moves as large zone appends (Options::max_append_lbas per
//       command; SSTables and WAL records are append-only),
//   R2  appends to one zone stay concurrent — capacity is reserved under
//       a short allocator lock but the appends themselves overlap, the
//       device assigns the LBAs,
//   R3  zones are sealed by appending to capacity, never by Zone Finish
//       (a full zone costs nothing to seal; finishing an almost-empty
//       zone costs ~900 ms, Fig. 5b),
//   R4  lifetime-based placement: low levels (memtable flushes, L0/L1
//       compaction output) are short-lived and go to the "hot" open
//       zone; high levels are long-lived and go to the "cold" open zone,
//       so zones die wholesale and reset without relocation,
//   R5  compaction overlaps foreground I/O: a background coroutine with
//       its own (low) I/O depth, never stopping the world — foreground
//       pays only the write stalls the LSM shape itself imposes.
//
// Structure: puts append a WAL record to one of two dedicated log zones
// (segment per memtable generation; the segment is reset once its
// memtable's SSTable is durable — a WAL "checkpoint"), then land in the
// in-memory memtable. Full memtables rotate to an immutable twin that a
// background coroutine flushes as one sorted SSTable written in large
// appends and made durable by an NVMe Flush. Leveled, zone-garbage-aware
// compaction merges overlapping tables downward, preferring victims
// whose zones hold the most garbage so zone reclamation is cheap; a
// separate reclaim pass resets fully-dead zones and relocates the
// remnants of mostly-dead ones when free zones run low.
//
// Integrity rides the payload-tag channel (nvme::Command::payload_tag):
// every WAL and SSTable LBA carries a unique tag, reads request tag
// readback, and RecoverAfterCrash() re-reads the durable state after a
// power loss, replays the WAL, and classifies every ledgered LBA into
// the workload::IntegrityVerifier taxonomy (exact / lost-unflushed /
// silent corruption).
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "hostif/stack.h"
#include "nvme/types.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "telemetry/telemetry.h"
#include "workload/verifier.h"
#include "workload/ycsb.h"
#include "zkv/ring.h"

namespace zstor::zkv {

/// Everything the engine counts, exported via Describe() as kv.* metrics.
struct KvStats {
  // Foreground operations.
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t deletes = 0;
  std::uint64_t found = 0;          // gets that hit a live value
  std::uint64_t missing = 0;        // gets that found nothing (or tombstone)
  std::uint64_t user_bytes = 0;     // value bytes accepted from callers
  // Write-ahead log.
  std::uint64_t wal_appends = 0;
  std::uint64_t wal_bytes = 0;      // bytes appended to log zones (padded)
  std::uint64_t wal_resets = 0;     // checkpoints: log segment resets
  // Memtable / flush pipeline.
  std::uint64_t memtable_rotations = 0;
  std::uint64_t flushes = 0;        // SSTable builds from immutable memtables
  std::uint64_t flush_bytes = 0;    // bytes appended by flushes
  std::uint64_t tables_written = 0;
  std::uint64_t tables_deleted = 0;
  // Compaction.
  std::uint64_t compactions = 0;
  std::uint64_t compact_bytes_read = 0;
  std::uint64_t compact_bytes_written = 0;
  // Zone reclamation.
  std::uint64_t gc_passes = 0;
  std::uint64_t gc_relocated_bytes = 0;  // live bytes moved off victims
  std::uint64_t zone_resets = 0;
  // Stalls and reads.
  std::uint64_t write_stall_ns = 0;  // foreground time parked on the LSM
  std::uint64_t read_ios = 0;        // device reads issued by gets
  std::uint64_t read_tag_mismatches = 0;  // integrity check on every get
  // Crash recovery.
  std::uint64_t crash_recoveries = 0;
  std::uint64_t wal_replayed = 0;    // records re-inserted by replay
  std::uint64_t wal_lost = 0;        // unflushed records the crash dropped
  std::uint64_t tables_dropped = 0;  // non-durable tables discarded

  /// Total device write traffic per byte of user data: WAL + flush +
  /// compaction + relocation over user_bytes. The device itself adds no
  /// amplification (ZNS, Obs. 11) — this is the whole stack's WA.
  double WriteAmplification() const {
    if (user_bytes == 0) return 1.0;
    return static_cast<double>(wal_bytes + flush_bytes +
                               compact_bytes_written + gc_relocated_bytes) /
           static_cast<double>(user_bytes);
  }

  /// Every counter under the "kv." prefix (the field-table protocol;
  /// see telemetry/metrics.h).
  static constexpr telemetry::CounterField<KvStats> kFields[] = {
      {"kv.puts", &KvStats::puts},
      {"kv.gets", &KvStats::gets},
      {"kv.deletes", &KvStats::deletes},
      {"kv.found", &KvStats::found},
      {"kv.missing", &KvStats::missing},
      {"kv.user_bytes", &KvStats::user_bytes},
      {"kv.wal_appends", &KvStats::wal_appends},
      {"kv.wal_bytes", &KvStats::wal_bytes},
      {"kv.wal_resets", &KvStats::wal_resets},
      {"kv.memtable_rotations", &KvStats::memtable_rotations},
      {"kv.flushes", &KvStats::flushes},
      {"kv.flush_bytes", &KvStats::flush_bytes},
      {"kv.tables_written", &KvStats::tables_written},
      {"kv.tables_deleted", &KvStats::tables_deleted},
      {"kv.compactions", &KvStats::compactions},
      {"kv.compact_bytes_read", &KvStats::compact_bytes_read},
      {"kv.compact_bytes_written", &KvStats::compact_bytes_written},
      {"kv.gc_passes", &KvStats::gc_passes},
      {"kv.gc_relocated_bytes", &KvStats::gc_relocated_bytes},
      {"kv.zone_resets", &KvStats::zone_resets},
      {"kv.write_stall_ns", &KvStats::write_stall_ns},
      {"kv.read_ios", &KvStats::read_ios},
      {"kv.read_tag_mismatches", &KvStats::read_tag_mismatches},
      {"kv.crash_recoveries", &KvStats::crash_recoveries},
      {"kv.wal_replayed", &KvStats::wal_replayed},
      {"kv.wal_lost", &KvStats::wal_lost},
      {"kv.tables_dropped", &KvStats::tables_dropped},
  };

  void Describe(telemetry::MetricsRegistry& m) const {
    telemetry::SetFields(*this, m);
    m.GetGauge("kv.write_amplification").Set(WriteAmplification());
  }
};
static_assert(telemetry::ListsEveryFieldOnce<KvStats>());

/// Per-level shape and write-amplification accounting.
struct LevelStats {
  std::uint64_t tables = 0;         // current table count
  std::uint64_t bytes = 0;          // current user bytes resident
  std::uint64_t bytes_in = 0;       // cumulative bytes installed here
  std::uint64_t bytes_compacted = 0;  // cumulative bytes written by
                                      // compactions INTO this level
  std::uint64_t compactions = 0;    // compactions that output here
};

class KvStore : public workload::KvBackend {
 public:
  struct Options {
    /// The store owns zones [0, zone_count). Zones 0 and 1 are the two
    /// WAL segments; the rest hold SSTables.
    std::uint32_t zone_count = 12;
    /// Memtable rotation threshold (value bytes). Must fit a WAL
    /// segment: checked against zone capacity at construction.
    std::uint64_t memtable_bytes = 256 * 1024;
    /// L0 table count that triggers compaction / stalls writers.
    std::uint32_t l0_compact_trigger = 4;
    std::uint32_t l0_stall_limit = 8;
    /// Background compaction+GC rate limit in MiB/s (0 = unthrottled).
    /// Real LSMs throttle background I/O to protect foreground tails;
    /// the interference bench uses it to stretch `kv.compact` windows.
    double compact_rate_mibps = 0.0;
    /// Lifetime-based placement (R4): route L0/L1 output and flushes to
    /// the hot open zone, deeper levels to the cold one. Off = one
    /// shared open zone for everything (the placement-off baseline).
    bool lifetime_placement = true;
    /// Reclaim when free zones drop below this.
    std::uint32_t free_zone_low = 2;
    /// Returns the device's power epoch (fault::FaultPlan crashes bump
    /// it). Sampled at flush acknowledgment: a flush only certifies
    /// durability when the epoch did not change. Unset = no crashes.
    std::function<std::uint64_t()> crash_epoch;
  };

  KvStore(sim::Simulator& s, hostif::Stack& stack, Options opt);
  ~KvStore() override;

  /// Enables kv.* trace spans and `kv.compact`/`kv.flush`/`kv.gc`
  /// timeline windows (non-owning; null disables).
  void AttachTelemetry(telemetry::Telemetry* t) { telem_ = t; }

  // ---- workload::KvBackend -------------------------------------------
  /// Appends a WAL record, inserts into the memtable, and applies the
  /// LSM's write-stall discipline. Returns the WAL append status.
  sim::Task<nvme::Status> Put(std::uint64_t key,
                              std::uint64_t value_bytes) override;
  /// Looks up newest-version-first (memtable, immutable, L0 newest to
  /// oldest, then one candidate table per deeper level), charging one
  /// ranged device read for the entry it lands on. *found (optional)
  /// reports whether a live value existed.
  sim::Task<nvme::Status> Get(std::uint64_t key, bool* found) override;
  sim::Task<nvme::Status> Delete(std::uint64_t key);

  /// Suspends until no flush, compaction, or reclaim work remains. Call
  /// before reading final stats or tearing down the simulation.
  sim::Task<> Drain();

  /// Post-crash pass: zone-report the store's range, discard what the
  /// power loss legitimately dropped, replay the WAL, re-read and
  /// tag-verify every surviving ledgered LBA, and classify the lot into
  /// the IntegrityVerifier taxonomy. The store is usable again after.
  sim::Task<workload::IntegrityVerifier::Report> RecoverAfterCrash();

  const KvStats& stats() const { return stats_; }
  const std::vector<LevelStats>& level_stats() const { return levels_stats_; }

 private:
  friend struct KvStoreInternals;  // tests/zkv/kv_store_internals.h

  // ---- fixed shape ---------------------------------------------------
  /// Leveled shape: level L >= 1 targets kLevel1Bytes * kLevelMult^(L-1).
  static constexpr std::uint32_t kMaxLevels = 4;
  static constexpr std::uint64_t kLevel1Bytes = 1 << 20;
  static constexpr double kLevelMult = 4.0;
  /// Largest SSTable a compaction emits before cutting a new one.
  static constexpr std::uint64_t kMaxTableBytes = 1 << 20;
  /// Blocks per append command (R1: keep this large).
  static constexpr std::uint32_t kMaxAppendLbas = 64;
  /// Blocks per compaction read (table iteration granularity; small,
  /// like an un-readahead LSM iterator).
  static constexpr std::uint32_t kCompactReadLbas = 4;
  /// Reclaim victims need at least this garbage fraction before
  /// relocation is worth it.
  static constexpr double kGcGarbageMin = 0.05;

  // ---- on-device layout ----------------------------------------------
  /// One contiguous appended run of an SSTable. `tag_base` tags the
  /// extent's first LBA; LBA i holds tag_base + i.
  struct Extent {
    std::uint32_t zone = 0;
    nvme::Lba lba = 0;
    std::uint32_t lbas = 0;
    std::uint64_t tag_base = 0;
  };

  struct TableEntry {
    std::uint64_t key = 0;
    std::uint64_t bytes = 0;     // value size (0 allowed)
    std::uint64_t seq = 0;       // newer wins
    bool tombstone = false;
  };

  /// SSTables live in a store-owned pool (NewTable) and are addressed by
  /// raw pointer. A dropped table goes back to the pool, keeping its
  /// vectors' capacity, once no suspended Get pins it (`readers`).
  struct SsTable {
    std::uint64_t id = 0;
    std::uint32_t level = 0;
    std::vector<TableEntry> entries;      // sorted by key
    std::vector<std::uint32_t> lba_off;   // entry i starts at LBA offset
    std::uint32_t data_lbas = 0;          // total LBAs incl. padding
    std::uint64_t data_bytes = 0;         // sum of value bytes
    std::vector<Extent> extents;
    bool durable = false;                 // certified by a same-epoch flush
    bool compacting = false;              // claimed by compaction or GC
    bool installed = false;               // counted in a level's shape
    bool dropped = false;                 // removed (extents are garbage)
    bool write_failed = false;            // an append outran its retries
    std::uint32_t readers = 0;            // Gets suspended on its entries
    std::uint64_t write_epoch = 0;        // power epoch when written
    std::uint64_t min_key = 0, max_key = 0;
  };

  /// One memtable generation: entries sorted by key, one per key (the
  /// newest seq wins). mem_ and imm_ swap storage on rotation, so a warm
  /// store reuses both arrays.
  struct Memtable {
    std::vector<TableEntry> entries;
    const TableEntry* Find(std::uint64_t key) const;
    void Upsert(const TableEntry& e);
  };

  /// Host-side ledger of one WAL record (one put/delete).
  struct WalRecord {
    std::uint64_t key = 0;
    std::uint64_t bytes = 0;
    std::uint64_t seq = 0;
    bool tombstone = false;
    std::uint8_t segment = 0;    // which WAL zone
    nvme::Lba lba = 0;           // from the append completion
    std::uint32_t lbas = 0;
    std::uint64_t tag_base = 0;
    bool acked = false;          // append completed successfully
    std::uint64_t epoch = 0;     // power epoch at acknowledgment
    bool durable = false;        // covering SSTable flush certified
  };

  enum class ZoneClass : std::uint8_t { kHot = 0, kCold = 1 };
  struct ZoneInfo {
    std::uint32_t zone = 0;       // logical zone number
    std::uint64_t written_lbas = 0;
    std::uint64_t live_lbas = 0;
    bool open = false;            // currently an allocation target
  };

  // ---- helpers ---------------------------------------------------------
  static bool IsZoneWriteFailure(nvme::Status s);
  nvme::Lba ZoneStartLba(std::uint32_t zone) const;
  /// Index of a DATA zone in zones_ (zones_[0] is the first zone after
  /// the two WAL segments).
  std::uint32_t ZoneIndex(std::uint32_t zone) const {
    return zone - 2;
  }
  std::uint64_t zone_cap_lbas() const;
  std::uint64_t Epoch() const {
    return opt_.crash_epoch ? opt_.crash_epoch() : 0;
  }
  std::uint64_t TakeTags(std::uint64_t n) {
    std::uint64_t t = next_tag_;
    next_tag_ += n;
    return t;
  }
  std::uint32_t EntryLbas(std::uint64_t bytes) const;
  ZoneClass ClassForLevel(std::uint32_t level) const;
  std::uint64_t LevelTargetBytes(std::uint32_t level) const;
  double ZoneGarbage(const ZoneInfo& zi) const;
  /// Background-rate pacing (compact_rate_mibps) for `bytes` of I/O:
  /// an awaitable delay, ready at once when unthrottled. Not a coroutine,
  /// so the per-chunk call costs no frame.
  struct PaceAwaiter {
    sim::Simulator& sim;
    bool paced;
    sim::Time delay;
    bool await_ready() const noexcept { return !paced; }
    void await_suspend(std::coroutine_handle<> h) { sim.ResumeIn(delay, h); }
    void await_resume() const noexcept {}
  };
  PaceAwaiter Pace(std::uint64_t bytes) const;

  // ---- chores every path shares ----------------------------------------
  /// Runs a background job (flush, compaction or reclaim) whose `busy`
  /// flag is clear. Tasks start eagerly, so the flag is set and the job
  /// counted in workers_ before `start()` creates it; Retire clears both
  /// and wakes Drain() when the job ends.
  template <typename Start>
  void Launch(bool& busy, Start start);
  sim::Task<> Retire(bool& busy, sim::Task<> job);
  /// Submits `cmd` until it succeeds, kRetryDelay apart; aborts with
  /// `what` once kMustSucceedAttempts attempts failed.
  sim::Task<nvme::Completion> SubmitUntilOk(nvme::Command cmd,
                                            const char* what);
  /// Resets WAL zone `seg` (a checkpoint, or the post-crash restart of
  /// the log) and marks it empty.
  sim::Task<> ResetWalSegment(std::uint8_t seg);
  /// Ends a flush, compaction or recovery begun at t0: a `name` trace
  /// span carrying (span_a, span_b) and a timeline window carrying
  /// (window_a, window_b).
  void EndPhase(sim::Time t0, const char* name, std::int64_t span_a,
                std::int64_t span_b, std::int64_t window_a,
                std::int64_t window_b);

  // ---- write path ------------------------------------------------------
  sim::Task<nvme::Status> PutInternal(std::uint64_t key, std::uint64_t bytes,
                                      bool tombstone);
  /// The ledger record of `seq`, or null once a checkpoint retired it.
  WalRecord* FindWalRecord(std::uint64_t seq);
  sim::Task<> StallForRoom();        // L0 / imm backpressure, counts stall ns
  void MaybeRotateMemtable();        // rotate when the memtable is full
  void DoRotate();                   // mem_ -> imm_, switch WAL segment
  sim::Task<> FlushJob();            // background: imm_ -> L0 SSTable
  /// A pooled table, reset but for its vectors' capacity.
  SsTable* NewTable();
  /// Copies entries [first, first + n) (sorted by key) into a new table
  /// before its first suspension, then appends the table's data.
  sim::Task<SsTable*> BuildTable(const TableEntry* first, std::size_t n,
                                 std::uint32_t level, bool paced);
  /// Appends up to `lbas` blocks to the zone in `slot` (an open_zone_
  /// entry, or reloc_zone_), filling an empty slot from the free list:
  /// reserves the capacity, seals a zone appended to capacity, poisons a
  /// zone that refused the append, and returns the extent written
  /// (lbas == 0 reports failure). Data writers reserve under alloc_lock_,
  /// reclaim when no zone is free, and keep the reservation of an append
  /// that failed for another reason. Relocation (under gc_lock_) does
  /// neither and poisons every zone that fails it.
  sim::Task<Extent> AppendToSlot(std::int64_t& slot, std::uint32_t lbas,
                                 std::uint64_t tag_base, bool relocation);
  sim::Task<> ResetZone(std::uint32_t zone);
  void MaybeScheduleReclaim();
  sim::Task<> ReclaimZones(bool need_free);   // GC pass (serialized)
  sim::Task<> RelocateTablePart(SsTable* t, std::uint32_t victim);

  // ---- compaction ------------------------------------------------------
  /// A merge cursor: the head entry of its current table, and the
  /// compaction inputs [next, last) it walks after that table.
  struct MergeRun {
    const TableEntry* cur = nullptr;
    const TableEntry* end = nullptr;
    std::size_t next = 0, last = 0;
  };
  struct CompactionJob {
    std::uint32_t from_level = 0;
    /// The from_level tables (each one sorted run), then the overlapping
    /// from_level + 1 tables (disjoint and in key order: one run).
    std::vector<SsTable*> inputs;
  };
  void MaybeScheduleCompaction();
  sim::Task<> CompactJob();
  /// Picks and claims the next job into *job; with a null job only says
  /// whether one exists.
  bool PickCompaction(CompactionJob* job);
  /// True when a table of `level` overlapping [lo, hi] is claimed.
  bool OverlapClaimed(std::uint32_t level, std::uint64_t lo,
                      std::uint64_t hi) const;
  sim::Task<> RunCompaction();       // runs compact_job_
  /// Merges compact_job_'s sorted runs into merged_: key ascending, the
  /// newest seq of each key only, tombstones dropped at the last level.
  void MergeInputs(bool drop_tombstones);
  void InstallTable(SsTable* t, std::uint32_t level);
  /// Extents -> garbage, stats; the table returns to the pool unless a
  /// Get still reads it.
  void DropTable(SsTable* t);
  /// One ranged read inside an extent. With verify_tags, tags feed `rep`
  /// when given (recovery classification) or the mismatch counter
  /// otherwise (foreground integrity checking).
  sim::Task<nvme::Status> ReadExtentRange(
      Extent e, std::uint32_t lba_off, std::uint32_t lbas, bool verify_tags,
      workload::IntegrityVerifier::Report* rep);
  /// Reads all of `e`, `chunk` blocks at a time. Without `rep` (compaction
  /// and relocation) each read is paced and unverified; with it
  /// (recovery) every block's tag is verified into `rep`.
  sim::Task<> ReadExtent(Extent e, std::uint32_t chunk,
                         workload::IntegrityVerifier::Report* rep);

  // ---- read path -------------------------------------------------------
  /// The newest version of `key` Get resolves to (null: none). A hit in
  /// an SSTable stores the table in *table, a memtable hit null.
  const TableEntry* Lookup(std::uint64_t key, SsTable** table) const;
  /// Lookup's SSTable half (the memtables skipped).
  const TableEntry* LookupTables(std::uint64_t key, SsTable** table) const;
  sim::Task<nvme::Status> ReadEntry(SsTable* t, std::size_t idx);
  static const TableEntry* FindInTable(const SsTable* t, std::uint64_t key);

  sim::Simulator& sim_;
  hostif::Stack& stack_;
  Options opt_;
  std::uint32_t lba_bytes_;
  telemetry::Telemetry* telem_ = nullptr;

  // LSM state.
  Memtable mem_;
  std::uint64_t mem_bytes_ = 0;
  Memtable imm_;  // the immutable generation awaiting its flush, or empty
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_table_id_ = 1;
  std::uint64_t next_tag_ = 1;       // 0 = untagged on the wire
  /// levels_[0] newest-first, overlapping; levels_[1..] sorted by
  /// min_key, disjoint.
  std::vector<std::vector<SsTable*>> levels_;
  std::vector<LevelStats> levels_stats_;
  std::vector<std::unique_ptr<SsTable>> table_pool_;  // owns every table
  std::vector<SsTable*> free_tables_;  // dropped and unread

  // WAL state.
  std::uint8_t wal_segment_ = 0;           // active segment (0/1)
  std::uint64_t wal_used_lbas_[2] = {0, 0};
  std::uint64_t wal_pending_[2] = {0, 0};  // appends in flight per segment
  Ring<WalRecord> wal_;                    // ledger, consecutive seqs
  std::uint64_t imm_last_seq_ = 0;         // one past imm_'s highest seq
  std::uint8_t imm_segment_ = 0;           // segment covering imm_

  // Zone state.
  std::vector<ZoneInfo> zones_;            // data zones, by index
  Ring<std::uint32_t> free_zones_;         // logical zone numbers
  std::int64_t open_zone_[2] = {-1, -1};   // per class; -1 = none
  std::int64_t reloc_zone_ = -1;           // GC's private output zone
  sim::Semaphore alloc_lock_;           // capacity reservation + rotation
  sim::Semaphore gc_lock_;              // one reclaim pass at a time
  sim::Semaphore compact_io_;           // background I/O depth = 1

  // Background workers.
  bool stopping_ = false;
  bool flush_busy_ = false;
  bool compact_busy_ = false;
  bool gc_busy_ = false;
  bool compaction_deferred_ = false;  // a pick waited for reclaim claims
  sim::Condition flush_done_;    // wakes memtable-rotation stalls
  sim::Condition compact_done_;  // wakes L0 stalls
  sim::Condition wal_quiet_;     // per-segment appends drained
  sim::Condition idle_;          // wakes Drain()
  sim::WaitGroup workers_;

  // Buffers the background jobs reuse (one compactor, one reclaim pass
  // at a time).
  CompactionJob compact_job_;
  std::vector<MergeRun> merge_runs_;
  std::vector<TableEntry> merged_;         // compaction output entries
  std::vector<SsTable*> compact_outputs_;
  std::vector<SsTable*> reclaim_holders_;
  std::vector<Extent> reloc_extents_;

  KvStats stats_;
};

}  // namespace zstor::zkv
