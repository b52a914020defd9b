#include "zkv/kv_store.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "nvme/tag_buffer.h"
#include "sim/check.h"

namespace zstor::zkv {

using nvme::Command;
using nvme::Opcode;
using nvme::Status;
using nvme::ZoneAction;

namespace {
/// Host-side bytes of a WAL record besides the value (key, seq, length,
/// CRC in a real engine). Padding rounds the record to whole LBAs.
constexpr std::uint64_t kWalHeaderBytes = 24;
/// Pause before the store tries failed device work again: a
/// must-succeed command, a table whose appends outran their retries.
constexpr sim::Time kRetryDelay = sim::Microseconds(500);
/// Attempts a must-succeed command gets before the store aborts.
constexpr int kMustSucceedAttempts = 50;
/// Zones one append tries before it reports failure.
constexpr int kAppendAttempts = 8;

/// The first of `entries` (sorted by key) whose key is not below `key`.
template <typename Entries>
auto LowerBound(Entries& entries, std::uint64_t key) {
  return std::lower_bound(
      entries.begin(), entries.end(), key,
      [](const auto& e, std::uint64_t k) { return e.key < k; });
}
}  // namespace

KvStore::KvStore(sim::Simulator& s, hostif::Stack& stack, Options opt)
    : sim_(s),
      stack_(stack),
      opt_(std::move(opt)),
      lba_bytes_(stack.info().format.lba_bytes),
      alloc_lock_(s, 1),
      gc_lock_(s, 1),
      compact_io_(s, 1),
      flush_done_(s),
      compact_done_(s),
      wal_quiet_(s),
      idle_(s),
      workers_(s) {
  ZSTOR_CHECK(stack_.info().zoned);
  // Two WAL segments + hot open + cold open + one spare for reclaim.
  ZSTOR_CHECK(opt_.zone_count >= 5);
  ZSTOR_CHECK(opt_.zone_count <= stack_.info().num_zones);
  ZSTOR_CHECK(opt_.l0_compact_trigger >= 1);
  ZSTOR_CHECK(opt_.l0_stall_limit >= opt_.l0_compact_trigger);
  ZSTOR_CHECK(opt_.free_zone_low >= 1);
  // A memtable's WAL must fit one log segment with slack (the WAL-full
  // check also rotates early, but the shape should be sane up front).
  ZSTOR_CHECK_MSG(opt_.memtable_bytes * 2 <= zone_cap_lbas() * lba_bytes_,
                  "memtable_bytes too large for one WAL segment");
  zones_.resize(opt_.zone_count - 2);
  for (std::uint32_t z = 2; z < opt_.zone_count; ++z) {
    zones_[ZoneIndex(z)].zone = z;
    free_zones_.push_back(z);
  }
  levels_.resize(kMaxLevels);
  levels_stats_.resize(kMaxLevels);
}

KvStore::~KvStore() { stopping_ = true; }

bool KvStore::IsZoneWriteFailure(Status s) {
  return s == Status::kZoneIsFull || s == Status::kZoneIsReadOnly ||
         s == Status::kZoneIsOffline || s == Status::kTooManyActiveZones ||
         s == Status::kTooManyOpenZones || s == Status::kWriteProhibited ||
         s == Status::kZoneInvalidWrite;
}

nvme::Lba KvStore::ZoneStartLba(std::uint32_t zone) const {
  return static_cast<nvme::Lba>(zone) * stack_.info().zone_size_lbas;
}

std::uint64_t KvStore::zone_cap_lbas() const {
  return stack_.info().zone_cap_lbas;
}

std::uint32_t KvStore::EntryLbas(std::uint64_t bytes) const {
  if (bytes == 0) return 1;
  return static_cast<std::uint32_t>((bytes + lba_bytes_ - 1) / lba_bytes_);
}

KvStore::ZoneClass KvStore::ClassForLevel(std::uint32_t level) const {
  if (!opt_.lifetime_placement) return ZoneClass::kHot;
  return level <= 1 ? ZoneClass::kHot : ZoneClass::kCold;
}

std::uint64_t KvStore::LevelTargetBytes(std::uint32_t level) const {
  double target = static_cast<double>(kLevel1Bytes);
  for (std::uint32_t l = 1; l < level; ++l) target *= kLevelMult;
  return static_cast<std::uint64_t>(target);
}

double KvStore::ZoneGarbage(const ZoneInfo& zi) const {
  if (zi.written_lbas == 0) return 0.0;
  return static_cast<double>(zi.written_lbas - zi.live_lbas) /
         static_cast<double>(zi.written_lbas);
}

KvStore::PaceAwaiter KvStore::Pace(std::uint64_t bytes) const {
  if (opt_.compact_rate_mibps <= 0.0) return {sim_, false, 0};
  const double ns =
      static_cast<double>(bytes) * 1e9 / (opt_.compact_rate_mibps * 1048576.0);
  return {sim_, true, static_cast<sim::Time>(ns)};
}

// ---------------------------------------------------------------------------
// Chores every path shares.
// ---------------------------------------------------------------------------

template <typename Start>
void KvStore::Launch(bool& busy, Start start) {
  ZSTOR_CHECK(!busy);
  busy = true;
  workers_.Add();
  sim::Spawn(Retire(busy, start()));
}

sim::Task<> KvStore::Retire(bool& busy, sim::Task<> job) {
  co_await job;
  busy = false;
  workers_.Done();
  idle_.NotifyAll();
}

sim::Task<nvme::Completion> KvStore::SubmitUntilOk(Command cmd,
                                                   const char* what) {
  for (int attempt = 0;; ++attempt) {
    auto tc = co_await stack_.Submit(cmd);
    if (tc.completion.ok()) co_return tc.completion;
    ZSTOR_CHECK_MSG(attempt + 1 < kMustSucceedAttempts, what);
    co_await sim_.Delay(kRetryDelay);
  }
}

sim::Task<> KvStore::ResetWalSegment(std::uint8_t seg) {
  co_await SubmitUntilOk({.opcode = Opcode::kZoneMgmtSend,
                          .slba = ZoneStartLba(seg),
                          .zone_action = ZoneAction::kReset},
                         "WAL segment reset kept failing");
  wal_used_lbas_[seg] = 0;
  stats_.wal_resets++;
}

void KvStore::EndPhase(sim::Time t0, const char* name, std::int64_t span_a,
                       std::int64_t span_b, std::int64_t window_a,
                       std::int64_t window_b) {
  if (telem_ == nullptr) return;
  telem_->tracer().Span(t0, sim_.now(), telem_->tracer().NextId(),
                        telemetry::Layer::kWorkload, name, span_a, span_b);
  if (auto* tl = telem_->timeline()) {
    tl->Window(t0, sim_.now() - t0, telem_->timeline_label(), 0, name,
               window_a, window_b);
  }
}

// ---------------------------------------------------------------------------
// Write path.
// ---------------------------------------------------------------------------

sim::Task<Status> KvStore::Put(std::uint64_t key, std::uint64_t value_bytes) {
  return PutInternal(key, value_bytes, /*tombstone=*/false);
}

sim::Task<Status> KvStore::Delete(std::uint64_t key) {
  return PutInternal(key, 0, /*tombstone=*/true);
}

sim::Task<> KvStore::StallForRoom() {
  const sim::Time t0 = sim_.now();
  for (;;) {
    if (!imm_.entries.empty() && mem_bytes_ >= opt_.memtable_bytes) {
      co_await flush_done_.Wait();
      continue;
    }
    if (levels_[0].size() >= opt_.l0_stall_limit) {
      co_await compact_done_.Wait();
      continue;
    }
    break;
  }
  if (sim_.now() > t0) stats_.write_stall_ns += sim_.now() - t0;
}

sim::Task<Status> KvStore::PutInternal(std::uint64_t key, std::uint64_t bytes,
                                       bool tombstone) {
  co_await StallForRoom();
  const std::uint32_t lbas = EntryLbas(bytes + kWalHeaderBytes);
  ZSTOR_CHECK_MSG(lbas <= zone_cap_lbas(), "value larger than a log zone");
  // Rotate (stalling on the in-flight flush if needed) until the record
  // fits the active log segment.
  while (wal_used_lbas_[wal_segment_] + lbas > zone_cap_lbas()) {
    const sim::Time t0 = sim_.now();
    while (!imm_.entries.empty()) co_await flush_done_.Wait();
    if (sim_.now() > t0) stats_.write_stall_ns += sim_.now() - t0;
    if (wal_used_lbas_[wal_segment_] + lbas <= zone_cap_lbas()) break;
    // A used segment implies memtable entries.
    ZSTOR_CHECK(!mem_.entries.empty());
    DoRotate();
  }
  WalRecord rec;
  rec.key = key;
  rec.bytes = bytes;
  rec.seq = next_seq_++;
  rec.tombstone = tombstone;
  rec.segment = wal_segment_;
  rec.lbas = lbas;
  rec.tag_base = TakeTags(lbas);
  wal_used_lbas_[rec.segment] += lbas;
  wal_.push_back(rec);
  // Insert into the memtable before awaiting the append so a concurrent
  // rotation moves this entry together with its generation's segment.
  mem_.Upsert(TableEntry{key, bytes, rec.seq, tombstone});
  mem_bytes_ += bytes + kWalHeaderBytes;
  if (tombstone) {
    stats_.deletes++;
  } else {
    stats_.puts++;
    stats_.user_bytes += bytes;
  }
  wal_pending_[rec.segment]++;
  auto tc = co_await stack_.Submit({.opcode = Opcode::kAppend,
                                    .slba = ZoneStartLba(rec.segment),
                                    .nlb = rec.lbas,
                                    .payload_tag = rec.tag_base});
  if (tc.completion.ok()) {
    // Other puts may have grown (moved) the ledger meanwhile.
    if (WalRecord* r = FindWalRecord(rec.seq)) {
      r->acked = true;
      r->lba = tc.completion.result_lba;
      r->epoch = Epoch();
    }
    stats_.wal_appends++;
    stats_.wal_bytes += static_cast<std::uint64_t>(rec.lbas) * lba_bytes_;
  }
  if (--wal_pending_[rec.segment] == 0) wal_quiet_.NotifyAll();
  MaybeRotateMemtable();
  co_return tc.completion.status;
}

KvStore::WalRecord* KvStore::FindWalRecord(std::uint64_t seq) {
  if (wal_.empty() || seq < wal_.front().seq) return nullptr;
  const std::uint64_t i = seq - wal_.front().seq;
  return i < wal_.size() ? &wal_[i] : nullptr;
}

const KvStore::TableEntry* KvStore::Memtable::Find(std::uint64_t key) const {
  auto it = LowerBound(entries, key);
  return it != entries.end() && it->key == key ? &*it : nullptr;
}

void KvStore::Memtable::Upsert(const TableEntry& e) {
  auto it = LowerBound(entries, e.key);
  if (it == entries.end() || it->key != e.key) {
    entries.insert(it, e);
  } else if (e.seq >= it->seq) {
    *it = e;
  }
}

void KvStore::MaybeRotateMemtable() {
  if (!imm_.entries.empty() || mem_.entries.empty()) return;
  if (mem_bytes_ < opt_.memtable_bytes) return;
  DoRotate();
}

void KvStore::DoRotate() {
  ZSTOR_CHECK(imm_.entries.empty() && !mem_.entries.empty());
  mem_.entries.swap(imm_.entries);
  mem_bytes_ = 0;
  imm_last_seq_ = next_seq_;
  imm_segment_ = wal_segment_;
  wal_segment_ ^= 1;
  // The incoming segment was reset when ITS previous memtable flushed.
  ZSTOR_CHECK(wal_used_lbas_[wal_segment_] == 0);
  stats_.memtable_rotations++;
  if (!flush_busy_) Launch(flush_busy_, [this] { return FlushJob(); });
}

sim::Task<> KvStore::FlushJob() {
  while (!imm_.entries.empty() && !stopping_) {
    const sim::Time t0 = sim_.now();
    SsTable* t = co_await BuildTable(imm_.entries.data(), imm_.entries.size(),
                                     0, /*paced=*/false);
    if (t->write_failed) {
      // Appends outran the retry budget (a power outage in progress).
      // Drop the partial table and retry: the data is still in imm_ and
      // its WAL segment, so nothing is lost yet.
      DropTable(t);
      co_await sim_.Delay(kRetryDelay);
      continue;
    }
    stats_.flush_bytes +=
        static_cast<std::uint64_t>(t->data_lbas) * lba_bytes_;
    auto fc = co_await stack_.Submit({.opcode = Opcode::kFlush});
    t->durable = fc.completion.ok() && Epoch() == t->write_epoch;
    if (t->durable) {
      // WAL checkpoint: the flushed generation's records are durable in
      // the SSTable; quiesce in-flight appends to the segment, then
      // reset it for the generation after next.
      const std::uint8_t seg = imm_segment_;
      for (std::size_t i = 0; i < wal_.size() && wal_[i].seq < imm_last_seq_;
           ++i) {
        wal_[i].durable = true;
      }
      while (wal_pending_[seg] > 0) co_await wal_quiet_.Wait();
      co_await ResetWalSegment(seg);
      while (!wal_.empty() && wal_.front().seq < imm_last_seq_) {
        wal_.pop_front();
      }
    }
    InstallTable(t, 0);
    imm_.entries.clear();
    stats_.flushes++;
    const auto bytes = static_cast<std::int64_t>(t->data_bytes);
    EndPhase(t0, "kv.flush", bytes, 0, bytes, 0);
    flush_done_.NotifyAll();
    MaybeScheduleCompaction();
    MaybeScheduleReclaim();
  }
}

// ---------------------------------------------------------------------------
// SSTable construction and zone allocation.
// ---------------------------------------------------------------------------

KvStore::SsTable* KvStore::NewTable() {
  if (free_tables_.empty()) {
    table_pool_.push_back(std::make_unique<SsTable>());
    return table_pool_.back().get();
  }
  SsTable* t = free_tables_.back();
  free_tables_.pop_back();
  // Reset every field; the vectors keep their capacity.
  std::vector<TableEntry> entries = std::move(t->entries);
  std::vector<std::uint32_t> lba_off = std::move(t->lba_off);
  std::vector<Extent> extents = std::move(t->extents);
  *t = SsTable{};
  t->entries = std::move(entries);
  t->lba_off = std::move(lba_off);
  t->extents = std::move(extents);
  t->entries.clear();
  t->lba_off.clear();
  t->extents.clear();
  return t;
}

sim::Task<KvStore::SsTable*> KvStore::BuildTable(const TableEntry* first,
                                                 std::size_t n,
                                                 std::uint32_t level,
                                                 bool paced) {
  ZSTOR_CHECK(n > 0);
  SsTable* t = NewTable();
  t->id = next_table_id_++;
  t->level = level;
  t->entries.assign(first, first + n);
  t->lba_off.reserve(n);
  for (const TableEntry& e : t->entries) {
    t->lba_off.push_back(t->data_lbas);
    t->data_lbas += EntryLbas(e.bytes);
    t->data_bytes += e.bytes;
  }
  t->min_key = t->entries.front().key;
  t->max_key = t->entries.back().key;
  t->write_epoch = Epoch();
  const std::uint64_t tag0 = TakeTags(t->data_lbas);
  std::uint32_t off = 0;
  while (off < t->data_lbas) {
    const std::uint32_t chunk =
        std::min<std::uint32_t>(kMaxAppendLbas, t->data_lbas - off);
    if (paced) co_await Pace(static_cast<std::uint64_t>(chunk) * lba_bytes_);
    Extent e = co_await AppendToSlot(
        open_zone_[static_cast<int>(ClassForLevel(level))], chunk, tag0 + off,
        /*relocation=*/false);
    if (e.lbas == 0) {
      t->write_failed = true;
      break;
    }
    t->extents.push_back(e);
    off += e.lbas;
  }
  stats_.tables_written++;
  co_return t;
}

sim::Task<KvStore::Extent> KvStore::AppendToSlot(std::int64_t& slot,
                                                  std::uint32_t lbas,
                                                  std::uint64_t tag_base,
                                                  bool relocation) {
  for (int attempt = 0; attempt < kAppendAttempts; ++attempt) {
    // Data writers reserve capacity under the allocator lock, and the
    // append itself runs outside it so appends to one zone overlap (R2).
    // Relocation runs under gc_lock_, which the reclaim below waits on:
    // it takes neither the lock nor that path.
    sim::Semaphore::Guard g;
    if (!relocation) {
      g = co_await alloc_lock_.Hold();
      if (slot < 0 && free_zones_.empty()) {
        co_await ReclaimZones(/*need_free=*/true);
      }
    }
    if (slot < 0) {
      ZSTOR_CHECK_MSG(!free_zones_.empty(), "kv store out of zones");
      slot = free_zones_.front();
      free_zones_.pop_front();
      ZoneInfo& fresh = zones_[ZoneIndex(static_cast<std::uint32_t>(slot))];
      ZSTOR_CHECK(fresh.written_lbas == 0 && fresh.live_lbas == 0);
      fresh.open = true;
    }
    ZoneInfo& zi = zones_[ZoneIndex(static_cast<std::uint32_t>(slot))];
    const std::uint64_t remaining = zone_cap_lbas() - zi.written_lbas;
    if (remaining == 0) {
      // Appended to capacity: the zone sealed itself (R3 — no finish).
      zi.open = false;
      slot = -1;
      continue;
    }
    const auto take =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(lbas, remaining));
    zi.written_lbas += take;
    zi.live_lbas += take;
    zi.inflight_lbas += take;
    g.Release();
    auto tc = co_await stack_.Submit({.opcode = Opcode::kAppend,
                                      .slba = ZoneStartLba(zi.zone),
                                      .nlb = take,
                                      .payload_tag = tag_base});
    zi.inflight_lbas -= take;
    if (tc.completion.ok()) {
      co_return Extent{zi.zone, tc.completion.result_lba, take, tag_base};
    }
    zi.live_lbas -= take;
    if (!relocation && !IsZoneWriteFailure(tc.completion.status)) {
      // Retry budget spent (power outage): the device may or may not have
      // landed the data, so ask it, and report failure.
      co_await SettleZone(zi.zone);
      co_return Extent{zi.zone, 0, 0, tag_base};
    }
    // The zone is unusable (degraded or our accounting ran ahead of a
    // crash rollback): poison it and reroute to a fresh zone.
    zi.written_lbas = zone_cap_lbas();
    zi.open = false;
    if (slot == static_cast<std::int64_t>(zi.zone)) slot = -1;
  }
  co_return Extent{0, 0, 0, tag_base};
}

sim::Task<> KvStore::SettleZone(std::uint32_t zone) {
  ZoneInfo& zi = zones_[ZoneIndex(zone)];
  const std::uint64_t reserved0 = zi.written_lbas;
  const std::uint64_t inflight0 = zi.inflight_lbas;
  nvme::ZoneDescriptor d;
  auto tc = co_await stack_.Submit({.opcode = Opcode::kZoneMgmtRecv,
                                    .slba = ZoneStartLba(zone),
                                    .report_max = 1,
                                    .data = &d});
  // A reset, a poisoning or a seal that ran meanwhile closed the zone,
  // and another settle lowered the count; either way this report is
  // stale. A count at capacity is settled too: the failed append may be
  // the one that reserved the zone's last LBAs.
  if (!tc.completion.ok() || tc.completion.count == 0 || !zi.open ||
      zi.written_lbas < reserved0) {
    co_return;
  }
  // Whatever had not landed when the device read its write pointer was
  // in flight at the report's issue or reserved after it.
  const std::uint64_t held = d.write_pointer - d.zslba + inflight0 +
                             (zi.written_lbas - reserved0);
  zi.written_lbas = std::min(zi.written_lbas, held);
}

sim::Task<> KvStore::ResetZone(std::uint32_t zone) {
  auto tc = co_await stack_.Submit({.opcode = Opcode::kZoneMgmtSend,
                                    .slba = ZoneStartLba(zone),
                                    .zone_action = ZoneAction::kReset});
  ZoneInfo& zi = zones_[ZoneIndex(zone)];
  zi.live_lbas = 0;
  zi.open = false;
  if (!tc.completion.ok()) {
    // Leave the zone sealed-and-dead; a later reclaim pass retries.
    zi.written_lbas = zone_cap_lbas();
    co_return;
  }
  zi.written_lbas = 0;
  free_zones_.push_back(zone);
  stats_.zone_resets++;
}

// ---------------------------------------------------------------------------
// Zone reclamation (GC).
// ---------------------------------------------------------------------------

void KvStore::MaybeScheduleReclaim() {
  const bool dead_zone = std::any_of(
      zones_.begin(), zones_.end(), [&](const ZoneInfo& z) {
        return !z.open && z.written_lbas > 0 && z.live_lbas == 0;
      });
  const bool low = free_zones_.size() < opt_.free_zone_low;
  if (!dead_zone && !low) return;
  if (gc_busy_) return;
  Launch(gc_busy_, [this, low] { return ReclaimZones(low); });
}

sim::Task<> KvStore::ReclaimZones(bool need_free) {
  auto g = co_await gc_lock_.Hold();
  const sim::Time t0 = sim_.now();
  std::uint64_t relocated0 = stats_.gc_relocated_bytes;
  std::uint64_t resets0 = stats_.zone_resets;
  stats_.gc_passes++;
  for (;;) {
    // Phase 1 (cheap): reset every sealed zone with no live data. With
    // lifetime placement on, hot zones die wholesale and this is the
    // common exit.
    bool reset_any = false;
    for (ZoneInfo& zi : zones_) {
      if (!zi.open && zi.written_lbas > 0 && zi.live_lbas == 0) {
        co_await ResetZone(zi.zone);
        reset_any = true;
      }
    }
    if (!need_free || free_zones_.size() >= opt_.free_zone_low) break;
    if (reset_any) continue;
    // Phase 2 (expensive): relocate the live remnant of the dirtiest
    // sealed zone, then reset it. This is the relocation traffic
    // placement-off pays and placement-on mostly avoids.
    std::int64_t victim = -1;
    double best = kGcGarbageMin;
    for (std::size_t i = 0; i < zones_.size(); ++i) {
      const ZoneInfo& zi = zones_[i];
      // Any sealed, non-empty zone is a candidate (a partially-written
      // sealed zone — e.g. left behind by crash recovery — still pins
      // its live data).
      if (zi.open || zi.written_lbas == 0) continue;
      const double garbage = ZoneGarbage(zi);
      if (garbage >= best) {
        best = garbage;
        victim = static_cast<std::int64_t>(i);
      }
    }
    if (victim < 0 && !free_zones_.empty()) break;  // nothing reclaimable
    ZSTOR_CHECK_MSG(victim >= 0, "kv store out of space: no GC victim");
    const std::uint32_t vzone = zones_[victim].zone;
    // Snapshot the tables holding live extents in the victim, then move
    // each table's victim-resident runs elsewhere.
    // Tables claimed by a running compaction keep their extents pinned
    // (the compactor is reading them); claim the rest so compaction
    // can't drop a table out from under the relocation loop.
    reclaim_holders_.clear();
    for (const auto& level : levels_) {
      for (SsTable* t : level) {
        if (t->compacting) continue;
        for (const Extent& e : t->extents) {
          if (e.zone == vzone) {
            reclaim_holders_.push_back(t);
            t->compacting = true;
            break;
          }
        }
      }
    }
    const std::uint64_t reloc_before = stats_.gc_relocated_bytes;
    for (SsTable* t : reclaim_holders_) {
      co_await RelocateTablePart(t, vzone);
      t->compacting = false;
    }
    if (compaction_deferred_) {
      // A compaction waited for these claims (PickCompaction).
      compaction_deferred_ = false;
      MaybeScheduleCompaction();
    }
    if (zones_[victim].live_lbas == 0) {
      co_await ResetZone(vzone);
    } else if (stats_.gc_relocated_bytes == reloc_before) {
      // Nothing moved and nothing freed: every live extent in the victim
      // belongs to a table claimed by the running compaction. Looping
      // again would spin without a single co_await (starving the very
      // compactor we are waiting on — the scheduler is cooperative), and
      // parking on compact_done_ here would deadlock if the compactor is
      // itself inside AppendToSlot's reclaim waiting for gc_lock_. End
      // the pass: the compaction's own writes re-trigger reclaim once it
      // finishes.
      ZSTOR_CHECK_MSG(!free_zones_.empty(),
                      "kv store wedged: no free zones and every GC victim "
                      "is pinned by a running compaction");
      break;
    }
  }
  if (telem_ != nullptr &&
      (stats_.gc_relocated_bytes != relocated0 ||
       stats_.zone_resets != resets0)) {
    if (auto* tl = telem_->timeline()) {
      tl->Window(t0, sim_.now() - t0, telem_->timeline_label(), 0, "kv.gc",
                 static_cast<std::int64_t>(stats_.gc_relocated_bytes -
                                           relocated0),
                 static_cast<std::int64_t>(stats_.zone_resets - resets0));
    }
  }
}

sim::Task<> KvStore::RelocateTablePart(SsTable* t, std::uint32_t victim) {
  if (t->dropped) co_return;
  // The table is claimed, so only this loop changes its extents; Gets
  // reading it re-find their position after each read.
  reloc_extents_.clear();
  for (std::size_t i = 0; i < t->extents.size(); ++i) {
    const Extent e = t->extents[i];
    if (e.zone != victim) {
      reloc_extents_.push_back(e);
      continue;
    }
    // Read the live run, rewrite it into the relocation zone (chunked),
    // and splice the replacement extents in place.
    co_await ReadExtent(e, kCompactReadLbas, nullptr);
    std::uint32_t wrote = 0;
    const std::uint64_t tag0 = TakeTags(e.lbas);
    while (wrote < e.lbas) {
      const std::uint32_t chunk =
          std::min<std::uint32_t>(kMaxAppendLbas, e.lbas - wrote);
      co_await Pace(static_cast<std::uint64_t>(chunk) * lba_bytes_);
      Extent ne = co_await AppendToSlot(reloc_zone_, chunk, tag0 + wrote,
                                        /*relocation=*/true);
      ZSTOR_CHECK_MSG(ne.lbas > 0, "relocation append failed");
      reloc_extents_.push_back(ne);
      wrote += ne.lbas;
      stats_.gc_relocated_bytes +=
          static_cast<std::uint64_t>(ne.lbas) * lba_bytes_;
    }
    ZoneInfo& vz = zones_[ZoneIndex(victim)];
    vz.live_lbas -= e.lbas;
  }
  t->extents.swap(reloc_extents_);
}

// ---------------------------------------------------------------------------
// Compaction.
// ---------------------------------------------------------------------------

void KvStore::MaybeScheduleCompaction() {
  if (compact_busy_ || stopping_) return;
  if (!PickCompaction(nullptr)) return;
  Launch(compact_busy_, [this] { return CompactJob(); });
}

sim::Task<> KvStore::CompactJob() {
  while (!stopping_) {
    compact_job_.inputs.clear();
    if (!PickCompaction(&compact_job_)) break;
    co_await RunCompaction();
    compact_done_.NotifyAll();
  }
}

bool KvStore::OverlapClaimed(std::uint32_t level, std::uint64_t lo,
                             std::uint64_t hi) const {
  return std::any_of(levels_[level].begin(), levels_[level].end(),
                     [&](const SsTable* t) {
                       return t->compacting && t->min_key <= hi &&
                              t->max_key >= lo;
                     });
}

bool KvStore::PickCompaction(CompactionJob* job) {
  // A table reclaim has claimed stays where it is, so a job that would
  // have to merge it waits: merging around it would leave an older L0
  // version above the output, or two overlapping tables in one level.
  bool blocked = false;
  // L0 first: overlapping tables pile up and stall writers.
  if (levels_[0].size() >= opt_.l0_compact_trigger) {
    std::uint64_t lo = ~0ull, hi = 0;
    for (const SsTable* t : levels_[0]) {
      lo = std::min(lo, t->min_key);
      hi = std::max(hi, t->max_key);
    }
    if (OverlapClaimed(0, lo, hi) || OverlapClaimed(1, lo, hi)) {
      blocked = true;
    } else {
      if (job == nullptr) return true;
      job->from_level = 0;
      job->inputs.assign(levels_[0].begin(), levels_[0].end());
      for (SsTable* t : levels_[1]) {
        if (t->min_key <= hi && t->max_key >= lo) job->inputs.push_back(t);
      }
      for (SsTable* t : job->inputs) t->compacting = true;
      return true;
    }
  }
  // Deeper levels: size-triggered, zone-garbage-aware victim choice —
  // prefer the table whose zones hold the most dead data, so compacting
  // it turns those zones resettable without relocation.
  for (std::uint32_t l = 1; l + 1 < kMaxLevels; ++l) {
    if (levels_stats_[l].bytes <= LevelTargetBytes(l)) continue;
    SsTable* victim = nullptr;
    double best_score = -1.0;
    for (SsTable* t : levels_[l]) {
      if (t->compacting || OverlapClaimed(l + 1, t->min_key, t->max_key)) {
        blocked = true;
        continue;
      }
      if (job == nullptr) return true;
      std::uint64_t total = 0;
      double weighted = 0.0;
      for (const Extent& e : t->extents) {
        weighted += ZoneGarbage(zones_[ZoneIndex(e.zone)]) * e.lbas;
        total += e.lbas;
      }
      const double score = total == 0 ? 0.0 : weighted / total;
      if (score > best_score ||
          (score == best_score && victim != nullptr && t->id < victim->id)) {
        best_score = score;
        victim = t;
      }
    }
    if (victim == nullptr) continue;
    job->from_level = l;
    job->inputs.push_back(victim);
    for (SsTable* t : levels_[l + 1]) {
      if (t->min_key <= victim->max_key && t->max_key >= victim->min_key) {
        job->inputs.push_back(t);
      }
    }
    for (SsTable* t : job->inputs) t->compacting = true;
    return true;
  }
  // Reclaim reschedules a job that waited on its claims.
  if (blocked) compaction_deferred_ = true;
  return false;
}

void KvStore::MergeInputs(bool drop_tombstones) {
  // Each from_level input is one sorted run; the next level's inputs
  // together form one more. Runs are few (the L0 tables plus one), so
  // the merge scans their heads for the smallest (key ascending, then
  // seq descending).
  const std::vector<SsTable*>& in = compact_job_.inputs;
  auto open = [&](std::size_t first, std::size_t last) {
    const std::vector<TableEntry>& e = in[first]->entries;
    merge_runs_.push_back(
        MergeRun{e.data(), e.data() + e.size(), first + 1, last});
  };
  merge_runs_.clear();
  std::size_t i = 0;
  for (; i < in.size() && in[i]->level == compact_job_.from_level; ++i) {
    open(i, i + 1);
  }
  if (i < in.size()) open(i, in.size());
  merged_.clear();
  bool have_last = false;
  std::uint64_t last_key = 0;
  while (!merge_runs_.empty()) {
    MergeRun* best = &merge_runs_[0];
    for (MergeRun& r : merge_runs_) {
      if (r.cur->key < best->cur->key ||
          (r.cur->key == best->cur->key && r.cur->seq > best->cur->seq)) {
        best = &r;
      }
    }
    const TableEntry& e = *best->cur;
    // The first version of a key is its newest; a tombstone dropped at
    // the last level still hides the older versions behind it.
    if (!have_last || e.key != last_key) {
      have_last = true;
      last_key = e.key;
      if (!(e.tombstone && drop_tombstones)) merged_.push_back(e);
    }
    if (++best->cur != best->end) continue;
    if (best->next != best->last) {
      const std::vector<TableEntry>& next = in[best->next++]->entries;
      best->cur = next.data();
      best->end = next.data() + next.size();
    } else {
      *best = merge_runs_.back();
      merge_runs_.pop_back();
    }
  }
}

sim::Task<> KvStore::RunCompaction() {
  const CompactionJob& job = compact_job_;
  const sim::Time t0 = sim_.now();
  const std::uint32_t out_level = job.from_level + 1;
  std::uint64_t bytes_read = 0;
  // Read every input extent at iterator granularity, one at a time (the
  // background depth stays low so foreground reads keep their slots).
  {
    auto io = co_await compact_io_.Hold();
    for (const SsTable* t : job.inputs) {
      for (const Extent& e : t->extents) {
        co_await ReadExtent(e, kCompactReadLbas, nullptr);
        bytes_read += static_cast<std::uint64_t>(e.lbas) * lba_bytes_;
      }
    }
  }
  // Merge: newest sequence wins; tombstones fall out at the last level.
  MergeInputs(/*drop_tombstones=*/out_level == kMaxLevels - 1);
  // Cut output tables straight from the merge buffer and write them
  // (paced appends to the out level's lifetime class).
  compact_outputs_.clear();
  std::uint64_t bytes_written = 0;
  std::size_t i = 0;
  while (i < merged_.size()) {
    std::size_t end = i;
    std::uint64_t chunk_bytes = 0;
    while (end < merged_.size() &&
           (end == i || chunk_bytes + merged_[end].bytes <= kMaxTableBytes)) {
      chunk_bytes += merged_[end].bytes;
      ++end;
    }
    SsTable* t = co_await BuildTable(merged_.data() + i, end - i, out_level,
                                     /*paced=*/true);
    i = end;
    if (t->write_failed) {
      // Appends outran their retries: drop every output and release the
      // inputs for a later pick.
      DropTable(t);
      for (SsTable* out : compact_outputs_) DropTable(out);
      for (SsTable* in : job.inputs) in->compacting = false;
      co_await sim_.Delay(kRetryDelay);
      co_return;
    }
    bytes_written += static_cast<std::uint64_t>(t->data_lbas) * lba_bytes_;
    compact_outputs_.push_back(t);
  }
  // Durability for the new tables before the inputs go away.
  const std::uint64_t e0 = Epoch();
  auto fc = co_await stack_.Submit({.opcode = Opcode::kFlush});
  const bool durable = fc.completion.ok() && Epoch() == e0;
  for (SsTable* t : compact_outputs_) {
    t->durable = durable && t->write_epoch == e0;
    InstallTable(t, out_level);
  }
  for (SsTable* t : job.inputs) {
    auto& lvl = levels_[t->level];
    lvl.erase(std::remove(lvl.begin(), lvl.end(), t), lvl.end());
    DropTable(t);
  }
  stats_.compactions++;
  stats_.compact_bytes_read += bytes_read;
  stats_.compact_bytes_written += bytes_written;
  levels_stats_[out_level].bytes_compacted += bytes_written;
  levels_stats_[out_level].compactions++;
  EndPhase(t0, "kv.compact", static_cast<std::int64_t>(bytes_read),
           static_cast<std::int64_t>(bytes_written),
           static_cast<std::int64_t>(bytes_written), out_level);
  MaybeScheduleReclaim();
}

void KvStore::InstallTable(SsTable* t, std::uint32_t level) {
  t->level = level;
  t->installed = true;
  if (level == 0) {
    levels_[0].insert(levels_[0].begin(), t);  // newest first
  } else {
    auto& lvl = levels_[level];
    auto pos = std::lower_bound(lvl.begin(), lvl.end(), t,
                                [](const SsTable* a, const SsTable* b) {
                                  return a->min_key < b->min_key;
                                });
    lvl.insert(pos, t);
  }
  levels_stats_[level].tables++;
  levels_stats_[level].bytes += t->data_bytes;
  levels_stats_[level].bytes_in += t->data_bytes;
}

void KvStore::DropTable(SsTable* t) {
  if (t->dropped) return;
  t->dropped = true;
  for (const Extent& e : t->extents) {
    ZoneInfo& zi = zones_[ZoneIndex(e.zone)];
    ZSTOR_CHECK(zi.live_lbas >= e.lbas);
    zi.live_lbas -= e.lbas;
  }
  if (t->installed) {
    LevelStats& ls = levels_stats_[t->level];
    ZSTOR_CHECK(ls.tables > 0);
    ls.tables--;
    ls.bytes -= t->data_bytes;
    stats_.tables_deleted++;
  }
  if (t->readers == 0) free_tables_.push_back(t);
}

// ---------------------------------------------------------------------------
// Read path.
// ---------------------------------------------------------------------------

const KvStore::TableEntry* KvStore::FindInTable(const SsTable* t,
                                                std::uint64_t key) {
  if (key < t->min_key || key > t->max_key) return nullptr;
  auto it = LowerBound(t->entries, key);
  if (it == t->entries.end() || it->key != key) return nullptr;
  return &*it;
}

sim::Task<Status> KvStore::ReadExtentRange(
    Extent e, std::uint32_t lba_off, std::uint32_t lbas, bool verify_tags,
    workload::IntegrityVerifier::Report* rep) {
  // Each verified read leases a tag block of its own, so concurrent
  // reads never share a buffer. Only a WAL record replayed after a crash
  // can outgrow one append; it takes a buffer of its own.
  static_assert(kMaxAppendLbas <= nvme::TagBuffer::kTags);
  std::optional<nvme::TagBuffer> lease;
  std::vector<std::uint64_t> long_tags;
  std::uint64_t* tags = nullptr;
  if (verify_tags && lbas <= kMaxAppendLbas) {
    tags = lease.emplace().data();
  } else if (verify_tags) {
    long_tags.resize(lbas);
    tags = long_tags.data();
  }
  auto tc = co_await stack_.Submit(
      {.opcode = Opcode::kRead,
       .slba = e.lba + lba_off,
       .nlb = lbas,
       .payload_tag = verify_tags ? e.tag_base + lba_off : 0,
       .data = tags});
  stats_.read_ios++;
  if (!tc.completion.ok()) {
    if (rep != nullptr) rep->read_errors += lbas;
    co_return tc.completion.status;
  }
  if (verify_tags) {
    for (std::uint32_t j = 0; j < lbas; ++j) {
      const std::uint64_t want = e.tag_base + lba_off + j;
      const std::uint64_t got = j < tc.completion.count ? tags[j] : 0;
      if (rep != nullptr) {
        rep->lbas_checked++;
        rep->bytes_verified += lba_bytes_;
        if (got == want) {
          rep->exact++;
        } else {
          rep->silent_corruptions++;
        }
      } else if (got != want) {
        stats_.read_tag_mismatches++;
      }
    }
  }
  co_return Status::kSuccess;
}

sim::Task<> KvStore::ReadExtent(Extent e, std::uint32_t chunk,
                                workload::IntegrityVerifier::Report* rep) {
  for (std::uint32_t off = 0; off < e.lbas; off += chunk) {
    const std::uint32_t n = std::min(chunk, e.lbas - off);
    co_await ReadExtentRange(e, off, n, /*verify_tags=*/rep != nullptr, rep);
    if (rep == nullptr) co_await Pace(std::uint64_t{n} * lba_bytes_);
  }
}

sim::Task<Status> KvStore::ReadEntry(SsTable* t, std::size_t idx) {
  // Read the entry's LBAs extent by extent (an entry may straddle an
  // extent split). A relocation may replace t->extents while a read is
  // in flight, so each read copies its extent and the next one is found
  // again by position.
  std::uint32_t at = t->lba_off[idx];
  std::uint32_t want = EntryLbas(t->entries[idx].bytes);
  Status st = Status::kSuccess;
  while (want > 0) {
    std::uint32_t pos = 0;
    std::size_t i = 0;
    while (i < t->extents.size() && pos + t->extents[i].lbas <= at) {
      pos += t->extents[i++].lbas;
    }
    if (i == t->extents.size()) break;
    const Extent e = t->extents[i];
    const std::uint32_t off = at - pos;
    const std::uint32_t take = std::min<std::uint32_t>(e.lbas - off, want);
    const bool verify = !t->dropped;
    Status s = co_await ReadExtentRange(e, off, take, verify, nullptr);
    if (s != Status::kSuccess) st = s;
    want -= take;
    at += take;
  }
  co_return st;
}

const KvStore::TableEntry* KvStore::Lookup(std::uint64_t key,
                                           SsTable** table) const {
  *table = nullptr;
  // Memtables first: no device I/O.
  if (const TableEntry* e = mem_.Find(key)) return e;
  if (const TableEntry* e = imm_.Find(key)) return e;
  return LookupTables(key, table);
}

const KvStore::TableEntry* KvStore::LookupTables(std::uint64_t key,
                                                 SsTable** table) const {
  // L0 newest-first (tables overlap), then one candidate per deeper
  // level (tables are disjoint and sorted).
  for (SsTable* t : levels_[0]) {
    if (const TableEntry* e = FindInTable(t, key)) {
      *table = t;
      return e;
    }
  }
  for (std::uint32_t l = 1; l < kMaxLevels; ++l) {
    const auto& lvl = levels_[l];
    auto it = std::upper_bound(lvl.begin(), lvl.end(), key,
                               [](std::uint64_t k, const SsTable* t) {
                                 return k < t->min_key;
                               });
    if (it == lvl.begin()) continue;
    if (const TableEntry* e = FindInTable(*(it - 1), key)) {
      *table = *(it - 1);
      return e;
    }
  }
  return nullptr;
}

sim::Task<Status> KvStore::Get(std::uint64_t key, bool* found) {
  stats_.gets++;
  if (found != nullptr) *found = false;
  SsTable* t = nullptr;
  const TableEntry* e = Lookup(key, &t);
  const bool live = e != nullptr && !e->tombstone;
  Status st = Status::kSuccess;
  if (t != nullptr) {
    // Pin the table: a compaction may drop it while the read is in
    // flight, and a dropped table must not be reused under the read.
    t->readers++;
    st = co_await ReadEntry(t, static_cast<std::size_t>(e - t->entries.data()));
    if (--t->readers == 0 && t->dropped) free_tables_.push_back(t);
  }
  if (live) {
    stats_.found++;
    if (found != nullptr) *found = true;
  } else {
    stats_.missing++;
  }
  co_return st;
}

sim::Task<> KvStore::Drain() {
  for (;;) {
    MaybeScheduleCompaction();
    MaybeScheduleReclaim();
    if (!flush_busy_ && !compact_busy_ && !gc_busy_ &&
        imm_.entries.empty()) {
      break;
    }
    co_await idle_.Wait();
  }
  // Make the WAL tail durable: the memtable's records survive a crash
  // via replay once their appends leave the device's volatile buffer.
  co_await stack_.Submit({.opcode = Opcode::kFlush});
}

// ---------------------------------------------------------------------------
// Crash recovery.
// ---------------------------------------------------------------------------

sim::Task<workload::IntegrityVerifier::Report> KvStore::RecoverAfterCrash() {
  const sim::Time t0 = sim_.now();
  stats_.crash_recoveries++;
  workload::IntegrityVerifier::Report rep;
  // Quiesce background work first: jobs in flight will observe failed
  // I/O and retire (their tables stay non-durable and are handled here).
  co_await Drain();
  std::vector<nvme::ZoneDescriptor> report(opt_.zone_count);
  const std::uint32_t reported =
      (co_await SubmitUntilOk({.opcode = Opcode::kZoneMgmtRecv,
                               .report_max = opt_.zone_count,
                               .data = report.data()},
                              "zone report kept failing after crash"))
          .count;
  ZSTOR_CHECK(reported == opt_.zone_count);
  // Recovered write pointer (in-zone LBAs) per store zone.
  std::vector<std::uint64_t> wp(opt_.zone_count, 0);
  for (std::uint32_t i = 0; i < opt_.zone_count; ++i) {
    const auto& d = report[i];
    wp[i] = d.write_pointer >= d.zslba ? d.write_pointer - d.zslba : 0;
    wp[i] = std::min<std::uint64_t>(wp[i], zone_cap_lbas());
  }
  // ---- SSTables: drop what was never durable, verify what was --------
  for (auto& lvl : levels_) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < lvl.size(); ++i) {
      SsTable* t = lvl[i];
      // An un-certified table may be torn by the crash. Its records are
      // still WAL-covered (checkpoint only follows durability), so drop
      // it and let replay resurrect the data. A durable table the crash
      // tore lost data that had to survive.
      bool drop = !t->durable;
      for (const Extent& e : t->extents) {
        const std::uint64_t in_zone = e.lba - ZoneStartLba(e.zone);
        if (t->durable && in_zone + e.lbas > wp[e.zone]) {
          const std::uint64_t lost =
              in_zone + e.lbas - std::max(in_zone, wp[e.zone]);
          rep.silent_corruptions += lost;
          rep.lbas_checked += lost;
          drop = true;
        }
      }
      if (drop) {
        DropTable(t);
        stats_.tables_dropped++;
        continue;
      }
      for (const Extent& e : t->extents) {
        co_await ReadExtent(e, kMaxAppendLbas, &rep);
      }
      lvl[kept++] = t;
    }
    lvl.resize(kept);
  }
  // ---- WAL: classify and replay --------------------------------------
  std::vector<const WalRecord*> replay;
  for (std::size_t i = 0; i < wal_.size(); ++i) {
    const WalRecord& r = wal_[i];
    if (r.durable) continue;  // covered by a verified durable table
    const std::uint64_t seg_wp = wp[r.segment];
    if (!r.acked) {
      // The put itself failed; nothing was promised.
      rep.lost_unflushed += r.lbas;
      stats_.wal_lost++;
      continue;
    }
    const std::uint64_t in_zone = r.lba - ZoneStartLba(r.segment);
    if (in_zone + r.lbas > seg_wp) {
      // Wholly or partially beyond the durable prefix: an unflushed
      // write the crash legitimately dropped.
      rep.lost_unflushed += r.lbas;
      stats_.wal_lost++;
      continue;
    }
    Extent e{r.segment, r.lba, r.lbas, r.tag_base};
    auto before = rep.silent_corruptions;
    co_await ReadExtentRange(e, 0, r.lbas, /*verify_tags=*/true, &rep);
    if (rep.silent_corruptions == before) replay.push_back(&r);
  }
  // Rebuild the memtable from the surviving records, newest seq wins.
  mem_.entries.clear();
  mem_bytes_ = 0;
  imm_.entries.clear();
  for (const WalRecord* r : replay) {
    // A surviving table may already hold this version or a newer one: a
    // compaction can certify data whose own flush never did. Replaying
    // the older record would shadow it from L0.
    SsTable* holder = nullptr;
    const TableEntry* in_table = LookupTables(r->key, &holder);
    if (in_table != nullptr && in_table->seq >= r->seq) continue;
    mem_.Upsert(TableEntry{r->key, r->bytes, r->seq, r->tombstone});
    mem_bytes_ += r->bytes + kWalHeaderBytes;
    stats_.wal_replayed++;
  }
  // ---- device state resync -------------------------------------------
  // Every partially-written data zone is treated as sealed (its
  // reservation accounting died with the power loss); live counts are
  // recomputed from the surviving tables.
  for (ZoneInfo& zi : zones_) {
    zi.written_lbas = wp[zi.zone];
    zi.live_lbas = 0;
    zi.open = false;
  }
  for (const auto& lvl : levels_) {
    for (const SsTable* t : lvl) {
      for (const Extent& e : t->extents) {
        zones_[ZoneIndex(e.zone)].live_lbas += e.lbas;
      }
    }
  }
  open_zone_[0] = open_zone_[1] = -1;
  reloc_zone_ = -1;
  free_zones_.clear();
  for (const ZoneInfo& zi : zones_) {
    if (zi.written_lbas == 0) free_zones_.push_back(zi.zone);
  }
  // ---- finish: flush the replayed memtable, restart the log ----------
  if (!mem_.entries.empty()) {
    for (int attempt = 0;; ++attempt) {
      SsTable* t = co_await BuildTable(mem_.entries.data(),
                                       mem_.entries.size(), 0,
                                       /*paced=*/false);
      if (!t->write_failed) {
        const std::uint64_t e0 = Epoch();
        auto fc = co_await stack_.Submit({.opcode = Opcode::kFlush});
        if (fc.completion.ok() && Epoch() == e0 && t->write_epoch == e0) {
          t->durable = true;
          stats_.flush_bytes +=
              static_cast<std::uint64_t>(t->data_lbas) * lba_bytes_;
          InstallTable(t, 0);
          break;
        }
      }
      DropTable(t);  // retry with the same contents
      ZSTOR_CHECK_MSG(attempt < kMustSucceedAttempts,
                      "post-crash flush kept failing");
      co_await sim_.Delay(kRetryDelay);
    }
    mem_.entries.clear();
    mem_bytes_ = 0;
  }
  for (std::uint8_t seg = 0; seg < 2; ++seg) {
    if (wp[seg] == 0) {
      wal_used_lbas_[seg] = 0;
      continue;
    }
    co_await ResetWalSegment(seg);
  }
  wal_.clear();
  wal_segment_ = 0;
  EndPhase(t0, "kv.recover", static_cast<std::int64_t>(rep.lbas_checked),
           static_cast<std::int64_t>(rep.silent_corruptions),
           static_cast<std::int64_t>(rep.lbas_checked),
           static_cast<std::int64_t>(stats_.wal_replayed));
  co_return rep;
}

}  // namespace zstor::zkv
