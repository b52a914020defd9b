#include "zkv/kv_store.h"

#include <algorithm>
#include <utility>

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
  ZSTOR_CHECK(opt_.first_zone + opt_.zone_count <= stack_.info().num_zones);
  ZSTOR_CHECK(opt_.max_levels >= 2);
  ZSTOR_CHECK(opt_.l0_compact_trigger >= 1);
  ZSTOR_CHECK(opt_.l0_stall_limit >= opt_.l0_compact_trigger);
  ZSTOR_CHECK(opt_.max_append_lbas > 0);
  ZSTOR_CHECK(opt_.compact_read_lbas > 0);
  ZSTOR_CHECK(opt_.free_zone_low >= 1);
  // A memtable's WAL must fit one log segment with slack (the WAL-full
  // check also rotates early, but the shape should be sane up front).
  ZSTOR_CHECK_MSG(opt_.memtable_bytes * 2 <= zone_cap_lbas() * lba_bytes_,
                  "memtable_bytes too large for one WAL segment");
  zones_.resize(opt_.zone_count - 2);
  for (std::uint32_t z = opt_.first_zone + 2;
       z < opt_.first_zone + opt_.zone_count; ++z) {
    zones_[ZoneIndex(z)].zone = z;
    free_zones_.push_back(z);
  }
  levels_.resize(opt_.max_levels);
  levels_stats_.resize(opt_.max_levels);
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
  double target = static_cast<double>(opt_.level1_bytes);
  for (std::uint32_t l = 1; l < level; ++l) target *= opt_.level_mult;
  return static_cast<std::uint64_t>(target);
}

double KvStore::ZoneGarbage(const ZoneInfo& zi) const {
  if (zi.written_lbas == 0) return 0.0;
  return static_cast<double>(zi.written_lbas - zi.live_lbas) /
         static_cast<double>(zi.written_lbas);
}

sim::Task<> KvStore::Pace(std::uint64_t bytes) {
  if (opt_.compact_rate_mibps <= 0.0) co_return;
  const double ns =
      static_cast<double>(bytes) * 1e9 / (opt_.compact_rate_mibps * 1048576.0);
  co_await sim_.Delay(static_cast<sim::Time>(ns));
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
    if (imm_ != nullptr && mem_bytes_ >= opt_.memtable_bytes) {
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
    while (imm_ != nullptr) co_await flush_done_.Wait();
    if (sim_.now() > t0) stats_.write_stall_ns += sim_.now() - t0;
    if (wal_used_lbas_[wal_segment_] + lbas <= zone_cap_lbas()) break;
    ZSTOR_CHECK(!mem_.empty());  // a used segment implies memtable entries
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
  WalRecord& r = wal_.back();
  // Insert into the memtable before awaiting the append so a concurrent
  // rotation moves this entry together with its generation's segment.
  MemValue& mv = mem_[key];
  if (r.seq >= mv.seq) mv = MemValue{bytes, r.seq, tombstone};
  mem_bytes_ += bytes + kWalHeaderBytes;
  if (tombstone) {
    stats_.deletes++;
  } else {
    stats_.puts++;
    stats_.user_bytes += bytes;
  }
  wal_pending_[r.segment]++;
  const Status st = co_await WalAppend(r);
  if (--wal_pending_[r.segment] == 0) wal_quiet_.NotifyAll();
  MaybeRotateMemtable();
  co_return st;
}

sim::Task<Status> KvStore::WalAppend(WalRecord& rec) {
  auto tc = co_await stack_.Submit(
      {.opcode = Opcode::kAppend,
       .slba = ZoneStartLba(opt_.first_zone + rec.segment),
       .nlb = rec.lbas,
       .payload_tag = rec.tag_base});
  if (!tc.completion.ok()) co_return tc.completion.status;
  rec.acked = true;
  rec.lba = tc.completion.result_lba;
  rec.epoch = Epoch();
  stats_.wal_appends++;
  stats_.wal_bytes += static_cast<std::uint64_t>(rec.lbas) * lba_bytes_;
  co_return Status::kSuccess;
}

void KvStore::MaybeRotateMemtable() {
  if (imm_ != nullptr || mem_.empty()) return;
  if (mem_bytes_ < opt_.memtable_bytes) return;
  DoRotate();
}

void KvStore::DoRotate() {
  ZSTOR_CHECK(imm_ == nullptr);
  imm_ = std::make_unique<Memtable>(std::move(mem_));
  mem_.clear();
  mem_bytes_ = 0;
  imm_first_seq_ = mem_first_seq_;
  imm_last_seq_ = next_seq_;
  imm_segment_ = wal_segment_;
  mem_first_seq_ = next_seq_;
  wal_segment_ ^= 1;
  // The incoming segment was reset when ITS previous memtable flushed.
  ZSTOR_CHECK(wal_used_lbas_[wal_segment_] == 0);
  stats_.memtable_rotations++;
  if (!flush_busy_) {
    flush_busy_ = true;
    workers_.Add();
    sim::Spawn(FlushJob());
  }
}

sim::Task<> KvStore::FlushJob() {
  while (imm_ != nullptr && !stopping_) {
    const sim::Time t0 = sim_.now();
    std::vector<TableEntry> entries;
    entries.reserve(imm_->size());
    for (const auto& [k, v] : *imm_) {
      entries.push_back(TableEntry{k, v.bytes, v.seq, v.tombstone});
    }
    TablePtr t;
    co_await BuildTable(std::move(entries), 0, /*paced=*/false, &t);
    if (t->write_failed) {
      // Appends outran the retry budget (a power outage in progress).
      // Drop the partial table and retry: the data is still in imm_ and
      // its WAL segment, so nothing is lost yet.
      DropTable(t);
      co_await sim_.Delay(sim::Microseconds(500));
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
      for (WalRecord& r : wal_) {
        if (r.seq < imm_last_seq_) r.durable = true;
      }
      while (wal_pending_[seg] > 0) co_await wal_quiet_.Wait();
      for (int attempt = 0; attempt < 50; ++attempt) {
        auto rc = co_await stack_.Submit(
            {.opcode = Opcode::kZoneMgmtSend,
             .slba = ZoneStartLba(opt_.first_zone + seg),
             .zone_action = ZoneAction::kReset});
        if (rc.completion.ok()) break;
        ZSTOR_CHECK_MSG(attempt < 49, "WAL segment reset kept failing");
        co_await sim_.Delay(sim::Microseconds(500));
      }
      wal_used_lbas_[seg] = 0;
      stats_.wal_resets++;
      while (!wal_.empty() && wal_.front().seq < imm_last_seq_) {
        wal_.pop_front();
      }
    }
    InstallTable(t, 0);
    imm_.reset();
    imm_first_seq_ = 0;
    stats_.flushes++;
    if (telem_ != nullptr) {
      telem_->tracer().Span(t0, sim_.now(), telemetry::Tracer::NextCmdId(),
                            telemetry::Layer::kWorkload, "kv.flush",
                            static_cast<std::int64_t>(t->data_bytes), 0);
      if (auto* tl = telem_->timeline()) {
        tl->Window(t0, sim_.now() - t0, telem_->timeline_label(), 0,
                   "kv.flush", static_cast<std::int64_t>(t->data_bytes), 0);
      }
    }
    flush_done_.NotifyAll();
    MaybeScheduleCompaction();
    MaybeScheduleReclaim();
  }
  flush_busy_ = false;
  workers_.Done();
  idle_.NotifyAll();
}

// ---------------------------------------------------------------------------
// SSTable construction and zone allocation.
// ---------------------------------------------------------------------------

sim::Task<> KvStore::BuildTable(std::vector<TableEntry> entries,
                                std::uint32_t level, bool paced,
                                TablePtr* out) {
  auto t = std::make_shared<SsTable>();
  t->id = next_table_id_++;
  t->level = level;
  t->entries = std::move(entries);
  t->lba_off.reserve(t->entries.size());
  for (const TableEntry& e : t->entries) {
    t->lba_off.push_back(t->data_lbas);
    t->data_lbas += EntryLbas(e.bytes);
    t->data_bytes += e.bytes;
  }
  ZSTOR_CHECK(!t->entries.empty());
  t->min_key = t->entries.front().key;
  t->max_key = t->entries.back().key;
  t->write_epoch = Epoch();
  const std::uint64_t tag0 = TakeTags(t->data_lbas);
  std::uint32_t off = 0;
  while (off < t->data_lbas) {
    const std::uint32_t chunk =
        std::min<std::uint32_t>(opt_.max_append_lbas, t->data_lbas - off);
    if (paced) co_await Pace(static_cast<std::uint64_t>(chunk) * lba_bytes_);
    Extent e = co_await AppendChunk(ClassForLevel(level), chunk, tag0 + off);
    if (e.lbas == 0) {
      t->write_failed = true;
      break;
    }
    t->extents.push_back(e);
    off += e.lbas;
  }
  stats_.tables_written++;
  *out = std::move(t);
}

sim::Task<KvStore::Extent> KvStore::AppendChunk(ZoneClass cls,
                                                std::uint32_t lbas,
                                                std::uint64_t tag_base) {
  const int ci = static_cast<int>(cls);
  for (int attempt = 0; attempt < 8; ++attempt) {
    std::uint32_t zone = 0;
    std::uint32_t take = 0;
    {
      // Reserve capacity under the allocator lock; the append itself
      // runs outside it so appends to one zone overlap (R2).
      auto g = co_await alloc_lock_.Hold();
      while (open_zone_[ci] < 0) {
        open_zone_[ci] = static_cast<std::int64_t>(co_await TakeOpenZone());
      }
      ZoneInfo& zi = zones_[ZoneIndex(static_cast<std::uint32_t>(
          open_zone_[ci]))];
      const std::uint64_t remaining = zone_cap_lbas() - zi.written_lbas;
      if (remaining == 0) {
        // Appended to capacity: the zone sealed itself (R3 — no finish).
        zi.open = false;
        open_zone_[ci] = -1;
        continue;
      }
      take = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(lbas, remaining));
      zi.written_lbas += take;
      zi.live_lbas += take;
      zone = zi.zone;
    }
    auto tc = co_await stack_.Submit({.opcode = Opcode::kAppend,
                                      .slba = ZoneStartLba(zone),
                                      .nlb = take,
                                      .payload_tag = tag_base});
    const Status st = tc.completion.status;
    if (tc.completion.ok()) {
      co_return Extent{zone, tc.completion.result_lba, take, tag_base};
    }
    ZoneInfo& zi = zones_[ZoneIndex(zone)];
    zi.live_lbas -= take;
    if (IsZoneWriteFailure(st)) {
      // The zone is unusable (degraded or our accounting ran ahead of a
      // crash rollback): poison it and reroute to a fresh zone.
      zi.written_lbas = zone_cap_lbas();
      zi.open = false;
      if (open_zone_[ci] == static_cast<std::int64_t>(zone)) {
        open_zone_[ci] = -1;
      }
      continue;
    }
    // Retry budget spent (power outage): leave the reservation in place
    // (the device may have landed the data) and report failure.
    co_return Extent{zone, 0, 0, tag_base};
  }
  co_return Extent{0, 0, 0, tag_base};
}

sim::Task<std::uint32_t> KvStore::TakeOpenZone() {
  if (free_zones_.empty()) {
    co_await ReclaimZones(/*need_free=*/true);
  }
  ZSTOR_CHECK_MSG(!free_zones_.empty(), "kv store out of zones");
  const std::uint32_t zone = free_zones_.front();
  free_zones_.pop_front();
  ZoneInfo& zi = zones_[ZoneIndex(zone)];
  ZSTOR_CHECK(zi.written_lbas == 0 && zi.live_lbas == 0);
  zi.open = true;
  co_return zone;
}

sim::Task<> KvStore::ResetZone(std::uint32_t zone) {
  auto tc = co_await stack_.Submit({.opcode = Opcode::kZoneMgmtSend,
                                    .slba = ZoneStartLba(zone),
                                    .zone_action = ZoneAction::kReset});
  ZoneInfo& zi = zones_[ZoneIndex(zone)];
  if (!tc.completion.ok()) {
    // Leave the zone sealed-and-dead; a later reclaim pass retries.
    zi.written_lbas = zone_cap_lbas();
    zi.live_lbas = 0;
    zi.open = false;
    co_return;
  }
  zi.written_lbas = 0;
  zi.live_lbas = 0;
  zi.open = false;
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
  gc_busy_ = true;
  workers_.Add();
  sim::Spawn(ReclaimJob(low));
}

sim::Task<> KvStore::ReclaimJob(bool need_free) {
  co_await ReclaimZones(need_free);
  gc_busy_ = false;
  workers_.Done();
  idle_.NotifyAll();
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
    double best = opt_.gc_garbage_min;
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
    std::vector<TablePtr> holders;
    for (auto& level : levels_) {
      for (const TablePtr& t : level) {
        if (t->compacting) continue;
        for (const Extent& e : t->extents) {
          if (e.zone == vzone) {
            holders.push_back(t);
            t->compacting = true;
            break;
          }
        }
      }
    }
    const std::uint64_t reloc_before = stats_.gc_relocated_bytes;
    for (const TablePtr& t : holders) {
      co_await RelocateTablePart(t, vzone);
      t->compacting = false;
    }
    if (zones_[victim].live_lbas == 0) {
      co_await ResetZone(vzone);
    } else if (stats_.gc_relocated_bytes == reloc_before) {
      // Nothing moved and nothing freed: every live extent in the victim
      // belongs to a table claimed by the running compaction. Looping
      // again would spin without a single co_await (starving the very
      // compactor we are waiting on — the scheduler is cooperative), and
      // parking on compact_done_ here would deadlock if the compactor is
      // itself inside TakeOpenZone waiting for gc_lock_. End the pass:
      // the compaction's own writes re-trigger reclaim once it finishes.
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

sim::Task<> KvStore::RelocateTablePart(TablePtr t, std::uint32_t victim) {
  if (t->dropped) co_return;
  std::vector<Extent> rebuilt;
  for (const Extent& e : t->extents) {
    if (e.zone != victim) {
      rebuilt.push_back(e);
      continue;
    }
    // Read the live run, rewrite it into the relocation zone (chunked),
    // and splice the replacement extents in place.
    std::uint32_t off = 0;
    while (off < e.lbas) {
      const std::uint32_t chunk =
          std::min<std::uint32_t>(opt_.compact_read_lbas, e.lbas - off);
      co_await ReadExtentRange(e, off, chunk, /*verify_tags=*/false, nullptr);
      co_await Pace(static_cast<std::uint64_t>(chunk) * lba_bytes_);
      off += chunk;
    }
    std::uint32_t wrote = 0;
    const std::uint64_t tag0 = TakeTags(e.lbas);
    while (wrote < e.lbas) {
      const std::uint32_t chunk =
          std::min<std::uint32_t>(opt_.max_append_lbas, e.lbas - wrote);
      co_await Pace(static_cast<std::uint64_t>(chunk) * lba_bytes_);
      Extent ne = co_await RelocAppend(chunk, tag0 + wrote);
      ZSTOR_CHECK_MSG(ne.lbas > 0, "relocation append failed");
      rebuilt.push_back(ne);
      wrote += ne.lbas;
      stats_.gc_relocated_bytes +=
          static_cast<std::uint64_t>(ne.lbas) * lba_bytes_;
    }
    ZoneInfo& vz = zones_[ZoneIndex(victim)];
    vz.live_lbas -= e.lbas;
  }
  t->extents = std::move(rebuilt);
}

sim::Task<KvStore::Extent> KvStore::RelocAppend(std::uint32_t lbas,
                                                std::uint64_t tag_base) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    if (reloc_zone_ < 0) {
      ZSTOR_CHECK_MSG(!free_zones_.empty(),
                      "kv store out of zones for relocation");
      reloc_zone_ = static_cast<std::int64_t>(free_zones_.front());
      free_zones_.pop_front();
      zones_[ZoneIndex(static_cast<std::uint32_t>(reloc_zone_))].open = true;
    }
    ZoneInfo& zi = zones_[ZoneIndex(static_cast<std::uint32_t>(reloc_zone_))];
    const std::uint64_t remaining = zone_cap_lbas() - zi.written_lbas;
    if (remaining == 0) {
      zi.open = false;
      reloc_zone_ = -1;
      continue;
    }
    const std::uint32_t take =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(lbas, remaining));
    zi.written_lbas += take;
    zi.live_lbas += take;
    auto tc = co_await stack_.Submit({.opcode = Opcode::kAppend,
                                      .slba = ZoneStartLba(zi.zone),
                                      .nlb = take,
                                      .payload_tag = tag_base});
    if (tc.completion.ok()) {
      co_return Extent{zi.zone, tc.completion.result_lba, take, tag_base};
    }
    zi.live_lbas -= take;
    zi.written_lbas = zone_cap_lbas();
    zi.open = false;
    reloc_zone_ = -1;
  }
  co_return Extent{0, 0, 0, tag_base};
}

// ---------------------------------------------------------------------------
// Compaction.
// ---------------------------------------------------------------------------

void KvStore::MaybeScheduleCompaction() {
  if (compact_busy_ || stopping_) return;
  CompactionJob probe;
  if (!PickCompaction(&probe)) return;
  for (const TablePtr& t : probe.inputs) t->compacting = false;  // unclaim
  compact_busy_ = true;
  workers_.Add();
  sim::Spawn(CompactJob());
}

sim::Task<> KvStore::CompactJob() {
  while (!stopping_) {
    CompactionJob job;
    if (!PickCompaction(&job)) break;
    co_await RunCompaction(std::move(job));
    compact_done_.NotifyAll();
  }
  compact_busy_ = false;
  workers_.Done();
  idle_.NotifyAll();
}

bool KvStore::PickCompaction(CompactionJob* job) {
  // L0 first: overlapping tables pile up and stall writers.
  if (levels_[0].size() >= opt_.l0_compact_trigger) {
    job->from_level = 0;
    std::uint64_t lo = ~0ull, hi = 0;
    for (const TablePtr& t : levels_[0]) {
      if (t->compacting) continue;
      job->inputs.push_back(t);
      lo = std::min(lo, t->min_key);
      hi = std::max(hi, t->max_key);
    }
    if (!job->inputs.empty()) {
      for (const TablePtr& t : levels_[1]) {
        if (!t->compacting && t->min_key <= hi && t->max_key >= lo) {
          job->inputs.push_back(t);
        }
      }
      for (const TablePtr& t : job->inputs) t->compacting = true;
      return true;
    }
    job->inputs.clear();
  }
  // Deeper levels: size-triggered, zone-garbage-aware victim choice —
  // prefer the table whose zones hold the most dead data, so compacting
  // it turns those zones resettable without relocation.
  for (std::uint32_t l = 1; l + 1 < opt_.max_levels; ++l) {
    if (levels_stats_[l].bytes <= LevelTargetBytes(l)) continue;
    TablePtr victim;
    double best_score = -1.0;
    for (const TablePtr& t : levels_[l]) {
      if (t->compacting) continue;
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
    for (const TablePtr& t : levels_[l + 1]) {
      if (!t->compacting && t->min_key <= victim->max_key &&
          t->max_key >= victim->min_key) {
        job->inputs.push_back(t);
      }
    }
    for (const TablePtr& t : job->inputs) t->compacting = true;
    return true;
  }
  return false;
}

sim::Task<> KvStore::RunCompaction(CompactionJob job) {
  const sim::Time t0 = sim_.now();
  const std::uint32_t out_level = job.from_level + 1;
  std::uint64_t bytes_read = 0;
  // Read every input extent at iterator granularity, one at a time (the
  // background depth stays low so foreground reads keep their slots).
  {
    auto io = co_await compact_io_.Hold();
    for (const TablePtr& t : job.inputs) {
      for (const Extent& e : t->extents) {
        std::uint32_t off = 0;
        while (off < e.lbas) {
          const std::uint32_t chunk =
              std::min<std::uint32_t>(opt_.compact_read_lbas, e.lbas - off);
          co_await ReadExtentRange(e, off, chunk, /*verify_tags=*/false,
                                   nullptr);
          co_await Pace(static_cast<std::uint64_t>(chunk) * lba_bytes_);
          bytes_read += static_cast<std::uint64_t>(chunk) * lba_bytes_;
          off += chunk;
        }
      }
    }
  }
  // Merge: newest sequence wins; tombstones fall out at the last level.
  std::vector<TableEntry> merged;
  for (const TablePtr& t : job.inputs) {
    merged.insert(merged.end(), t->entries.begin(), t->entries.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const TableEntry& a, const TableEntry& b) {
              if (a.key != b.key) return a.key < b.key;
              return a.seq > b.seq;
            });
  std::vector<TableEntry> out;
  out.reserve(merged.size());
  const bool drop_tombstones = out_level == opt_.max_levels - 1;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    if (i > 0 && merged[i].key == merged[i - 1].key) continue;
    if (merged[i].tombstone && drop_tombstones) continue;
    out.push_back(merged[i]);
  }
  // Cut output tables and write them (paced appends to the out level's
  // lifetime class).
  std::vector<TablePtr> outputs;
  bool failed = false;
  std::uint64_t bytes_written = 0;
  std::size_t i = 0;
  while (i < out.size() && !failed) {
    std::vector<TableEntry> chunk;
    std::uint64_t chunk_bytes = 0;
    while (i < out.size() && (chunk.empty() ||
                              chunk_bytes + out[i].bytes <=
                                  opt_.max_table_bytes)) {
      chunk_bytes += out[i].bytes;
      chunk.push_back(out[i]);
      ++i;
    }
    TablePtr t;
    co_await BuildTable(std::move(chunk), out_level, /*paced=*/true, &t);
    if (t->write_failed) {
      failed = true;
      DropTable(t);
      break;
    }
    bytes_written += static_cast<std::uint64_t>(t->data_lbas) * lba_bytes_;
    outputs.push_back(std::move(t));
  }
  if (failed) {
    for (const TablePtr& t : outputs) DropTable(t);
    for (const TablePtr& t : job.inputs) t->compacting = false;
    co_await sim_.Delay(sim::Microseconds(500));
    co_return;
  }
  // Durability for the new tables before the inputs go away.
  const std::uint64_t e0 = Epoch();
  auto fc = co_await stack_.Submit({.opcode = Opcode::kFlush});
  const bool durable = fc.completion.ok() && Epoch() == e0;
  for (const TablePtr& t : outputs) {
    t->durable = durable && t->write_epoch == e0;
    InstallTable(t, out_level);
  }
  for (const TablePtr& t : job.inputs) {
    auto& lvl = levels_[t->level];
    lvl.erase(std::remove(lvl.begin(), lvl.end(), t), lvl.end());
    DropTable(t);
  }
  stats_.compactions++;
  stats_.compact_bytes_read += bytes_read;
  stats_.compact_bytes_written += bytes_written;
  levels_stats_[out_level].bytes_compacted += bytes_written;
  levels_stats_[out_level].compactions++;
  if (telem_ != nullptr) {
    telem_->tracer().Span(t0, sim_.now(), telemetry::Tracer::NextCmdId(),
                          telemetry::Layer::kWorkload, "kv.compact",
                          static_cast<std::int64_t>(bytes_read),
                          static_cast<std::int64_t>(bytes_written));
    if (auto* tl = telem_->timeline()) {
      tl->Window(t0, sim_.now() - t0, telem_->timeline_label(), 0,
                 "kv.compact", static_cast<std::int64_t>(bytes_written),
                 static_cast<std::int64_t>(out_level));
    }
  }
  MaybeScheduleReclaim();
}

void KvStore::InstallTable(TablePtr t, std::uint32_t level) {
  t->level = level;
  t->installed = true;
  if (level == 0) {
    levels_[0].insert(levels_[0].begin(), t);  // newest first
  } else {
    auto& lvl = levels_[level];
    auto pos = std::lower_bound(lvl.begin(), lvl.end(), t,
                                [](const TablePtr& a, const TablePtr& b) {
                                  return a->min_key < b->min_key;
                                });
    lvl.insert(pos, t);
  }
  levels_stats_[level].tables++;
  levels_stats_[level].bytes += t->data_bytes;
  levels_stats_[level].bytes_in += t->data_bytes;
}

void KvStore::DropTable(const TablePtr& t) {
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
}

// ---------------------------------------------------------------------------
// Read path.
// ---------------------------------------------------------------------------

const KvStore::TableEntry* KvStore::FindInTable(const TablePtr& t,
                                                std::uint64_t key) const {
  if (key < t->min_key || key > t->max_key) return nullptr;
  auto it = std::lower_bound(t->entries.begin(), t->entries.end(), key,
                             [](const TableEntry& e, std::uint64_t k) {
                               return e.key < k;
                             });
  if (it == t->entries.end() || it->key != key) return nullptr;
  return &*it;
}

sim::Task<Status> KvStore::ReadExtentRange(
    const Extent& e, std::uint32_t lba_off, std::uint32_t lbas,
    bool verify_tags, workload::IntegrityVerifier::Report* rep) {
  auto tc = co_await stack_.Submit(
      {.opcode = Opcode::kRead,
       .slba = e.lba + lba_off,
       .nlb = lbas,
       .payload_tag = verify_tags ? e.tag_base + lba_off : 0});
  stats_.read_ios++;
  if (!tc.completion.ok()) {
    if (rep != nullptr) rep->read_errors += lbas;
    co_return tc.completion.status;
  }
  if (verify_tags) {
    for (std::uint32_t j = 0; j < lbas; ++j) {
      const std::uint64_t want = e.tag_base + lba_off + j;
      const std::uint64_t got = j < tc.completion.payload_tags.size()
                                    ? tc.completion.payload_tags[j]
                                    : 0;
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

sim::Task<Status> KvStore::ReadEntry(const TablePtr& t, std::size_t idx) {
  const std::uint32_t first = t->lba_off[idx];
  std::uint32_t want = EntryLbas(t->entries[idx].bytes);
  // Walk the extent list to the entry's position and read it (an entry
  // may straddle an extent split).
  std::uint32_t pos = 0;
  Status st = Status::kSuccess;
  for (const Extent& e : t->extents) {
    if (pos + e.lbas <= first) {
      pos += e.lbas;
      continue;
    }
    const std::uint32_t off = first > pos ? first - pos : 0;
    const std::uint32_t take = std::min<std::uint32_t>(e.lbas - off, want);
    const bool verify = !t->dropped;
    Status s = co_await ReadExtentRange(e, off, take, verify, nullptr);
    if (s != Status::kSuccess) st = s;
    want -= take;
    pos += e.lbas;
    if (want == 0) break;
  }
  co_return st;
}

sim::Task<Status> KvStore::Get(std::uint64_t key, bool* found) {
  stats_.gets++;
  if (found != nullptr) *found = false;
  // Memtables first: no device I/O.
  if (auto it = mem_.find(key); it != mem_.end()) {
    if (it->second.tombstone) {
      stats_.missing++;
    } else {
      stats_.found++;
      if (found != nullptr) *found = true;
    }
    co_return Status::kSuccess;
  }
  if (imm_ != nullptr) {
    if (auto it = imm_->find(key); it != imm_->end()) {
      if (it->second.tombstone) {
        stats_.missing++;
      } else {
        stats_.found++;
        if (found != nullptr) *found = true;
      }
      co_return Status::kSuccess;
    }
  }
  // L0 newest-first (tables overlap), then one candidate per deeper
  // level (tables are disjoint and sorted).
  std::vector<TablePtr> probes;
  for (const TablePtr& t : levels_[0]) {
    if (FindInTable(t, key) != nullptr) {
      probes.push_back(t);
      break;
    }
  }
  if (probes.empty()) {
    for (std::uint32_t l = 1; l < opt_.max_levels; ++l) {
      const auto& lvl = levels_[l];
      auto it = std::upper_bound(lvl.begin(), lvl.end(), key,
                                 [](std::uint64_t k, const TablePtr& t) {
                                   return k < t->min_key;
                                 });
      if (it == lvl.begin()) continue;
      const TablePtr& t = *(it - 1);
      if (FindInTable(t, key) != nullptr) {
        probes.push_back(t);
        break;
      }
    }
  }
  if (probes.empty()) {
    stats_.missing++;
    co_return Status::kSuccess;
  }
  const TablePtr t = probes.front();
  const TableEntry* e = FindInTable(t, key);
  ZSTOR_CHECK(e != nullptr);
  const std::size_t idx = static_cast<std::size_t>(e - t->entries.data());
  const Status st = co_await ReadEntry(t, idx);
  if (e->tombstone) {
    stats_.missing++;
  } else {
    stats_.found++;
    if (found != nullptr) *found = true;
  }
  co_return st;
}

sim::Task<> KvStore::Drain() {
  for (;;) {
    MaybeScheduleCompaction();
    MaybeScheduleReclaim();
    if (!flush_busy_ && !compact_busy_ && !gc_busy_ && imm_ == nullptr) {
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

sim::Task<std::vector<nvme::ZoneDescriptor>> KvStore::ReportZones() {
  for (int attempt = 0; attempt < 50; ++attempt) {
    auto tc = co_await stack_.Submit({.opcode = Opcode::kZoneMgmtRecv,
                                      .slba = ZoneStartLba(opt_.first_zone),
                                      .report_max = opt_.zone_count});
    if (tc.completion.ok()) co_return std::move(tc.completion.report);
    co_await sim_.Delay(sim::Microseconds(500));
  }
  ZSTOR_CHECK_MSG(false, "zone report kept failing after crash");
  co_return {};
}

sim::Task<workload::IntegrityVerifier::Report> KvStore::RecoverAfterCrash() {
  const sim::Time t0 = sim_.now();
  stats_.crash_recoveries++;
  workload::IntegrityVerifier::Report rep;
  // Quiesce background work first: jobs in flight will observe failed
  // I/O and retire (their tables stay non-durable and are handled here).
  co_await Drain();
  auto report = co_await ReportZones();
  ZSTOR_CHECK(report.size() >= opt_.zone_count);
  // Recovered write pointer (in-zone LBAs) per store zone.
  std::vector<std::uint64_t> wp(opt_.zone_count, 0);
  for (std::uint32_t i = 0; i < opt_.zone_count; ++i) {
    const auto& d = report[i];
    wp[i] = d.write_pointer >= d.zslba ? d.write_pointer - d.zslba : 0;
    wp[i] = std::min<std::uint64_t>(wp[i], zone_cap_lbas());
  }
  auto zone_wp = [&](std::uint32_t zone) {
    return wp[zone - opt_.first_zone];
  };
  // ---- SSTables: drop what was never durable, verify what was --------
  for (auto& lvl : levels_) {
    std::vector<TablePtr> keep;
    for (const TablePtr& t : lvl) {
      if (!t->durable) {
        // Un-certified table: the crash may have torn it. Its records
        // are still WAL-covered (checkpoint only follows durability),
        // so drop it and let replay resurrect the data.
        DropTable(t);
        stats_.tables_dropped++;
        continue;
      }
      bool torn = false;
      for (const Extent& e : t->extents) {
        const nvme::Lba zstart = ZoneStartLba(e.zone);
        const std::uint64_t in_zone = e.lba - zstart;
        if (in_zone + e.lbas > zone_wp(e.zone)) {
          const std::uint64_t lost =
              in_zone + e.lbas - std::max(in_zone, zone_wp(e.zone));
          rep.silent_corruptions += lost;  // durable data must survive
          rep.lbas_checked += lost;
          torn = true;
        }
      }
      if (torn) {
        DropTable(t);
        stats_.tables_dropped++;
        continue;
      }
      for (const Extent& e : t->extents) {
        std::uint32_t off = 0;
        while (off < e.lbas) {
          const std::uint32_t chunk = std::min<std::uint32_t>(
              opt_.max_append_lbas, e.lbas - off);
          co_await ReadExtentRange(e, off, chunk, /*verify_tags=*/true, &rep);
          off += chunk;
        }
      }
      keep.push_back(t);
    }
    lvl = std::move(keep);
  }
  // ---- WAL: classify and replay --------------------------------------
  std::vector<const WalRecord*> replay;
  for (const WalRecord& r : wal_) {
    if (r.durable) continue;  // covered by a verified durable table
    const std::uint64_t seg_wp = zone_wp(opt_.first_zone + r.segment);
    if (!r.acked) {
      // The put itself failed; nothing was promised.
      rep.lost_unflushed += r.lbas;
      stats_.wal_lost++;
      continue;
    }
    const std::uint64_t in_zone =
        r.lba - ZoneStartLba(opt_.first_zone + r.segment);
    if (in_zone + r.lbas > seg_wp) {
      // Wholly or partially beyond the durable prefix: an unflushed
      // write the crash legitimately dropped.
      rep.lost_unflushed += r.lbas;
      stats_.wal_lost++;
      continue;
    }
    Extent e{opt_.first_zone + r.segment, r.lba, r.lbas, r.tag_base};
    auto before = rep.silent_corruptions;
    co_await ReadExtentRange(e, 0, r.lbas, /*verify_tags=*/true, &rep);
    if (rep.silent_corruptions == before) replay.push_back(&r);
  }
  // Rebuild the memtable from the surviving records, newest seq wins.
  mem_.clear();
  mem_bytes_ = 0;
  imm_.reset();
  for (const WalRecord* r : replay) {
    MemValue& mv = mem_[r->key];
    if (r->seq >= mv.seq) mv = MemValue{r->bytes, r->seq, r->tombstone};
    mem_bytes_ += r->bytes + kWalHeaderBytes;
    stats_.wal_replayed++;
  }
  // ---- device state resync -------------------------------------------
  // Every partially-written data zone is treated as sealed (its
  // reservation accounting died with the power loss); live counts are
  // recomputed from the surviving tables.
  for (ZoneInfo& zi : zones_) {
    zi.written_lbas = zone_wp(zi.zone);
    zi.live_lbas = 0;
    zi.open = false;
  }
  for (const auto& lvl : levels_) {
    for (const TablePtr& t : lvl) {
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
  if (!mem_.empty()) {
    std::vector<TableEntry> entries;
    entries.reserve(mem_.size());
    for (const auto& [k, v] : *(&mem_)) {
      entries.push_back(TableEntry{k, v.bytes, v.seq, v.tombstone});
    }
    for (int attempt = 0;; ++attempt) {
      TablePtr t;
      co_await BuildTable(std::move(entries), 0, /*paced=*/false, &t);
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
      entries = t->entries;  // retry with the same contents
      DropTable(t);
      ZSTOR_CHECK_MSG(attempt < 50, "post-crash flush kept failing");
      co_await sim_.Delay(sim::Microseconds(500));
    }
    mem_.clear();
    mem_bytes_ = 0;
  }
  for (std::uint8_t seg = 0; seg < 2; ++seg) {
    if (zone_wp(opt_.first_zone + seg) == 0) {
      wal_used_lbas_[seg] = 0;
      continue;
    }
    for (int attempt = 0; attempt < 50; ++attempt) {
      auto rc = co_await stack_.Submit(
          {.opcode = Opcode::kZoneMgmtSend,
           .slba = ZoneStartLba(opt_.first_zone + seg),
           .zone_action = ZoneAction::kReset});
      if (rc.completion.ok()) break;
      ZSTOR_CHECK_MSG(attempt < 49, "post-crash WAL reset kept failing");
      co_await sim_.Delay(sim::Microseconds(500));
    }
    wal_used_lbas_[seg] = 0;
    stats_.wal_resets++;
  }
  wal_.clear();
  wal_segment_ = 0;
  mem_first_seq_ = next_seq_;
  imm_first_seq_ = 0;
  if (telem_ != nullptr) {
    telem_->tracer().Span(t0, sim_.now(), telemetry::Tracer::NextCmdId(),
                          telemetry::Layer::kWorkload, "kv.recover",
                          static_cast<std::int64_t>(rep.lbas_checked),
                          static_cast<std::int64_t>(rep.silent_corruptions));
    if (auto* tl = telem_->timeline()) {
      tl->Window(t0, sim_.now() - t0, telem_->timeline_label(), 0,
                 "kv.recover", static_cast<std::int64_t>(rep.lbas_checked),
                 static_cast<std::int64_t>(stats_.wal_replayed));
    }
  }
  co_return rep;
}

}  // namespace zstor::zkv
