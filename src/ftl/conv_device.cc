#include "ftl/conv_device.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace zstor::ftl {

using nvme::Command;
using nvme::Completion;
using nvme::Opcode;
using nvme::Status;
using sim::Time;
using telemetry::Layer;

nvme::SmartLog ConvDevice::GetSmartLog() const {
  nvme::SmartLog log = CoreSmartLog("conv");
  log.gc_invocations = counters_.gc_invocations;
  log.gc_units_migrated = counters_.gc_units_migrated;
  log.gc_blocks_erased = counters_.gc_blocks_erased;
  log.write_amplification = counters_.WriteAmplification();
  return log;
}

ConvDevice::ConvDevice(sim::Simulator& s, ConvProfile profile)
    : ControllerCore(s, counters_, profile.write_buffer_bytes,
                     profile.map_unit_bytes, profile.seed, profile.io_sigma,
                     /*reset_sigma=*/0.0, /*finish_sigma=*/0.0),
      profile_(std::move(profile)) {
  profile_.nand_geometry.Validate();
  ZSTOR_CHECK_MSG(profile_.lba_bytes == profile_.map_unit_bytes,
                  "conventional model supports lba == map unit only");
  ZSTOR_CHECK(profile_.nand_geometry.page_bytes %
                  profile_.map_unit_bytes ==
              0);
  flash_ = std::make_unique<nand::FlashArray>(s, profile_.nand_geometry,
                                              profile_.nand_timing);
  const std::uint64_t logical_units =
      profile_.logical_bytes() / profile_.map_unit_bytes;
  const std::uint64_t phys_units =
      profile_.physical_bytes() / profile_.map_unit_bytes;
  ZSTOR_CHECK_MSG(phys_units <= kNoOrigin,
                  "physical units must fit in 31 bits (l2p_ encoding)");
  ZSTOR_CHECK(profile_.units_per_page() <= kMaxUnitsPerPage);
  // Units per page divide a power-of-two page, so they are one too.
  ZSTOR_CHECK(std::has_single_bit(profile_.units_per_page()));
  ZSTOR_CHECK_MSG(
      std::has_single_bit(profile_.nand_geometry.pages_per_block),
      "pages per block must be a power of two");
  unit_shift_ = static_cast<std::uint32_t>(
      std::countr_zero(profile_.units_per_page()));
  page_shift_ = static_cast<std::uint32_t>(
      std::countr_zero(profile_.nand_geometry.pages_per_block));
  block_shift_ = unit_shift_ + page_shift_;
  l2p_.assign(logical_units, kUnmapped);
  p2l_.assign(phys_units, kUnmapped);
  valid_bits_.assign((phys_units + 63) / 64, 0);
  blocks_.resize(profile_.nand_geometry.total_blocks());
  for (std::uint32_t die = 0; die < profile_.nand_geometry.total_dies();
       ++die) {
    for (std::uint32_t blk = 0; blk < profile_.nand_geometry.blocks_per_die;
         ++blk) {
      Block& b = blocks_[BlockIdOf(die, blk)];
      b.die = die;
      b.block = blk;
    }
  }
  free_blocks_.assign(profile_.nand_geometry.total_dies(),
                      BlockFifo(profile_.nand_geometry.blocks_per_die));
  gc_reserve_ = BlockFifo(blocks_.size());
  gc_open_pool_ = BlockFifo(blocks_.size());
  host_open_block_.assign(profile_.nand_geometry.total_dies(), kUnmapped);
  die_alloc_.reserve(profile_.nand_geometry.total_dies());
  for (std::uint32_t d = 0; d < profile_.nand_geometry.total_dies(); ++d) {
    die_alloc_.push_back(std::make_unique<sim::Semaphore>(s, 1));
  }
  gc_workers_.resize(profile_.gc_workers);
  for (GcWorker& w : gc_workers_) {
    w.survivors.reserve(units_per_block());
    w.ops.resize(profile_.nand_geometry.pages_per_block);
    for (GcPageOp& op : w.ops) {
      op.dev = this;
      op.worker = &w;
    }
    gc_idle_workers_.push_back(&w);
  }

  info_.format.lba_bytes = profile_.lba_bytes;
  info_.capacity_lbas = profile_.logical_bytes() / profile_.lba_bytes;
  info_.zoned = false;
}

void ConvDevice::FinalizeLayout() {
  if (layout_done_) return;
  layout_done_ = true;
  // Blocks not claimed by a prefill go to the free pool; a small reserve
  // guarantees GC never deadlocks against host writes for blocks.
  std::uint32_t reserve_target = 2 * profile_.gc_workers + 2;
  std::uint64_t free_count = 0;
  for (std::uint32_t die = 0; die < profile_.nand_geometry.total_dies();
       ++die) {
    for (std::uint32_t blk = 0; blk < profile_.nand_geometry.blocks_per_die;
         ++blk) {
      std::uint32_t id = BlockIdOf(die, blk);
      if (blocks_[id].write_ptr_units != 0) continue;  // prefilled
      if (gc_reserve_.size() < reserve_target) {
        gc_reserve_.push_back(id);
      } else {
        free_blocks_[die].push_back(id);
        ++free_count;
      }
    }
  }
  free_total_ = static_cast<std::uint32_t>(free_count);
  free_sem_ = std::make_unique<sim::Semaphore>(sim_, free_count);
  ZSTOR_CHECK_MSG(free_total_ > profile_.gc_high_blocks,
                  "over-full prefill: no room for GC watermarks");
}

// ----------------------------------------------------------- FTL state

void ConvDevice::SetValid(std::uint32_t phys, bool v) {
  const std::uint64_t mask = 1ull << (phys & 63);
  if (v) {
    valid_bits_[phys >> 6] |= mask;
  } else {
    valid_bits_[phys >> 6] &= ~mask;
  }
}

void ConvDevice::InvalidateUnit(std::uint32_t logical_unit) {
  std::uint32_t phys = l2p_[logical_unit];
  if (phys == kUnmapped || IsBuffered(phys)) return;
  Block& b = blocks_[BlockIdOfPhys(phys)];
  ZSTOR_CHECK(TestValid(phys));
  SetValid(phys, false);
  ZSTOR_CHECK(b.valid > 0);
  b.valid--;
  p2l_[phys] = kUnmapped;
}

void ConvDevice::MapUnit(std::uint32_t logical_unit,
                         std::uint32_t phys_unit) {
  InvalidateUnit(logical_unit);
  l2p_[logical_unit] = phys_unit;
  p2l_[phys_unit] = logical_unit;
  SetValid(phys_unit, true);
  blocks_[BlockIdOfPhys(phys_unit)].valid++;
}

sim::Task<std::uint32_t> ConvDevice::AcquireFreeBlock(
    std::uint32_t preferred_die) {
  if (free_total_ == 0) MaybeWakeGc();  // we are about to block on it
  co_await free_sem_->Acquire();
  if (crashed_) {
    // Woken by CrashNow's drain (power is out, GC will not replenish the
    // pool): consume the spurious permit and let the caller abort.
    co_return kUnmapped;
  }
  std::uint32_t dies = profile_.nand_geometry.total_dies();
  for (std::uint32_t i = 0; i < dies; ++i) {
    std::uint32_t die = (preferred_die + i) % dies;
    if (!free_blocks_[die].empty()) {
      std::uint32_t id = free_blocks_[die].front();
      free_blocks_[die].pop_front();
      --free_total_;
      MaybeWakeGc();
      co_return id;
    }
  }
  ZSTOR_CHECK_MSG(false, "free semaphore and pool out of sync");
}

void ConvDevice::ReleaseErasedBlock(std::uint32_t block_id) {
  std::uint32_t reserve_target = 2 * profile_.gc_workers + 2;
  if (gc_reserve_.size() < reserve_target) {
    gc_reserve_.push_back(block_id);
    return;
  }
  free_blocks_[DieOfBlockId(block_id)].push_back(block_id);
  ++free_total_;
  free_sem_->Release();
}

// ------------------------------------------------------------------ GC

void ConvDevice::MaybeWakeGc() {
  // No GC while power is out: a pass launched during the outage would
  // scan a victim that the rollback below re-validates units in.
  if (!layout_done_ || crashed_) return;
  if (!gc_target_active_ && free_total_ < profile_.gc_low_blocks) {
    gc_target_active_ = true;
  }
  if (gc_target_active_ && free_total_ >= profile_.gc_high_blocks) {
    gc_target_active_ = false;
  }
  if (!gc_target_active_) return;
  while (gc_running_ < profile_.gc_workers) {
    std::uint32_t victim = PickVictim();
    if (victim == kUnmapped) break;
    blocks_[victim].gc_busy = true;
    ++gc_running_;
    ++counters_.gc_invocations;
    if (telemetry::Tracer* tr = trace(); tr != nullptr) {
      tr->Instant(sim_.now(), /*cmd=*/0, Layer::kFtl, "gc.victim",
                  static_cast<std::int64_t>(victim),
                  static_cast<std::int64_t>(blocks_[victim].valid));
    }
    sim::Spawn(MigrateAndErase(victim));
  }
}

std::uint32_t ConvDevice::PickVictim() {
  // Greedy: the full block with the fewest valid units (most garbage).
  // Victims with negligible garbage are not worth the migration cost —
  // unless the host is actually blocked waiting for a free block, in
  // which case any reclaimable unit keeps the device live.
  bool host_starving = free_total_ == 0 ||
                       (free_sem_ != nullptr && free_sem_->has_waiters());
  std::uint32_t min_garbage =
      host_starving ? 1 : units_per_block() / 10;
  std::uint32_t best = kUnmapped;
  std::uint32_t best_valid = units_per_block();
  for (std::uint32_t id = 0; id < blocks_.size(); ++id) {
    const Block& b = blocks_[id];
    if (b.open || b.gc_busy || b.inflight > 0 || b.retired) continue;
    if (b.write_ptr_units != units_per_block()) continue;  // not full
    if (units_per_block() - b.valid < min_garbage) continue;
    if (b.valid < best_valid) {
      best_valid = b.valid;
      best = id;
    }
  }
  return best;
}

void ConvDevice::OnGcReadDone(nand::NandOp& op) {
  static_cast<GcPageOp&>(op).worker->wg->Done();
}

void ConvDevice::OnGcProgramDone(nand::NandOp& op) {
  auto& page = static_cast<GcPageOp&>(op);
  page.dev->FinishGcProgram(page);
}

void ConvDevice::StartGcProgram(GcPageOp& op) {
  op.addr = {DieOfBlockId(op.block_id), BlockOfBlockId(op.block_id),
             op.addr.page};
  if (!flash_->Start(op)) FinishGcProgram(op);  // failed on the spot
}

void ConvDevice::FinishGcProgram(GcPageOp& op) {
  GcWorker& w = *op.worker;
  if (power_epoch_ != w.epoch) {
    // Power loss mid-migration: skip the remap — the victim copy is
    // still physically intact (the erase never runs on a stale pass)
    // and the mapping rollback already points there.
    blocks_[op.block_id].inflight--;
    w.wg->Done();
    return;
  }
  const std::uint32_t upp = units_per_page();
  if (op.status != nand::MediaStatus::kOk) {
    // Program failure: retire the output block and restage this batch
    // into a fresh GC block — survivors are still held in controller
    // memory, so GC heals the fault with no data loss.
    blocks_[op.block_id].inflight--;
    RetireBlock(op.block_id);
    counters_.program_retries++;
    op.block_id = TakeGcOpenBlock();
    Block& ob = blocks_[op.block_id];
    op.addr.page = ob.write_ptr_units >> unit_shift_;
    ob.write_ptr_units += upp;
    ob.inflight++;
    ReturnGcOpenBlock(op.block_id);
    StartGcProgram(op);
    return;
  }
  const std::uint32_t base = op.addr.page << unit_shift_;
  const std::size_t end =
      std::min<std::size_t>(op.first + upp, w.survivors.size());
  for (std::size_t i = op.first; i < end; ++i) {
    const auto [logical, old_phys] = w.survivors[i];
    // Skip units the host overwrote while we migrated them.
    if (l2p_[logical] != old_phys) continue;
    const std::uint32_t phys =
        PhysUnit(op.block_id, base + static_cast<std::uint32_t>(i - op.first));
    MapUnit(logical, phys);
    JournalAppend(logical, old_phys, phys);
    // The payload tag travels with the data.
    if (!tags_by_phys_.empty()) tags_by_phys_[phys] = tags_by_phys_[old_phys];
    counters_.gc_units_migrated++;
  }
  blocks_[op.block_id].inflight--;
  w.wg->Done();
}

std::uint32_t ConvDevice::TakeGcOpenBlock() {
  while (!gc_open_pool_.empty()) {
    std::uint32_t id = gc_open_pool_.front();
    gc_open_pool_.pop_front();
    if (!blocks_[id].retired) return id;
  }
  ZSTOR_CHECK_MSG(!gc_reserve_.empty(), "GC block reserve exhausted");
  std::uint32_t id = gc_reserve_.front();
  gc_reserve_.pop_front();
  blocks_[id].open = true;
  return id;
}

bool ConvDevice::RetireBlock(std::uint32_t block_id) {
  counters_.write_faults++;
  if (!flash_->MarkBlockRetired(DieOfBlockId(block_id),
                                BlockOfBlockId(block_id))) {
    return false;
  }
  Block& b = blocks_[block_id];
  b.retired = true;
  b.open = false;
  // Seal at "full" so no in-flight writer reserves another page on it.
  // Its valid units stay mapped (retired blocks remain readable); they
  // are never reclaimed — retirement is permanent capacity loss.
  b.write_ptr_units = units_per_block();
  counters_.retired_blocks++;
  for (auto& open : host_open_block_) {
    if (open == block_id) open = kUnmapped;
  }
  if (telemetry::Tracer* tr = trace(); tr != nullptr) {
    tr->Instant(sim_.now(), /*cmd=*/0, Layer::kFtl, "block.retired",
                static_cast<std::int64_t>(block_id),
                static_cast<std::int64_t>(counters_.retired_blocks));
  }
  return true;
}

void ConvDevice::ReturnGcOpenBlock(std::uint32_t block_id) {
  if (blocks_[block_id].write_ptr_units == units_per_block()) {
    blocks_[block_id].open = false;  // retired; GC-eligible later
  } else {
    gc_open_pool_.push_back(block_id);  // reused by the next migration
  }
}

sim::Task<> ConvDevice::MigrateAndErase(std::uint32_t victim) {
  Block& vb = blocks_[victim];
  const std::uint32_t die = DieOfBlockId(victim);
  const std::uint32_t blk = BlockOfBlockId(victim);
  const std::uint32_t upp = units_per_page();
  const std::uint64_t epoch0 = power_epoch_;
  telemetry::Tracer* tr = trace();
  sim::Time migrate_begin = sim_.now();
  ZSTOR_CHECK(!gc_idle_workers_.empty());
  GcWorker& w = *gc_idle_workers_.back();
  gc_idle_workers_.pop_back();
  std::vector<std::pair<std::uint32_t, std::uint32_t>>& survivors =
      w.survivors;
  survivors.clear();
  sim::WaitGroup wg(sim_);
  w.wg = &wg;
  w.epoch = epoch0;

  // Phase 1 — pipelined page reads: all valid pages of the victim are
  // queued on its die at once (firmware pipelines GC reads), as records
  // from the worker's array. Units are snapshotted at scan time; stale
  // ones are dropped at remap.
  std::uint32_t n = 0;
  for (std::uint32_t page = 0;
       page < profile_.nand_geometry.pages_per_block; ++page) {
    bool any = false;
    const std::uint32_t first = PhysUnit(victim, page << unit_shift_);
    for (std::uint32_t phys = first; phys < first + upp; ++phys) {
      if (!TestValid(phys)) continue;
      survivors.emplace_back(p2l_[phys], phys);
      any = true;
    }
    if (!any) continue;
    GcPageOp& op = w.ops[n++];
    op.kind = nand::NandOp::Kind::kRead;
    op.addr = {die, blk, page};
    op.bytes = profile_.nand_geometry.page_bytes;
    op.on_done = &OnGcReadDone;
    wg.Add();
    const bool pending = flash_->Start(op);
    ZSTOR_CHECK(pending);  // only a program can finish on the spot
  }
  co_await wg.Wait();

  // Phase 2 — parallel program-out: page batches fan out across dies.
  std::uint32_t open = kUnmapped;
  n = 0;
  for (std::size_t i = 0; i < survivors.size(); i += upp) {
    if (open == kUnmapped ||
        blocks_[open].write_ptr_units == units_per_block()) {
      if (open != kUnmapped) ReturnGcOpenBlock(open);
      open = TakeGcOpenBlock();
    }
    Block& ob = blocks_[open];
    GcPageOp& op = w.ops[n++];
    op.kind = nand::NandOp::Kind::kProgram;
    op.addr.page = ob.write_ptr_units >> unit_shift_;
    op.block_id = open;
    op.first = static_cast<std::uint32_t>(i);
    op.on_done = &OnGcProgramDone;
    ob.write_ptr_units += upp;
    ob.inflight++;
    wg.Add();
    StartGcProgram(op);
  }
  if (open != kUnmapped) ReturnGcOpenBlock(open);
  co_await wg.Wait();

  if (power_epoch_ != epoch0) {
    // Power loss during migration: abort without erasing. Whatever was
    // remapped before the cut was reverted by the journal rollback, so
    // the victim's valid units are intact and it stays GC-eligible for
    // the next pass. Pages consumed in the output block are dead space.
    vb.gc_busy = false;
    gc_idle_workers_.push_back(&w);
    --gc_running_;
    MaybeWakeGc();
    co_return;
  }

  if (tr != nullptr) {
    tr->Span(migrate_begin, sim_.now(), /*cmd=*/0, Layer::kFtl,
             "gc.migrate", static_cast<std::int64_t>(victim),
             static_cast<std::int64_t>(survivors.size()));
  }
  if (telemetry::TimelineWriter* tl = timeline(); tl != nullptr) {
    tl->Window(migrate_begin, sim_.now() - migrate_begin,
               telem_->timeline_label(), lane_, "gc.migrate",
               static_cast<std::int64_t>(victim),
               static_cast<std::int64_t>(survivors.size()));
  }

  // All surviving units moved; any remaining valid bits belong to host
  // overwrites that raced ahead (they already re-invalidated). Erase.
  // The erase destroys the old physical copies, so every unsynced journal
  // entry and buffered-write rollback origin must stop referencing this
  // block first: sync makes the migration mappings durable, and buffered
  // origins inside the victim degrade to kUnmapped (a crash between here
  // and the buffered program landing loses those units — they were
  // unflushed, so that is within the device's contract).
  SyncJournal();
  ForgetBufferedOldInBlock(victim);
  sim::Time erase_begin = sim_.now();
  co_await flash_->EraseBlock(die, blk);
  if (tr != nullptr) {
    tr->Span(erase_begin, sim_.now(), /*cmd=*/0, Layer::kFtl, "gc.erase",
             static_cast<std::int64_t>(victim));
  }
  if (telemetry::TimelineWriter* tl = timeline(); tl != nullptr) {
    tl->Window(erase_begin, sim_.now() - erase_begin,
               telem_->timeline_label(), lane_, "gc.erase",
               static_cast<std::int64_t>(victim));
  }
  ZSTOR_CHECK(vb.valid == 0);  // so none of its valid bits is set
  vb.write_ptr_units = 0;
  vb.gc_busy = false;
  counters_.gc_blocks_erased++;
  ReleaseErasedBlock(victim);
  gc_idle_workers_.push_back(&w);
  --gc_running_;
  MaybeWakeGc();
}

// ------------------------------------------------------------ I/O paths

std::optional<sim::Task<Completion>> ConvDevice::Dispatch(const Command& cmd) {
  FinalizeLayout();
  switch (cmd.opcode) {
    case Opcode::kRead: return DoRead(cmd);
    case Opcode::kWrite: return DoWrite(cmd);
    case Opcode::kDeallocate: return DoDeallocate(cmd);
    case Opcode::kFlush: return DoFlush(cmd);
    default: return std::nullopt;
  }
}

Status ConvDevice::ValidateIoRange(const Command& cmd) const {
  if (cmd.nlb == 0) return Status::kInvalidField;
  if (cmd.slba + cmd.nlb > info_.capacity_lbas) return Status::kLbaOutOfRange;
  return Status::kSuccess;
}

sim::Task<Completion> ConvDevice::DoRead(Command cmd) {
  if (Status st = ValidateIoRange(cmd); st != Status::kSuccess) {
    co_return Completion{.status = st};
  }
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(cmd.nlb) * profile_.lba_bytes;
  const std::uint64_t epoch0 = power_epoch_;
  telemetry::Tracer* tr = trace();
  (co_await Fcp(
       profile_.fcp.read + profile_.fcp.per_extra_unit * (cmd.nlb - 1),
       {cmd.trace_id, 0, bytes}))
      .Release();
  if (power_epoch_ != epoch0) {
    co_return Completion{.status = Status::kDeviceReset};
  }
  sim::Time nand_begin = sim_.now();
  // Fetch each mapped unit's physical page; distinct pages in parallel.
  // Every page id is copied into its read before this frame suspends.
  std::vector<std::uint64_t>& pages = read_pages_;
  pages.clear();
  for (std::uint32_t i = 0; i < cmd.nlb; ++i) {
    std::uint32_t phys = l2p_[cmd.slba + i];
    if (phys == kUnmapped || IsBuffered(phys)) continue;
    const std::uint64_t page_id = phys >> unit_shift_;
    if (std::find(pages.begin(), pages.end(), page_id) == pages.end()) {
      pages.push_back(page_id);
    }
  }
  nand::MediaStatus media = nand::MediaStatus::kOk;
  if (pages.size() == 1) {
    media = co_await flash_->ReadPage(AddrOfPhysPage(pages[0]),
                                      profile_.map_unit_bytes);
  } else if (!pages.empty()) {
    sim::WaitGroup wg(sim_);
    for (std::uint64_t p : pages) {
      wg.Add();
      // &media outlives the spawned reads: wg.Wait() joins them below.
      sim::Spawn(FanOutRead(AddrOfPhysPage(p), profile_.map_unit_bytes, &wg,
                            &media));
    }
    co_await wg.Wait();
  }
  sim::Time post_begin = sim_.now();
  if (tr != nullptr) {
    tr->Span(nand_begin, post_begin, cmd.trace_id, Layer::kNand,
             "nand.read");
  }
  if (media == nand::MediaStatus::kReadError) {
    counters_.read_faults++;
    co_return Completion{.status = Status::kMediaReadError};
  }
  co_await sim_.Delay(
      Noise(profile_.post.read_fixed +
            static_cast<Time>(profile_.post.dma_ns_per_byte *
                              static_cast<double>(bytes))));
  if (tr != nullptr) {
    tr->Span(post_begin, sim_.now(), cmd.trace_id, Layer::kPost, "post",
             static_cast<std::int64_t>(bytes));
  }
  if (power_epoch_ != epoch0) {
    // Power cut during the host DMA: the transfer is torn.
    co_return Completion{.status = Status::kDeviceReset};
  }
  counters_.reads++;
  counters_.bytes_read += bytes;
  Completion done{.status = Status::kSuccess};
  if (cmd.payload_tag != 0) {
    // Integrity-check readback: what the mapping resolves to at
    // completion time (unmapped/trimmed units read as tag 0).
    done.payload_tags.resize(cmd.nlb);
    for (std::uint32_t i = 0; i < cmd.nlb; ++i) {
      done.payload_tags[i] =
          TagOfLogical(static_cast<std::uint32_t>(cmd.slba + i));
    }
  }
  co_return done;
}

nand::PageAddr ConvDevice::AddrOfPhysPage(std::uint64_t page_id) const {
  const Block& b = blocks_[page_id >> page_shift_];
  return {b.die, b.block,
          static_cast<std::uint32_t>(page_id & ((1u << page_shift_) - 1))};
}

sim::Task<Completion> ConvDevice::DoWrite(Command cmd) {
  if (Status st = ValidateIoRange(cmd); st != Status::kSuccess) {
    co_return Completion{.status = st};
  }
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(cmd.nlb) * profile_.lba_bytes;
  const std::uint64_t epoch0 = power_epoch_;
  telemetry::Tracer* tr = trace();
  {
    auto g = co_await Fcp(
        profile_.fcp.write + profile_.fcp.per_extra_unit * (cmd.nlb - 1),
        {cmd.trace_id, 0, bytes});
    if (power_epoch_ != epoch0) {
      // Crashed before any state mutation: fail clean, nothing admitted.
      co_return Completion{.status = Status::kDeviceReset};
    }
    // Overwrites invalidate the previous physical locations now. Each
    // unit's last durable copy rides in its l2p_ entry as the rollback
    // origin for a power loss before the buffered data reaches flash (a
    // double-buffered unit keeps its *original* durable origin), and the
    // origin's p2l_ slot points back so a GC erase can find it.
    for (std::uint32_t i = 0; i < cmd.nlb; ++i) {
      std::uint32_t u = static_cast<std::uint32_t>(cmd.slba + i);
      if (!IsBuffered(l2p_[u])) {
        const std::uint32_t origin = l2p_[u];
        InvalidateUnit(u);
        l2p_[u] = BufferedWithOrigin(origin);
        if (origin != kUnmapped) p2l_[origin] = u;
      }
      if (cmd.payload_tag != 0) pending_tags_[u] = cmd.payload_tag + i;
    }
  }
  sim::Time post_begin = sim_.now();
  co_await sim_.Delay(
      Noise(profile_.post.write_fixed +
            static_cast<Time>(profile_.post.dma_ns_per_byte *
                              static_cast<double>(bytes))));
  sim::Time admit_begin = sim_.now();
  if (tr != nullptr) {
    tr->Span(post_begin, admit_begin, cmd.trace_id, Layer::kPost, "post",
             static_cast<std::int64_t>(bytes));
  }
  // Admit unit by unit into the buffer; every full page goes to NAND.
  for (std::uint32_t i = 0; i < cmd.nlb; ++i) {
    if (power_epoch_ != epoch0) break;  // crash rolled the rest back
    co_await buffer_slots_.Acquire();
    if (power_epoch_ != epoch0) {
      // Crashed while waiting for a buffer slot: the write's buffered
      // state was already rolled back, so admitting now would resurrect
      // lost data. Give the slot straight back.
      buffer_slots_.Release();
      break;
    }
    pending_units_.unit[pending_units_.count++] =
        static_cast<std::uint32_t>(cmd.slba + i);
    if (pending_units_.count == units_per_page()) {
      programs_.Add();
      sim::Spawn(ProgramHostPage(std::exchange(pending_units_, {}), epoch0));
    }
  }
  if (tr != nullptr) {
    // Non-zero when the write-back buffer is full or the device stalls
    // waiting for GC to free a block (the Fig. 6a collapse mechanism).
    tr->Span(admit_begin, sim_.now(), cmd.trace_id, Layer::kBuffer,
             "buffer.admit");
  }
  if (power_epoch_ != epoch0) {
    co_return Completion{.status = Status::kDeviceReset};
  }
  counters_.writes++;
  counters_.bytes_written += bytes;
  co_return Completion{.status = Status::kSuccess};
}

sim::Task<Completion> ConvDevice::DoDeallocate(Command cmd) {
  if (Status st = ValidateIoRange(cmd); st != Status::kSuccess) {
    co_return Completion{.status = st};
  }
  const std::uint64_t epoch0 = power_epoch_;
  {
    auto g =
        co_await Fcp(profile_.trim_fixed + profile_.trim_per_unit * cmd.nlb,
                     {cmd.trace_id, 0, cmd.nlb});
    if (power_epoch_ != epoch0) {
      co_return Completion{.status = Status::kDeviceReset};
    }
    for (std::uint32_t i = 0; i < cmd.nlb; ++i) {
      std::uint32_t u = static_cast<std::uint32_t>(cmd.slba + i);
      if (l2p_[u] == kUnmapped) continue;
      // A trim is a mapping delta like any other: durable only once the
      // journal entry syncs. For an in-buffer unit, the delta supersedes
      // the buffered write, so its rollback origin transfers into the
      // journal entry and the buffered state is forgotten.
      if (IsBuffered(l2p_[u])) {
        pending_tags_.erase(u);
        JournalAppend(u, OriginOf(l2p_[u]), kUnmapped);
      } else {
        JournalAppend(u, l2p_[u], kUnmapped);
      }
      InvalidateUnit(u);
      l2p_[u] = kUnmapped;  // also forgets in-buffer data
      counters_.units_trimmed++;
    }
  }
  counters_.deallocates++;
  co_return Completion{.status = Status::kSuccess};
}

sim::Task<Completion> ConvDevice::DoFlush(Command cmd) {
  // Flush: force the write-back buffer to flash (padding a partial NAND
  // page if needed) and sync the mapping journal — after completion a
  // power loss can no longer roll the flushed LBAs back.
  const std::uint64_t epoch0 = power_epoch_;
  telemetry::Tracer* tr = trace();
  (co_await Fcp(profile_.fcp.write, {cmd.trace_id})).Release();
  if (power_epoch_ != epoch0) {
    co_return Completion{.status = Status::kDeviceReset};
  }
  sim::Time drain_begin = sim_.now();
  if (pending_units_.count != 0) {
    programs_.Add();
    sim::Spawn(ProgramHostPage(std::exchange(pending_units_, {}), epoch0));
  }
  co_await programs_.Wait();
  if (tr != nullptr) {
    tr->Span(drain_begin, sim_.now(), cmd.trace_id, Layer::kBuffer,
             "buffer.drain");
  }
  if (power_epoch_ != epoch0) {
    co_return Completion{.status = Status::kDeviceReset};
  }
  SyncJournal();
  counters_.flushes++;
  co_return Completion{.status = Status::kSuccess};
}

sim::Task<> ConvDevice::ProgramHostPage(PageUnits units,
                                        std::uint64_t epoch) {
  const std::uint32_t dies = profile_.nand_geometry.total_dies();
  const std::uint32_t stream = next_die_rr_++ % dies;
  std::uint32_t block_id;
  std::uint32_t page;
  bool stale = false;
  for (;;) {
    {
      // Per-stream allocation lock: block lookup + page reservation is
      // atomic with respect to other programs on the same stream. (The
      // stream's block usually lives on the same-numbered die but may
      // come from another die under pressure.)
      auto g = co_await die_alloc_[stream]->Hold();
      if (power_epoch_ != epoch) {
        stale = true;  // crashed while queued behind the allocator
      } else {
        block_id = host_open_block_[stream];
        if (block_id == kUnmapped ||
            blocks_[block_id].write_ptr_units == units_per_block()) {
          if (block_id != kUnmapped) blocks_[block_id].open = false;
          block_id = co_await AcquireFreeBlock(stream);
          if (block_id == kUnmapped) {
            stale = true;  // crash drained the free-block waiters
          } else {
            host_open_block_[stream] = block_id;
            blocks_[block_id].open = true;
          }
        }
        if (!stale) {
          Block& b = blocks_[block_id];
          page = b.write_ptr_units >> unit_shift_;
          b.write_ptr_units += units_per_page();
          b.inflight++;
          if (b.write_ptr_units == units_per_block()) {
            b.open = false;
            host_open_block_[stream] = kUnmapped;
          }
        }
      }
    }
    if (stale) break;
    const nand::MediaStatus st = co_await flash_->ProgramPage(
        {DieOfBlockId(block_id), BlockOfBlockId(block_id), page});
    blocks_[block_id].inflight--;
    if (power_epoch_ != epoch) {
      // The program raced a power loss. Whether the page physically
      // completed or tore is moot: it was never mapped, so the crash
      // rollback already reverted these units to their durable copies.
      // The reserved page stays consumed (dead space — crash-induced
      // write amplification).
      stale = true;
      break;
    }
    if (st == nand::MediaStatus::kOk) break;
    // Program failure: the units are still buffered, so retire the bad
    // block and re-drive the page into a fresh allocation — the fault is
    // invisible to the host beyond the extra latency.
    RetireBlock(block_id);
    counters_.program_retries++;
  }
  if (stale) {
    for (std::uint32_t i = 0; i < units.count; ++i) buffer_slots_.Release();
    programs_.Done();
    co_return;
  }
  const std::uint32_t base = page << unit_shift_;
  for (std::uint32_t i = 0; i < units.count; ++i) {
    std::uint32_t u = units.unit[i];
    // Map only if this unit is still waiting on this buffered write (the
    // host may have overwritten it again while it sat in the buffer).
    if (IsBuffered(l2p_[u])) {
      std::uint32_t phys = PhysUnit(block_id, base + i);
      const std::uint32_t origin = OriginOf(l2p_[u]);
      MapUnit(u, phys);
      JournalAppend(u, origin, phys);
      if (auto it = pending_tags_.find(u); it != pending_tags_.end()) {
        CommitTag(phys, it->second);
        pending_tags_.erase(it);
      }
    }
    buffer_slots_.Release();
    counters_.host_units_programmed++;
  }
  programs_.Done();
}

// ------------------------------------- mapping journal & crash recovery

void ConvDevice::JournalAppend(std::uint32_t unit, std::uint32_t old_phys,
                               std::uint32_t new_phys) {
  journal_tail_.push_back({unit, old_phys, new_phys});
  if (journal_tail_.size() >= profile_.journal_sync_interval) SyncJournal();
}

void ConvDevice::SyncJournal() {
  if (journal_tail_.empty()) return;
  // Journal programs are charged as write amplification only — they ride
  // along host/GC programs on otherwise idle planes, so they are not
  // simulated as NAND occupancy (keeping non-crash timing identical to
  // the journal-less model this repo's calibration targets were fit on).
  const std::uint64_t units =
      (journal_tail_.size() + profile_.journal_entries_per_unit - 1) /
      profile_.journal_entries_per_unit;
  counters_.journal_units_written += units;
  counters_.journal_syncs++;
  journal_entries_since_checkpoint_ += journal_tail_.size();
  journal_tail_.clear();
  if (++journal_syncs_since_checkpoint_ >=
      profile_.journal_checkpoint_syncs) {
    counters_.journal_units_written += profile_.checkpoint_units;
    counters_.checkpoints++;
    journal_syncs_since_checkpoint_ = 0;
    journal_entries_since_checkpoint_ = 0;
  }
}

void ConvDevice::ForgetBufferedOldInBlock(std::uint32_t block_id) {
  const std::uint32_t lo = PhysUnit(block_id, 0);
  for (std::uint32_t phys = lo; phys < lo + units_per_block(); ++phys) {
    const std::uint32_t u = p2l_[phys];
    if (u == kUnmapped) continue;
    p2l_[phys] = kUnmapped;
    // The pre-buffer copy is about to be erased: if power fails before
    // the buffered rewrite lands, this unit has no durable copy left.
    // (A stale back-pointer fails the check: that unit moved on.)
    if (l2p_[u] == BufferedWithOrigin(phys)) {
      l2p_[u] = BufferedWithOrigin(kUnmapped);
    }
  }
}

void ConvDevice::CommitTag(std::uint32_t phys_unit, std::uint64_t tag) {
  if (tags_by_phys_.empty()) tags_by_phys_.assign(p2l_.size(), 0);
  tags_by_phys_[phys_unit] = tag;
}

std::uint64_t ConvDevice::TagOfLogical(std::uint32_t logical_unit) const {
  const std::uint32_t phys = l2p_[logical_unit];
  if (phys == kUnmapped) return 0;
  if (IsBuffered(phys)) {
    auto it = pending_tags_.find(logical_unit);
    return it != pending_tags_.end() ? it->second : 0;
  }
  return tags_by_phys_.empty() ? 0 : tags_by_phys_[phys];
}

sim::Task<> ConvDevice::CrashNow() {
  FinalizeLayout();
  const sim::Time crash_time = EnterOutage(Layer::kFtl);
  // Host programs parked on the free-block semaphore would deadlock the
  // quiesce below (GC aborts on power loss, so nothing will replenish the
  // pool): wake them so they can observe the crash and bail out.
  if (free_sem_ != nullptr) {
    while (free_sem_->has_waiters()) free_sem_->Release();
  }
  // Drain in-flight page programs in simulated time. The stale power
  // epoch stops each one from mapping anything; draining (rather than
  // tearing coroutines down) keeps buffer-slot and block accounting
  // exact, and the interval is folded into the outage window.
  co_await programs_.Wait();

  // --- volatile-state loss ------------------------------------------
  // 1. Buffered (unflushed) host writes: each buffered unit reverts to
  //    the origin carried in its l2p_ entry — its last durable pre-write
  //    mapping, or unmapped if it had none or GC erased that copy while
  //    the rewrite sat in the buffer. Units restore independently, so
  //    one pass in logical order is as good as any.
  std::uint64_t lost = 0;
  for (std::uint32_t u = 0; u < l2p_.size(); ++u) {
    if (!IsBuffered(l2p_[u])) continue;
    ++lost;
    const std::uint32_t origin = OriginOf(l2p_[u]);
    if (origin == kUnmapped) {
      l2p_[u] = kUnmapped;
    } else {
      MapUnit(u, origin);  // re-validates the old physical copy
    }
  }
  pending_tags_.clear();
  counters_.crash_lost_units += lost;
  for (std::uint32_t i = 0; i < pending_units_.count; ++i) {
    buffer_slots_.Release();
  }
  pending_units_ = {};
  // 2. Unsynced journal tail: mapping deltas that never reached flash
  //    unwind in reverse, restoring the pre-delta chain (this runs after
  //    the buffered restore so a unit's buffered -> P1 -> P0 history
  //    unwinds link by link).
  for (auto it = journal_tail_.rbegin(); it != journal_tail_.rend(); ++it) {
    ZSTOR_CHECK_MSG(l2p_[it->unit] == it->new_phys,
                    "journal chain out of order");
    if (it->new_phys != kUnmapped) {
      InvalidateUnit(it->unit);  // clears new_phys's valid bit and p2l
    }
    if (it->old_phys == kUnmapped) {
      l2p_[it->unit] = kUnmapped;
    } else {
      l2p_[it->unit] = it->old_phys;
      p2l_[it->old_phys] = it->unit;
      SetValid(it->old_phys, true);
      blocks_[BlockIdOfPhys(it->old_phys)].valid++;
    }
  }
  counters_.journal_reverted_entries += journal_tail_.size();
  journal_tail_.clear();

  // --- recovery: boot + replay the synced tail since the checkpoint ---
  co_await sim_.Delay(profile_.recovery_boot_cost +
                      profile_.recovery_per_entry *
                          journal_entries_since_checkpoint_);
  counters_.recovery_replay_entries += journal_entries_since_checkpoint_;
  LeaveOutage(crash_time);
  MaybeWakeGc();  // resumes what the outage held back (emits gc.victim)
  TraceRecovery(crash_time, Layer::kFtl, "recovery.replay",
                static_cast<std::int64_t>(journal_entries_since_checkpoint_),
                static_cast<std::int64_t>(lost));
}

// ----------------------------------------------------------------- debug

void ConvDevice::DebugPrefill() {
  ZSTOR_CHECK_MSG(!layout_done_, "DebugPrefill must precede all I/O");
  // Logical page k (units [k*upp, (k+1)*upp)) lands on die k % dies, as
  // that die's (k / dies)-th page: the host write stream's round-robin.
  // Walk the logical pages in order, so l2p_ fills sequentially; a page's
  // valid bits share one word (upp <= 16 divides 64). Every touched block
  // is sealed full so it is GC-eligible.
  const nand::Geometry& g = profile_.nand_geometry;
  const std::uint32_t dies = g.total_dies();
  const std::uint32_t upp = units_per_page();
  const std::uint32_t page_mask = (1u << page_shift_) - 1;
  const std::uint64_t logical_units = l2p_.size();
  const std::uint64_t logical_pages = (logical_units + upp - 1) / upp;
  ZSTOR_CHECK(logical_pages <=
              static_cast<std::uint64_t>(dies) * g.blocks_per_die
                  << page_shift_);
  std::uint32_t die = 0;
  std::uint32_t row = 0;  // the page's index among its die's pages
  for (std::uint64_t u0 = 0; u0 < logical_units; u0 += upp) {
    const std::uint32_t block_id = BlockIdOf(die, row >> page_shift_);
    const std::uint32_t phys0 =
        PhysUnit(block_id, (row & page_mask) << unit_shift_);
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(upp, logical_units - u0));
    for (std::uint32_t s = 0; s < n; ++s) {
      l2p_[u0 + s] = phys0 + s;
      p2l_[phys0 + s] = static_cast<std::uint32_t>(u0 + s);
    }
    valid_bits_[phys0 >> 6] |= ((1ull << n) - 1) << (phys0 & 63);
    blocks_[block_id].valid += n;
    if (++die == dies) {
      die = 0;
      ++row;
    }
  }
  // Die d took pages d, d + dies, ...: its last block may be partial.
  for (die = 0; die < dies; ++die) {
    const std::uint64_t rows =
        logical_pages > die ? (logical_pages - die + dies - 1) / dies : 0;
    for (std::uint64_t first = 0; first < rows; first += page_mask + 1) {
      const auto blk = static_cast<std::uint32_t>(first >> page_shift_);
      blocks_[BlockIdOf(die, blk)].write_ptr_units = units_per_block();
      flash_->DebugProgramRange(
          die, blk,
          static_cast<std::uint32_t>(
              std::min<std::uint64_t>(rows - first, page_mask + 1)));
    }
  }
  FinalizeLayout();
}

}  // namespace zstor::ftl
