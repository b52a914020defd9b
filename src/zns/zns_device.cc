#include "zns/zns_device.h"

#include <algorithm>
#include <cmath>
#include <functional>

namespace zstor::zns {

using nvme::Command;
using nvme::Completion;
using nvme::Lba;
using nvme::Opcode;
using nvme::Status;
using nvme::ZoneAction;
using sim::Time;
using telemetry::Layer;

ZnsDevice::ZnsDevice(sim::Simulator& s, ZnsProfile profile,
                     std::uint32_t lba_bytes)
    : ControllerCore(s, counters_, profile.write_buffer_bytes,
                     profile.nand_geometry.page_bytes, profile.seed,
                     profile.io_sigma, profile.reset.sigma,
                     profile.finish.sigma),
      profile_(std::move(profile)),
      lba_bytes_(lba_bytes),
      zones_(profile_.num_zones) {
  ZSTOR_CHECK(lba_bytes_ > 0 && (lba_bytes_ & (lba_bytes_ - 1)) == 0);
  ZSTOR_CHECK(lba_bytes_ <= profile_.nand_geometry.page_bytes);
  ZSTOR_CHECK(profile_.zone_size_bytes % lba_bytes_ == 0);
  ZSTOR_CHECK(profile_.zone_cap_bytes % lba_bytes_ == 0);
  ZSTOR_CHECK(profile_.zone_cap_bytes <= profile_.zone_size_bytes);
  ZSTOR_CHECK(profile_.max_open_zones > 0);
  ZSTOR_CHECK(profile_.max_active_zones >= profile_.max_open_zones);
  zone_size_lbas_ = profile_.zone_size_bytes / lba_bytes_;
  zone_cap_lbas_ = profile_.zone_cap_bytes / lba_bytes_;

  if (profile_.use_nand_backend) {
    const nand::Geometry& g = profile_.nand_geometry;
    ZSTOR_CHECK(profile_.zone_cap_bytes % g.page_bytes == 0);
    ZoneLayout& l = layout_;
    l = {.dies = g.total_dies(),
         .pages_per_block = g.pages_per_block,
         .zone_cap_pages = profile_.zone_cap_bytes / g.page_bytes};
    const std::uint64_t per_die = (l.zone_cap_pages + l.dies - 1) / l.dies;
    l.blocks_per_zone_per_die = static_cast<std::uint32_t>(
        (per_die + l.pages_per_block - 1) / l.pages_per_block);
    // Every zone owns a fixed run of blocks on every die.
    ZSTOR_CHECK_MSG(static_cast<std::uint64_t>(l.blocks_per_zone_per_die) *
                            profile_.num_zones <=
                        g.blocks_per_die,
                    "NAND geometry too small for the zone layout");
    flash_ = std::make_unique<nand::FlashArray>(s, g, profile_.nand_timing);
  }

  info_.format.lba_bytes = lba_bytes_;
  info_.capacity_lbas = zone_size_lbas_ * profile_.num_zones;
  info_.zoned = true;
  info_.zone_size_lbas = zone_size_lbas_;
  info_.zone_cap_lbas = zone_cap_lbas_;
  info_.num_zones = profile_.num_zones;
  info_.max_open_zones = profile_.max_open_zones;
  info_.max_active_zones = profile_.max_active_zones;
}

// ---------------------------------------------------------------- helpers

std::uint32_t ZnsDevice::ZoneOfLba(Lba lba) const {
  return static_cast<std::uint32_t>(lba / zone_size_lbas_);
}

Lba ZnsDevice::ZoneStartLba(std::uint32_t zone) const {
  return static_cast<Lba>(zone) * zone_size_lbas_;
}

std::uint64_t ZnsDevice::ZoneDataOffsetBytes(Lba lba) const {
  return (lba - ZoneStartLba(ZoneOfLba(lba))) * lba_bytes_;
}

ZoneState ZnsDevice::GetZoneState(std::uint32_t zone) const {
  ZSTOR_CHECK(zone < zones_.size());
  return zones_[zone].state;
}

Lba ZnsDevice::ZoneWritePointerLba(std::uint32_t zone) const {
  ZSTOR_CHECK(zone < zones_.size());
  return ZoneStartLba(zone) + zones_[zone].wp_bytes / lba_bytes_;
}

std::uint64_t ZnsDevice::ZoneWrittenBytes(std::uint32_t zone) const {
  ZSTOR_CHECK(zone < zones_.size());
  return zones_[zone].wp_bytes;
}

nvme::SmartLog ZnsDevice::GetSmartLog() const {
  nvme::SmartLog log = CoreSmartLog("zns");
  log.host_writes += counters_.appends;
  log.spare_blocks_used = counters_.spare_blocks_used;
  log.spare_blocks_total = profile_.spare_blocks;
  log.zone_resets = counters_.resets;
  log.zone_finishes = counters_.finishes;
  log.zone_explicit_opens = counters_.explicit_opens;
  log.zone_implicit_opens = counters_.implicit_opens;
  log.zone_closes = counters_.closes;
  log.zone_transitions = counters_.zone_transitions;
  log.zones_worn_offline = counters_.zones_worn_offline;
  log.zones_degraded_readonly = counters_.zones_degraded_readonly;
  log.zones_failed_offline = counters_.zones_failed_offline;
  // Host-managed placement: the device never migrates data, so media
  // programs per host write is exactly 1.
  log.write_amplification = 1.0;
  return log;
}

nvme::ZoneReportLog ZnsDevice::GetZoneReportLog() const {
  nvme::ZoneReportLog log;
  log.num_zones = profile_.num_zones;
  log.open_zones = open_count_;
  log.active_zones = active_count_;
  log.max_open = profile_.max_open_zones;
  log.max_active = profile_.max_active_zones;
  log.zones.reserve(zones_.size());
  for (std::uint32_t z = 0; z < zones_.size(); ++z) {
    nvme::ZoneReportEntry e;
    e.zone = z;
    e.state_raw = static_cast<std::uint32_t>(zones_[z].state);
    e.state = std::string(ToString(zones_[z].state));
    e.zslba = ZoneStartLba(z);
    e.write_pointer = ZoneWritePointerLba(z);
    e.written_bytes = zones_[z].wp_bytes;
    e.cap_bytes = profile_.zone_cap_bytes;
    e.retired_blocks = zones_[z].retired_blocks;
    if (zones_[z].state == ZoneState::kReadOnly) log.read_only_zones++;
    if (zones_[z].state == ZoneState::kOffline) log.offline_zones++;
    log.zones.push_back(std::move(e));
  }
  return log;
}

Time ZnsDevice::FcpIoCost(Opcode op, std::uint64_t bytes, std::uint32_t nlb,
                          Lba slba) const {
  const FcpCosts& f = profile_.fcp;
  Time c = 0;
  switch (op) {
    case Opcode::kRead: c = f.read; break;
    case Opcode::kWrite: c = f.write; break;
    case Opcode::kAppend: c = f.append; break;
    default: ZSTOR_CHECK_MSG(false, "not an I/O opcode");
  }
  std::uint64_t units = (bytes + f.map_unit_bytes - 1) / f.map_unit_bytes;
  if (units > 1) c += f.per_extra_unit * (units - 1);
  if (op != Opcode::kRead) {
    std::uint64_t off = ZoneDataOffsetBytes(slba);
    if (bytes % f.map_unit_bytes != 0 || off % f.map_unit_bytes != 0) {
      c += f.sub_unit_rmw;  // read-modify-write of a mapping unit
    }
    if (lba_bytes_ < f.map_unit_bytes) c += f.small_lba_per_lba * nlb;
  }
  return c;
}

Time ZnsDevice::ResetCost(const Zone& z) {
  const ResetModel& m = profile_.reset;
  const double noise = NoiseFactor(kResetNoise);
  if (z.wp_bytes == 0 && !z.finished) {
    return static_cast<Time>(static_cast<double>(m.empty_cost) * noise);
  }
  if (m.static_cost) {
    return static_cast<Time>(static_cast<double>(m.static_value) * noise);
  }
  // Occupancy is the *data* fraction; a finished zone pays an additional
  // term for unmapping the finish-padded remainder.
  double occ = static_cast<double>(z.finished ? z.data_bytes_at_finish
                                              : z.wp_bytes) /
               static_cast<double>(profile_.zone_cap_bytes);
  double cost = static_cast<double>(m.base) +
                static_cast<double>(m.coef) * std::pow(occ, m.exponent);
  if (z.finished) {
    cost += static_cast<double>(m.finished_extra_coef) * (1.0 - occ);
  }
  return static_cast<Time>(cost * noise);
}

nand::PageAddr ZnsDevice::AddrOfZonePage(std::uint32_t zone,
                                         std::uint64_t page_idx) const {
  const ZoneLayout& l = layout_;
  const std::uint64_t on_die = page_idx / l.dies;
  const auto block_in_zone =
      static_cast<std::uint32_t>(on_die / l.pages_per_block);
  ZSTOR_CHECK(block_in_zone < l.blocks_per_zone_per_die);
  return nand::PageAddr{
      .die = static_cast<std::uint32_t>(page_idx % l.dies),
      .block = zone * l.blocks_per_zone_per_die + block_in_zone,
      .page = static_cast<std::uint32_t>(on_die % l.pages_per_block)};
}

template <typename Fn>
void ZnsDevice::ForEachZoneBlock(std::uint32_t zone, std::uint64_t pages,
                                 Fn fn) const {
  const ZoneLayout& l = layout_;
  for (std::uint32_t die = 0; die < l.dies; ++die) {
    std::uint64_t left = pages / l.dies + (die < pages % l.dies ? 1 : 0);
    for (std::uint32_t b = 0; b < l.blocks_per_zone_per_die; ++b) {
      const auto n = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(left, l.pages_per_block));
      left -= n;
      fn(die, zone * l.blocks_per_zone_per_die + b, n);
    }
  }
}

void ZnsDevice::MarkPagesProgrammed(std::uint32_t zone, std::uint64_t pages) {
  ForEachZoneBlock(zone, pages, [&](std::uint32_t die, std::uint32_t block,
                                    std::uint32_t n) {
    if (n > 0) flash_->DebugProgramRange(die, block, n);
  });
}

bool ZnsDevice::DeviceIsIoQuiet() const {
  // Quiet only if no I/O has touched the device for a full millisecond —
  // QD=1 submission gaps are microseconds, so ongoing workloads always
  // keep resets on the sliced background path. Waiters imply busy.
  return fcp_.available() != 0 && sim_.now() >= quiet_at_;
}

// --------------------------------------------------------- state machine

void ZnsDevice::SetZoneState(std::uint32_t zone, ZoneState next) {
  Zone& z = zones_[zone];
  ZoneState prev = z.state;
  if (prev == next) return;
  counters_.zone_transitions++;
  if (telemetry::Tracer* tr = trace(); tr != nullptr) {
    tr->Instant(sim_.now(), /*cmd=*/0, Layer::kZone, "zone.transition",
                static_cast<std::int64_t>(zone),
                (static_cast<std::int64_t>(prev) << 8) |
                    static_cast<std::int64_t>(next));
  }
  if (telemetry::TimelineWriter* tl = timeline(); tl != nullptr) {
    tl->ZoneState(sim_.now(), telem_->timeline_label(), lane_, zone,
                  ToString(prev), ToString(next));
  }
  if (IsOpen(prev) && !IsOpen(next)) {
    ZSTOR_CHECK(open_count_ > 0);
    --open_count_;
  } else if (!IsOpen(prev) && IsOpen(next)) {
    ++open_count_;
  }
  if (IsActive(prev) && !IsActive(next)) {
    ZSTOR_CHECK(active_count_ > 0);
    --active_count_;
  } else if (!IsActive(prev) && IsActive(next)) {
    ++active_count_;
  }
  z.state = next;
  ZSTOR_CHECK(open_count_ <= profile_.max_open_zones);
  ZSTOR_CHECK(active_count_ <= profile_.max_active_zones);
  ZSTOR_CHECK(open_count_ <= active_count_);
}

bool ZnsDevice::TakeOpenSlotWithEviction() {
  if (open_count_ < profile_.max_open_zones) return true;
  // At the open limit: the controller may close an implicitly-opened zone
  // to make room (NVMe ZNS 2.1.3); explicitly-opened zones are pinned.
  std::uint32_t victim = profile_.num_zones;
  std::uint64_t oldest = ~0ull;
  for (std::uint32_t i = 0; i < profile_.num_zones; ++i) {
    const Zone& z = zones_[i];
    if (z.state == ZoneState::kImplicitlyOpened &&
        z.opened_at_seq < oldest) {
      oldest = z.opened_at_seq;
      victim = i;
    }
  }
  if (victim == profile_.num_zones) return false;
  ZSTOR_CHECK(zones_[victim].wp_bytes > 0);  // implicit open implies I/O
  SetZoneState(victim, ZoneState::kClosed);
  counters_.implicit_open_evictions++;
  return true;
}

Status ZnsDevice::EnsureOpenForIo(std::uint32_t zone, bool& first_io) {
  Zone& z = zones_[zone];
  first_io = false;
  switch (z.state) {
    case ZoneState::kImplicitlyOpened:
    case ZoneState::kExplicitlyOpened:
      return Status::kSuccess;
    case ZoneState::kEmpty:
      if (active_count_ >= profile_.max_active_zones) {
        return Status::kTooManyActiveZones;
      }
      [[fallthrough]];
    case ZoneState::kClosed:
      if (!TakeOpenSlotWithEviction()) return Status::kTooManyOpenZones;
      SetZoneState(zone, ZoneState::kImplicitlyOpened);
      z.opened_at_seq = ++open_seq_;
      counters_.implicit_opens++;
      first_io = true;
      return Status::kSuccess;
    case ZoneState::kFull:
      return Status::kZoneIsFull;
    case ZoneState::kReadOnly:
      return Status::kZoneIsReadOnly;
    case ZoneState::kOffline:
      return Status::kZoneIsOffline;
  }
  return Status::kInvalidField;
}

void ZnsDevice::TransitionToFullLocked(std::uint32_t zone, bool via_finish) {
  Zone& z = zones_[zone];
  SetZoneState(zone, ZoneState::kFull);
  z.finished = via_finish;
  if (via_finish) {
    z.data_bytes_at_finish = z.wp_bytes;
    z.wp_bytes = profile_.zone_cap_bytes;
  }
}

// ------------------------------------------------------------- NAND path

sim::Task<> ZnsDevice::ProgramZonePage(std::uint32_t zone,
                                       std::uint64_t page_idx,
                                       std::uint64_t epoch) {
  const nand::PageAddr addr = AddrOfZonePage(zone, page_idx);
  const nand::MediaStatus st = co_await flash_->ProgramPage(addr);
  buffer_slots_.Release();
  Zone& z = zones_[zone];
  if (epoch == power_epoch_) {
    // The page slot is consumed even on failure (the write pointer already
    // advanced and follow-on pages were admitted behind it); the data loss
    // is reported to the host via kWriteFault, not by shrinking the zone.
    NoteProgramSettled(zone, page_idx);
    if (st == nand::MediaStatus::kProgramFail) {
      HandleProgramFailure(zone, addr);
    }
  }
  // A program settling after a power loss (stale epoch) only returns its
  // resources: the crash already rolled the zone back and will discard
  // this page's NAND state, so mutating zone accounting here would
  // resurrect rolled-back bytes.
  ZSTOR_CHECK(z.inflight_programs > 0);
  if (--z.inflight_programs == 0) z.quiesce_waiters.WakeAll(sim_);
  programs_.Done();
}

void ZnsDevice::NoteProgramSettled(std::uint32_t zone,
                                   std::uint64_t page_idx) {
  std::uint64_t& prefix = zones_[zone].settled_prefix_pages;
  std::vector<std::uint64_t>& oo = zones_[zone].settled_oo_pages;  // desc.
  if (page_idx == prefix) {
    ++prefix;
    // Drain any out-of-order completions the new prefix now reaches.
    while (!oo.empty() && oo.back() == prefix) {
      oo.pop_back();
      ++prefix;
    }
    if (oo.empty() && oo.capacity() != 0) {
      spare_oo_lists_.push_back(std::move(oo));
    }
  } else if (page_idx > prefix) {
    if (oo.capacity() == 0 && !spare_oo_lists_.empty()) {
      oo = std::move(spare_oo_lists_.back());
      spare_oo_lists_.pop_back();
    }
    oo.insert(std::upper_bound(oo.begin(), oo.end(), page_idx,
                               std::greater<>()),
              page_idx);
  }
  // page_idx < prefix is impossible: pages are admitted once, in order.
}

void ZnsDevice::HandleProgramFailure(std::uint32_t zone,
                                     nand::PageAddr addr) {
  Zone& z = zones_[zone];
  counters_.write_faults++;
  z.write_fault_pending = true;
  flush_fault_pending_ = true;
  if (!flash_->MarkBlockRetired(addr.die, addr.block)) {
    return;  // fail-fast program on an already-retired block
  }
  z.retired_blocks++;
  counters_.retired_blocks++;
  if (z.state == ZoneState::kOffline) return;
  if (counters_.spare_blocks_used < profile_.spare_blocks) {
    // A spare absorbs the loss of redundancy; the zone keeps its data
    // readable but accepts no further writes.
    counters_.spare_blocks_used++;
    if (z.state != ZoneState::kReadOnly) {
      SetZoneState(zone, ZoneState::kReadOnly);
      counters_.zones_degraded_readonly++;
    }
  } else {
    // Spares exhausted: the device can no longer guarantee the zone.
    SetZoneState(zone, ZoneState::kOffline);
    counters_.zones_failed_offline++;
  }
}

sim::Task<> ZnsDevice::AdmitPrograms(std::uint32_t zone,
                                     std::uint64_t end_off_bytes,
                                     std::uint64_t epoch) {
  const std::uint64_t target =
      end_off_bytes / profile_.nand_geometry.page_bytes;
  Zone& z = zones_[zone];
  while (epoch == power_epoch_ && z.next_program_page < target) {
    co_await buffer_slots_.Acquire();  // backpressure when the buffer fills
    if (epoch != power_epoch_) {
      // Power was lost while we waited for a slot: the crash rolled
      // next_program_page back, the buffered data is gone, and the slot
      // we just got must go straight back.
      buffer_slots_.Release();
      break;
    }
    if (z.next_program_page >= target) {
      // While this admitter waited for a slot, a concurrent admitter for
      // the same zone (a later append's admission loop) drove the shared
      // page cursor past our target: our pages are already admitted, and
      // taking one more would program past the zone's write pointer.
      buffer_slots_.Release();
      break;
    }
    std::uint64_t p = z.next_program_page++;
    z.inflight_programs++;
    programs_.Add();
    sim::Spawn(ProgramZonePage(zone, p, epoch));
  }
}

// --------------------------------------------------------------- command

nvme::Status ZnsDevice::ValidateIoRange(const Command& cmd,
                                        bool is_write) const {
  if (cmd.nlb == 0) return Status::kInvalidField;
  if (cmd.slba >= info_.capacity_lbas ||
      cmd.slba + cmd.nlb > info_.capacity_lbas) {
    return Status::kLbaOutOfRange;
  }
  if (ZoneOfLba(cmd.slba) != ZoneOfLba(cmd.slba + cmd.nlb - 1)) {
    return Status::kZoneBoundaryError;
  }
  if (is_write) {
    std::uint64_t off = ZoneDataOffsetBytes(cmd.slba);
    std::uint64_t bytes = static_cast<std::uint64_t>(cmd.nlb) * lba_bytes_;
    if (off + bytes > profile_.zone_cap_bytes) {
      return Status::kZoneBoundaryError;
    }
  }
  return Status::kSuccess;
}

std::optional<sim::Task<Completion>> ZnsDevice::Dispatch(const Command& cmd) {
  switch (cmd.opcode) {
    case Opcode::kRead: return DoRead(cmd);
    case Opcode::kWrite:
    case Opcode::kAppend: return DoWrite(cmd);
    case Opcode::kZoneMgmtSend: return DoZoneMgmt(cmd);
    case Opcode::kZoneMgmtRecv: return DoReportZones(cmd);
    case Opcode::kFlush: return DoFlush(cmd.trace_id);
    default: return std::nullopt;
  }
}

sim::Task<Completion> ZnsDevice::DoRead(Command cmd) {
  if (Status st = ValidateIoRange(cmd, /*is_write=*/false);
      st != Status::kSuccess) {
    co_return Completion{.status = st};
  }
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(cmd.nlb) * lba_bytes_;
  const std::uint32_t zone = ZoneOfLba(cmd.slba);
  // Offline zones lost their data; ReadOnly zones still serve reads.
  if (zones_[zone].state == ZoneState::kOffline) {
    co_return Completion{.status = Status::kZoneIsOffline};
  }
  InflightGuard io_guard(*this);
  const std::uint64_t epoch0 = power_epoch_;
  telemetry::Tracer* tr = trace();
  (co_await Fcp(FcpIoCost(Opcode::kRead, bytes, cmd.nlb, cmd.slba),
                {cmd.trace_id, zone, zone, bytes}))
      .Release();
  if (power_epoch_ != epoch0) {
    co_return Completion{.status = Status::kDeviceReset};
  }
  sim::Time nand_begin = sim_.now();
  // NAND phase: fetch the pages that have actually been programmed; the
  // rest is served from the write-back buffer or as deallocated zeroes.
  nand::MediaStatus media = nand::MediaStatus::kOk;
  if (flash_) {
    const Zone& z = zones_[zone];
    const std::uint64_t pb = profile_.nand_geometry.page_bytes;
    std::uint64_t off = ZoneDataOffsetBytes(cmd.slba);
    const std::uint64_t settled =
        z.settled_prefix_pages + z.settled_oo_pages.size();
    std::uint64_t end = std::min(off + bytes, settled * pb);
    if (off < end) {
      std::uint64_t first_page = off / pb;
      std::uint64_t last_page = (end - 1) / pb;
      if (first_page == last_page) {
        media = co_await flash_->ReadPage(
            AddrOfZonePage(zone, first_page),
            static_cast<std::uint32_t>(end - off));
      } else {
        sim::WaitGroup wg(sim_);
        for (std::uint64_t p = first_page; p <= last_page; ++p) {
          std::uint64_t p_lo = std::max(off, p * pb);
          std::uint64_t p_hi = std::min(end, (p + 1) * pb);
          wg.Add();
          sim::Spawn(FanOutRead(AddrOfZonePage(zone, p),
                                static_cast<std::uint32_t>(p_hi - p_lo), &wg,
                                &media));
        }
        co_await wg.Wait();
      }
    }
  }
  if (power_epoch_ != epoch0) {
    co_return Completion{.status = Status::kDeviceReset};
  }
  sim::Time post_begin = sim_.now();
  if (tr != nullptr && flash_) {
    // Zero-length when everything was served from the write-back buffer.
    tr->Span(nand_begin, post_begin, cmd.trace_id, Layer::kNand,
             "nand.read", static_cast<std::int64_t>(zone));
  }
  if (media == nand::MediaStatus::kReadError) {
    // ECC gave up on at least one page: the command fails; no host DMA.
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
    // Power cut during the host DMA: the transfer is torn; fail the read.
    co_return Completion{.status = Status::kDeviceReset};
  }
  counters_.reads++;
  counters_.bytes_read += bytes;
  Completion c{.status = Status::kSuccess};
  if (cmd.payload_tag != 0) {
    // Integrity-check readback: report what the medium actually holds at
    // completion time (LBAs never written — or rolled back by a crash —
    // read as tag 0).
    LoadTags(zone, ZoneDataOffsetBytes(cmd.slba), cmd.nlb, c.payload_tags);
  }
  co_return c;
}

sim::Task<Completion> ZnsDevice::DoWrite(Command cmd) {
  // Write and Zone Append share this path; they differ in how the target
  // offset is validated (a write must sit at the write pointer, an append
  // names the zone by its ZSLBA and takes whatever the pointer is), in
  // their FCP and post-processing costs, and in append's result LBA.
  const bool append = cmd.opcode == Opcode::kAppend;
  if (Status st = ValidateIoRange(cmd, /*is_write=*/!append);
      st != Status::kSuccess) {
    co_return Completion{.status = st};
  }
  if (append && cmd.slba != ZoneStartLba(ZoneOfLba(cmd.slba))) {
    co_return Completion{.status = Status::kInvalidField};  // needs ZSLBA
  }
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(cmd.nlb) * lba_bytes_;
  const std::uint32_t zone = ZoneOfLba(cmd.slba);
  InflightGuard io_guard(*this);
  const std::uint64_t epoch0 = power_epoch_;
  telemetry::Tracer* tr = trace();
  bool first_io = false;
  std::uint64_t assigned_off;
  std::uint64_t end_off;
  {
    auto g = co_await Fcp(FcpIoCost(cmd.opcode, bytes, cmd.nlb, cmd.slba),
                          {cmd.trace_id, zone, zone, bytes});
    if (power_epoch_ != epoch0) {
      // Power cut before the command reached the zone state machine:
      // nothing of it survives, not even buffered bytes.
      co_return Completion{.status = Status::kDeviceReset};
    }
    Zone& z = zones_[zone];
    if (z.write_fault_pending) {
      // Report the earlier program failure once; subsequent writes see
      // the zone's degraded state instead.
      z.write_fault_pending = false;
      co_return Completion{.status = Status::kWriteFault};
    }
    if (z.state != ZoneState::kFull) {
      if (append && z.wp_bytes + bytes > profile_.zone_cap_bytes) {
        co_return Completion{.status = Status::kZoneBoundaryError};
      }
      if (!append && ZoneDataOffsetBytes(cmd.slba) != z.wp_bytes) {
        co_return Completion{.status = Status::kZoneInvalidWrite};
      }
    }
    if (Status st = EnsureOpenForIo(zone, first_io);
        st != Status::kSuccess) {
      co_return Completion{.status = st};
    }
    assigned_off = z.wp_bytes;
    z.wp_bytes += bytes;
    end_off = z.wp_bytes;
    if (cmd.payload_tag != 0) {
      StoreTags(zone, assigned_off, cmd.nlb, cmd.payload_tag);
    }
    if (z.wp_bytes == profile_.zone_cap_bytes) {
      TransitionToFullLocked(zone, /*via_finish=*/false);
    }
  }
  sim::Time post_begin = sim_.now();
  Time post = profile_.post.write_fixed +
              static_cast<Time>(profile_.post.dma_ns_per_byte *
                                static_cast<double>(bytes));
  if (append && bytes < profile_.post.substripe_threshold_bytes) {
    post += profile_.post.append_substripe_extra;
  }
  if (first_io) {
    post += append ? profile_.open_close.implicit_first_append_extra
                   : profile_.open_close.implicit_first_write_extra;
  }
  co_await sim_.Delay(Noise(post));
  sim::Time admit_begin = sim_.now();
  if (tr != nullptr) {
    tr->Span(post_begin, admit_begin, cmd.trace_id, Layer::kPost, "post",
             static_cast<std::int64_t>(bytes), first_io ? 1 : 0);
  }
  if (power_epoch_ != epoch0) {
    // Power cut after the wp advanced but before the ack: the crash
    // rolled the zone back; the host must treat the command as not-done.
    co_return Completion{.status = Status::kDeviceReset};
  }
  if (flash_) co_await AdmitPrograms(zone, end_off, epoch0);
  if (tr != nullptr) {
    // Non-zero only when the write-back buffer is full and admission has
    // to wait for the NAND drain (the Obs. 9 throttling mechanism).
    tr->Span(admit_begin, sim_.now(), cmd.trace_id, Layer::kBuffer,
             "buffer.admit", static_cast<std::int64_t>(zone));
  }
  if (power_epoch_ != epoch0) {
    co_return Completion{.status = Status::kDeviceReset};
  }
  (append ? counters_.appends : counters_.writes)++;
  counters_.bytes_written += bytes;
  Completion c{.status = Status::kSuccess};
  if (append) c.result_lba = ZoneStartLba(zone) + assigned_off / lba_bytes_;
  co_return c;
}

sim::Task<Completion> ZnsDevice::DoZoneMgmt(Command cmd) {
  if (cmd.select_all) {
    if (cmd.zone_action != ZoneAction::kReset) {
      co_return Completion{.status = Status::kInvalidField};
    }
    co_return co_await DoResetAll(cmd.trace_id);
  }
  if (cmd.slba >= info_.capacity_lbas) {
    co_return Completion{.status = Status::kLbaOutOfRange};
  }
  const std::uint32_t zone = ZoneOfLba(cmd.slba);
  switch (cmd.zone_action) {
    case ZoneAction::kOpen: co_return co_await DoOpen(zone, cmd.trace_id);
    case ZoneAction::kClose: co_return co_await DoClose(zone, cmd.trace_id);
    case ZoneAction::kFinish: co_return co_await DoFinish(zone, cmd.trace_id);
    case ZoneAction::kReset: co_return co_await DoReset(zone, cmd.trace_id);
    case ZoneAction::kNone: break;
  }
  co_return Completion{.status = Status::kInvalidField};
}

sim::Task<Completion> ZnsDevice::DoOpen(std::uint32_t zone,
                                        std::uint64_t tid) {
  const std::uint64_t epoch0 = power_epoch_;
  auto g = co_await Fcp(profile_.open_close.explicit_open,
                        {tid, zone, zone, 0, "zone.open", Layer::kZone});
  if (power_epoch_ != epoch0) {
    co_return Completion{.status = Status::kDeviceReset};
  }
  Zone& z = zones_[zone];
  switch (z.state) {
    case ZoneState::kExplicitlyOpened:
      co_return Completion{.status = Status::kSuccess};  // no-op
    case ZoneState::kImplicitlyOpened:
      SetZoneState(zone, ZoneState::kExplicitlyOpened);
      counters_.explicit_opens++;
      co_return Completion{.status = Status::kSuccess};
    case ZoneState::kEmpty:
      if (active_count_ >= profile_.max_active_zones) {
        co_return Completion{.status = Status::kTooManyActiveZones};
      }
      [[fallthrough]];
    case ZoneState::kClosed:
      if (!TakeOpenSlotWithEviction()) {
        co_return Completion{.status = Status::kTooManyOpenZones};
      }
      SetZoneState(zone, ZoneState::kExplicitlyOpened);
      z.opened_at_seq = ++open_seq_;
      counters_.explicit_opens++;
      co_return Completion{.status = Status::kSuccess};
    case ZoneState::kFull:
      co_return Completion{.status = Status::kZoneIsFull};
    case ZoneState::kReadOnly:
    case ZoneState::kOffline:
      co_return Completion{.status = Status::kZoneInvalidStateTransition};
  }
  co_return Completion{.status = Status::kInvalidField};
}

sim::Task<Completion> ZnsDevice::DoClose(std::uint32_t zone,
                                         std::uint64_t tid) {
  const std::uint64_t epoch0 = power_epoch_;
  auto g = co_await Fcp(profile_.open_close.close,
                        {tid, zone, zone, 0, "zone.close", Layer::kZone});
  if (power_epoch_ != epoch0) {
    co_return Completion{.status = Status::kDeviceReset};
  }
  Zone& z = zones_[zone];
  switch (z.state) {
    case ZoneState::kClosed:
      co_return Completion{.status = Status::kSuccess};  // no-op
    case ZoneState::kImplicitlyOpened:
    case ZoneState::kExplicitlyOpened:
      // Closing a zone with nothing written returns it to Empty (it holds
      // no data to keep active resources for).
      SetZoneState(zone, z.wp_bytes == 0 ? ZoneState::kEmpty
                                         : ZoneState::kClosed);
      counters_.closes++;
      co_return Completion{.status = Status::kSuccess};
    default:
      co_return Completion{.status = Status::kZoneInvalidStateTransition};
  }
}

sim::Task<Completion> ZnsDevice::DoFinish(std::uint32_t zone,
                                          std::uint64_t tid) {
  const std::uint64_t epoch0 = power_epoch_;
  telemetry::Tracer* tr = trace();
  Zone& z = zones_[zone];
  {
    auto g = co_await Fcp(profile_.fcp.write, {tid, zone, zone});  // admission
    if (power_epoch_ != epoch0) {
      co_return Completion{.status = Status::kDeviceReset};
    }
    switch (z.state) {
      case ZoneState::kEmpty:
        co_return Completion{.status = Status::kZoneIsEmpty};
      case ZoneState::kFull:
        co_return Completion{.status = Status::kZoneIsFull};
      case ZoneState::kReadOnly:
      case ZoneState::kOffline:
        co_return Completion{.status = Status::kZoneInvalidStateTransition};
      case ZoneState::kImplicitlyOpened:
      case ZoneState::kExplicitlyOpened:
      case ZoneState::kClosed:
        break;
    }
  }
  // Quiesce in-flight NAND programs, then pad the remaining capacity.
  sim::Time quiesce_begin = sim_.now();
  co_await ProgramsSettled(z);
  if (Status st = Quiesced(zone, tid, quiesce_begin, epoch0);
      st != Status::kSuccess) {
    co_return Completion{.status = st};
  }
  std::uint64_t remaining = profile_.zone_cap_bytes - z.wp_bytes;
  if (!profile_.finish.zero_cost) {
    Time pad =
        profile_.finish.base +
        static_cast<Time>(profile_.finish.per_byte_ns *
                          static_cast<double>(remaining));
    const double noise = NoiseFactor(kFinishNoise);
    sim::Time pad_begin = sim_.now();
    co_await sim_.Delay(
        static_cast<Time>(static_cast<double>(pad) * noise));
    if (tr != nullptr) {
      tr->Span(pad_begin, sim_.now(), tid, Layer::kZone, "finish.pad",
               static_cast<std::int64_t>(zone),
               static_cast<std::int64_t>(remaining));
    }
    if (power_epoch_ != epoch0) {
      // Power cut mid-pad: nothing was marked programmed yet, so the
      // crash rollback saw the zone as it stood; just fail the command.
      co_return Completion{.status = Status::kDeviceReset};
    }
  }
  if (flash_) {
    // Mark the padded region programmed (the pad time above charged the
    // aggregate NAND cost; see DESIGN.md §6).
    MarkPagesProgrammed(zone, layout_.zone_cap_pages);
    z.SetSettledPages(layout_.zone_cap_pages);
  }
  TransitionToFullLocked(zone, /*via_finish=*/true);
  counters_.finishes++;
  co_return Completion{.status = Status::kSuccess};
}

Status ZnsDevice::Quiesced(std::uint32_t zone, std::uint64_t tid,
                          Time quiesce_begin, std::uint64_t epoch0) {
  if (telemetry::Tracer* tr = trace(); tr != nullptr) {
    tr->Span(quiesce_begin, sim_.now(), tid, Layer::kZone, "zone.quiesce",
             static_cast<std::int64_t>(zone));
  }
  if (power_epoch_ != epoch0) return Status::kDeviceReset;
  Zone& z = zones_[zone];
  if (z.state == ZoneState::kReadOnly || z.state == ZoneState::kOffline) {
    // An in-flight program failed while the zone quiesced: it degraded
    // under us, and a degraded zone takes neither a finish pad nor a
    // reset. Report the buffered-data loss instead.
    z.write_fault_pending = false;
    return Status::kWriteFault;
  }
  return Status::kSuccess;
}

sim::Task<Completion> ZnsDevice::DoReset(std::uint32_t zone,
                                         std::uint64_t tid) {
  const std::uint64_t epoch0 = power_epoch_;
  telemetry::Tracer* tr = trace();
  Zone& z = zones_[zone];
  if (z.state == ZoneState::kReadOnly || z.state == ZoneState::kOffline) {
    co_return Completion{.status = Status::kZoneInvalidStateTransition};
  }
  // Quiesce in-flight NAND programs for this zone first.
  sim::Time quiesce_begin = sim_.now();
  co_await ProgramsSettled(z);
  if (Status st = Quiesced(zone, tid, quiesce_begin, epoch0);
      st != Status::kSuccess) {
    co_return Completion{.status = st};
  }
  // The unmap work runs on the FCP at background priority, in slices so
  // small that host I/O never noticeably waits behind one (Obs. 12),
  // while concurrent I/O — which the FCP serves first — stretches the
  // reset's elapsed time by ~1/(1-rho) (Obs. 13). With no I/O in flight
  // at all, the remaining work is charged in one step (isolated resets,
  // e.g. the Fig. 5 sweep, stay cheap to simulate).
  Time work = ResetCost(z);
  if (profile_.reset.static_cost) {
    // Emulator-style static model (NVMeVirt): a flat charge with no
    // contention — precisely what makes such models miss Obs. 13.
    sim::Time b = sim_.now();
    co_await sim_.Delay(work);
    if (tr != nullptr) {
      tr->Span(b, sim_.now(), tid, Layer::kZone, "reset.bulk",
               static_cast<std::int64_t>(zone));
    }
  } else {
    const Time slice = std::max<Time>(profile_.reset.slice, 1);
    bool resumed = false;  // the first slice may run inside the caller's event
    while (work > 0) {
      if (DeviceIsIoQuiet()) {
        sim::Time b = sim_.now();
        co_await sim_.Delay(work);
        if (tr != nullptr) {
          tr->Span(b, sim_.now(), tid, Layer::kZone, "reset.bulk",
                   static_cast<std::int64_t>(zone));
        }
        break;
      }
      Time held;
      {
        sim::Time b = sim_.now();
        auto g = co_await fcp_.Hold(kPrioBackground);
        const sim::Time from = sim_.now();
        if (resumed && work > slice && !fcp_.has_waiters()) {
          // Hold the FCP on the simulator's slice chain: its wakes cost
          // no event until a request queues at the FCP or the first
          // boundary at or after the quiet mark, where the usual check
          // switches to bulk (DESIGN.md §3, item 5).
          co_await sim_.HoldSlices(&fcp_, slice, work, quiet_at_);
        } else {
          co_await sim_.Delay(std::min(work, slice));
        }
        held = sim_.now() - from;
        resumed = true;
        if (tr != nullptr) {
          // Includes the background-priority FCP wait: the stretch that
          // concurrent I/O imposes on the reset (Obs. 13).
          tr->Span(b, sim_.now(), tid, Layer::kZone, "reset.slice",
                   static_cast<std::int64_t>(zone),
                   static_cast<std::int64_t>(held));
        }
      }
      work -= held;
    }
  }
  if (power_epoch_ != epoch0) {
    // Power cut mid-unmap: the metadata wipe never committed — the crash
    // rollback left the zone's pre-reset state in place.
    co_return Completion{.status = Status::kDeviceReset};
  }
  // Metadata wiped; physical erases happen off the critical path.
  if (flash_) {
    ForEachZoneBlock(zone, 0, [&](std::uint32_t die, std::uint32_t block,
                                  std::uint32_t) {
      flash_->DeferredEraseBlock(die, block);
    });
  }
  z.wp_bytes = 0;
  z.finished = false;
  z.data_bytes_at_finish = 0;
  z.SetSettledPages(0);
  z.tags.clear();
  if (ZoneWornOut(zone)) {
    // Endurance exhausted: the zone leaves service instead of returning
    // to Empty (flash P/E limits, §II-A).
    SetZoneState(zone, ZoneState::kOffline);
    counters_.zones_worn_offline++;
  } else {
    SetZoneState(zone, ZoneState::kEmpty);
  }
  counters_.resets++;
  if (telemetry::TimelineWriter* tl = timeline(); tl != nullptr) {
    // The whole reset service window, quiesce included: the interval
    // during which this reset could stretch concurrent host I/O.
    tl->Window(quiesce_begin, sim_.now() - quiesce_begin,
               telem_->timeline_label(), lane_, "zone.reset",
               static_cast<std::int64_t>(zone));
  }
  co_return Completion{.status = Status::kSuccess};
}

bool ZnsDevice::ZoneWornOut(std::uint32_t zone) const {
  if (profile_.pe_cycle_limit == 0 || !flash_) return false;
  bool worn = false;
  ForEachZoneBlock(zone, 0, [&](std::uint32_t die, std::uint32_t block,
                                std::uint32_t) {
    worn = worn || flash_->BlockPeCycles(die, block) >= profile_.pe_cycle_limit;
  });
  return worn;
}

sim::Task<Completion> ZnsDevice::DoResetAll(std::uint64_t tid) {
  // Reset All Zones (select-all): every resettable zone, sequentially —
  // the device walks its zone table; per-zone costs apply as usual.
  for (std::uint32_t z = 0; z < profile_.num_zones; ++z) {
    ZoneState st = zones_[z].state;
    if (st == ZoneState::kReadOnly || st == ZoneState::kOffline) continue;
    if (st == ZoneState::kEmpty) continue;  // nothing to do
    Completion c = co_await DoReset(z, tid);
    if (!c.ok()) co_return c;
  }
  co_return Completion{.status = Status::kSuccess};
}

sim::Task<Completion> ZnsDevice::DoReportZones(Command cmd) {
  if (cmd.slba >= info_.capacity_lbas) {
    co_return Completion{.status = Status::kLbaOutOfRange};
  }
  std::uint32_t first = ZoneOfLba(cmd.slba);
  std::uint32_t count = profile_.num_zones - first;
  if (cmd.report_max != 0) {
    count = std::min(count, cmd.report_max);
  }
  const std::uint64_t epoch0 = power_epoch_;
  (co_await Fcp(profile_.report_fixed + profile_.report_per_zone * count,
                {cmd.trace_id, 0, count}))
      .Release();
  if (power_epoch_ != epoch0) {
    co_return Completion{.status = Status::kDeviceReset};
  }
  Completion c;
  c.report.reserve(count);
  for (std::uint32_t z = first; z < first + count; ++z) {
    c.report.push_back(nvme::ZoneDescriptor{
        .zslba = ZoneStartLba(z),
        .write_pointer = ZoneWritePointerLba(z),
        .zone_cap_lbas = zone_cap_lbas_,
        .state_raw = static_cast<std::uint8_t>(zones_[z].state)});
  }
  counters_.zone_reports++;
  co_return c;
}

sim::Task<Completion> ZnsDevice::DoFlush(std::uint64_t tid) {
  const std::uint64_t epoch0 = power_epoch_;
  telemetry::Tracer* tr = trace();
  (co_await Fcp(profile_.fcp.write, {tid})).Release();
  // Quiesce the NAND drain. Partial (sub-page) buffer contents stay in
  // the capacitor-backed buffer — they are already durable.
  sim::Time drain_begin = sim_.now();
  co_await programs_.Wait();
  if (tr != nullptr) {
    tr->Span(drain_begin, sim_.now(), tid, Layer::kBuffer, "buffer.drain");
  }
  if (power_epoch_ != epoch0) {
    // Power cut before the drain finished: the barrier cannot certify
    // durability for anything — the host must not trust this flush.
    co_return Completion{.status = Status::kDeviceReset};
  }
  counters_.flushes++;
  if (flush_fault_pending_) {
    // Some buffered data never reached NAND since the last flush: the
    // durability barrier cannot be honored in full.
    flush_fault_pending_ = false;
    co_return Completion{.status = Status::kWriteFault};
  }
  co_return Completion{.status = Status::kSuccess};
}

// ------------------------------------------------- crash/recovery (§11)

void ZnsDevice::StoreTags(std::uint32_t zone, std::uint64_t off_bytes,
                          std::uint32_t nlb, std::uint64_t first_tag) {
  ZSTOR_CHECK(off_bytes % lba_bytes_ == 0);
  std::vector<std::uint64_t>& tags = zones_[zone].tags;
  if (tags.empty()) tags.assign(zone_cap_lbas_, 0);
  const std::uint64_t first = off_bytes / lba_bytes_;
  ZSTOR_CHECK(first + nlb <= zone_cap_lbas_);
  for (std::uint32_t i = 0; i < nlb; ++i) tags[first + i] = first_tag + i;
}

void ZnsDevice::LoadTags(std::uint32_t zone, std::uint64_t off_bytes,
                         std::uint32_t nlb,
                         std::vector<std::uint64_t>& out) const {
  out.assign(nlb, 0);
  const std::vector<std::uint64_t>& tags = zones_[zone].tags;
  if (tags.empty()) return;
  const std::uint64_t first = off_bytes / lba_bytes_;
  for (std::uint32_t i = 0; i < nlb; ++i) {
    if (first + i < tags.size()) out[i] = tags[first + i];
  }
}

std::uint64_t ZnsDevice::CrashRollbackZone(std::uint32_t zone) {
  Zone& z = zones_[zone];
  ZSTOR_CHECK(z.inflight_programs == 0);  // caller quiesced the drain
  // An Offline zone has nothing left to lose. Profiles without a NAND
  // backend (FEMU-like) model instant durability: acked bytes survive,
  // only the outage itself costs time.
  if (z.state == ZoneState::kOffline || !flash_) return 0;
  // Everything settled out of order beyond the contiguous prefix is torn:
  // the recovery scan cannot distinguish it from the in-flight programs
  // power interrupted, so the controller discards the lot.
  const std::uint64_t prefix = z.settled_prefix_pages;
  counters_.torn_pages += z.settled_oo_pages.size();
  z.SetSettledPages(prefix);
  const std::uint64_t durable = prefix * profile_.nand_geometry.page_bytes;
  const std::uint64_t lost = z.wp_bytes > durable ? z.wp_bytes - durable : 0;
  // Discard the NAND tail of every zone block down to the durable prefix
  // (prefix pages stripe round-robin across the dies).
  ForEachZoneBlock(zone, prefix, [&](std::uint32_t die, std::uint32_t block,
                                     std::uint32_t keep) {
    flash_->CrashDiscardTail(die, block, keep);
  });
  z.wp_bytes = durable;
  z.write_fault_pending = false;
  for (std::uint64_t i = durable / lba_bytes_; i < z.tags.size(); ++i) {
    z.tags[i] = 0;
  }
  // Recompute the zone state purely from the recovered write pointer —
  // the open/active sets were volatile controller state. Degraded zones
  // keep their sticky state.
  if (z.state != ZoneState::kReadOnly) {
    const bool full = z.wp_bytes == profile_.zone_cap_bytes;
    if (!full) {
      z.finished = false;
      z.data_bytes_at_finish = 0;
    }
    SetZoneState(zone, full             ? ZoneState::kFull
                       : z.wp_bytes > 0 ? ZoneState::kClosed
                                        : ZoneState::kEmpty);
  }
  return lost;
}

sim::Task<std::uint64_t> ZnsDevice::ScanZoneWritePointer(
    std::uint32_t zone) {
  // After the tail discard, programmed pages form a contiguous prefix in
  // zone-page order (the round-robin stripe preserves monotonicity), so a
  // binary search of ProbePage senses finds the write pointer in
  // O(log cap) die reads — the dominant per-zone recovery cost.
  std::uint64_t lo = 0;
  std::uint64_t hi = layout_.zone_cap_pages;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    const bool programmed =
        co_await flash_->ProbePage(AddrOfZonePage(zone, mid));
    if (programmed) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  co_return lo;
}

sim::Task<> ZnsDevice::CrashNow() {
  const sim::Time crash_time = EnterOutage(Layer::kZone);
  flush_fault_pending_ = false;  // pre-crash flush state is moot now
  // Let the in-flight program population drain in simulated time: the
  // stale power epoch stops each one from touching zone state, and the
  // drain interval is folded into the outage window (a real controller
  // loses those programs instantly; draining keeps the buffer-slot and
  // wait-group accounting exact).
  co_await programs_.Wait();
  std::uint64_t lost = 0;
  for (std::uint32_t z = 0; z < profile_.num_zones; ++z) {
    lost += CrashRollbackZone(z);
  }
  counters_.crash_lost_bytes += lost;
  // Recovery: controller boot, then a per-zone metadata walk. Zones whose
  // durable metadata pins the write pointer (Empty, Full, Offline — and
  // degraded zones, whose state is checkpointed when they degrade) cost
  // only the walk; every other zone pays a write-pointer rediscovery
  // scan on the NAND array.
  co_await sim_.Delay(profile_.recovery_boot_cost);
  std::uint64_t scanned = 0;
  for (std::uint32_t z = 0; z < profile_.num_zones; ++z) {
    if (profile_.recovery_per_zone > 0) {
      co_await sim_.Delay(profile_.recovery_per_zone);
    }
    const Zone& zz = zones_[z];
    if (flash_ && zz.state == ZoneState::kClosed && zz.wp_bytes > 0) {
      const std::uint64_t found = co_await ScanZoneWritePointer(z);
      ZSTOR_CHECK_MSG(found == zz.settled_prefix_pages,
                      "recovery scan disagrees with the durable prefix");
      ++scanned;
    }
  }
  counters_.recovery_zone_scans += scanned;
  LeaveOutage(crash_time);
  TraceRecovery(crash_time, Layer::kZone, "recovery.scan",
                static_cast<std::int64_t>(scanned),
                static_cast<std::int64_t>(lost));
}

// --------------------------------------------------------------- debug

void ZnsDevice::DebugFillZone(std::uint32_t zone, std::uint64_t bytes) {
  ZSTOR_CHECK(zone < zones_.size());
  Zone& z = zones_[zone];
  ZSTOR_CHECK_MSG(z.state == ZoneState::kEmpty,
                  "DebugFillZone requires an Empty zone");
  ZSTOR_CHECK(bytes <= profile_.zone_cap_bytes);
  ZSTOR_CHECK(bytes % lba_bytes_ == 0);
  if (bytes == 0) return;
  z.wp_bytes = bytes;
  if (flash_) {
    // Whole pages land on NAND; a sub-page tail stays buffered, as the
    // tail of any write does.
    const std::uint64_t pages = bytes / profile_.nand_geometry.page_bytes;
    MarkPagesProgrammed(zone, pages);
    z.SetSettledPages(pages);
  }
  if (bytes == profile_.zone_cap_bytes) {
    SetZoneState(zone, ZoneState::kFull);
  } else {
    ZSTOR_CHECK_MSG(active_count_ < profile_.max_active_zones,
                    "DebugFillZone: no active slot for a partial zone");
    SetZoneState(zone, ZoneState::kClosed);
  }
}

void ZnsDevice::DebugSetZoneState(std::uint32_t zone, ZoneState state) {
  ZSTOR_CHECK(zone < zones_.size());
  ZSTOR_CHECK_MSG(state == ZoneState::kReadOnly ||
                      state == ZoneState::kOffline,
                  "DebugSetZoneState only forces degraded states");
  SetZoneState(zone, state);
}

}  // namespace zstor::zns
