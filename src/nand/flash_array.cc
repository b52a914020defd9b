#include "nand/flash_array.h"

namespace zstor::nand {

using telemetry::Layer;

FlashArray::FlashArray(sim::Simulator& s, const Geometry& geo,
                       const Timing& timing)
    : sim_(s), geo_(geo), timing_(timing), rng_(timing.noise_seed) {
  geo_.Validate();
  dies_.reserve(geo_.total_dies());
  for (std::uint32_t d = 0; d < geo_.total_dies(); ++d) {
    dies_.push_back(std::make_unique<sim::Semaphore>(s, 1));
  }
  channels_.reserve(geo_.channels);
  for (std::uint32_t c = 0; c < geo_.channels; ++c) {
    channels_.push_back(std::make_unique<sim::Semaphore>(s, 1));
  }
  blocks_.resize(geo_.total_dies() * static_cast<std::size_t>(geo_.blocks_per_die));
  die_stats_.resize(geo_.total_dies());
  die_windows_.resize(geo_.total_dies());
}

void FlashArray::NoteDieService(std::uint32_t die, sim::Time begin,
                                sim::Time end) {
  telemetry::TimelineWriter* tl = timeline();
  if (tl == nullptr) return;
  DieWindow& w = die_windows_[die];
  if (w.open && begin - w.end <= tl->die_merge_gap_ns()) {
    w.end = end;
    w.busy += end - begin;
    w.ops++;
    return;
  }
  if (w.open) {
    tl->DieBusy(w.begin, w.end - w.begin, telem_->timeline_label(), lane_,
                die, w.ops, w.busy);
  }
  w = DieWindow{begin, end, end - begin, 1, true};
}

void FlashArray::FlushDieWindows() {
  telemetry::TimelineWriter* tl = timeline();
  if (tl == nullptr) return;
  for (std::uint32_t die = 0; die < die_windows_.size(); ++die) {
    DieWindow& w = die_windows_[die];
    if (!w.open) continue;
    tl->DieBusy(w.begin, w.end - w.begin, telem_->timeline_label(), lane_,
                die, w.ops, w.busy);
    w = DieWindow{};
  }
}

void FlashArray::EmitMediaError(std::uint32_t die, std::uint32_t block) {
  if (telemetry::TimelineWriter* tl = timeline(); tl != nullptr) {
    tl->Window(sim_.now(), /*dur=*/0, telem_->timeline_label(), lane_,
               "media.error", static_cast<std::int64_t>(die),
               static_cast<std::int64_t>(block));
  }
}

FlashArray::BlockState& FlashArray::Block(std::uint32_t die,
                                          std::uint32_t block) {
  CheckAddr(die, block);
  return blocks_[static_cast<std::size_t>(die) * geo_.blocks_per_die + block];
}

const FlashArray::BlockState& FlashArray::Block(std::uint32_t die,
                                                std::uint32_t block) const {
  CheckAddr(die, block);
  return blocks_[static_cast<std::size_t>(die) * geo_.blocks_per_die + block];
}

void FlashArray::CheckAddr(std::uint32_t die, std::uint32_t block) const {
  ZSTOR_CHECK(die < geo_.total_dies());
  ZSTOR_CHECK(block < geo_.blocks_per_die);
}

sim::Task<MediaStatus> FlashArray::ReadPage(PageAddr addr,
                                            std::uint32_t bytes) {
  ZSTOR_CHECK(bytes > 0 && bytes <= geo_.page_bytes);
  ZSTOR_CHECK_MSG(addr.page < Block(addr.die, addr.block).write_ptr,
                  "read of an unprogrammed page");
  telemetry::Tracer* tr = trace();
  fault::ReadVerdict verdict;
  if (faults_ != nullptr) {
    verdict = faults_->OnRead(sim_.now(), addr.die, addr.block,
                              Block(addr.die, addr.block).pe_cycles);
  }
  sim::Time t0 = sim_.now();
  {
    auto die = co_await dies_[addr.die]->Hold();
    sim::Time svc_begin = sim_.now();
    sim::Time t_read = NoisyRead();
    if (verdict.retry_steps > 0) {
      // Read-retry: the die re-senses with stepped voltages; every step
      // costs a full extra sensing pass.
      sim::Time t_retry = verdict.retry_steps *
                          faults_->spec().read_retry_penalty;
      if (tr != nullptr) {
        tr->Span(sim_.now() + t_read, sim_.now() + t_read + t_retry,
                 /*cmd=*/0, Layer::kNand, "die.read_retry",
                 static_cast<std::int64_t>(addr.die),
                 static_cast<std::int64_t>(verdict.retry_steps));
      }
      t_read += t_retry;
    }
    co_await sim_.Delay(t_read);
    die_stats_[addr.die].reads++;
    die_stats_[addr.die].busy_ns += t_read;
    NoteDieService(addr.die, svc_begin, sim_.now());
  }
  if (verdict.uncorrectable) {
    // ECC exhausted: nothing to transfer to the host.
    if (tr != nullptr) {
      tr->Instant(sim_.now(), /*cmd=*/0, Layer::kNand, "media.error",
                  static_cast<std::int64_t>(addr.die),
                  static_cast<std::int64_t>(addr.block));
    }
    EmitMediaError(addr.die, addr.block);
    counters_.page_reads++;
    counters_.read_errors++;
    co_return MediaStatus::kReadError;
  }
  {
    auto chan = co_await channels_[geo_.channel_of({addr.die})]->Hold();
    // Bus time scales with the fraction of the page transferred.
    sim::Time xfer = timing_.bus_xfer_page * bytes / geo_.page_bytes;
    co_await sim_.Delay(xfer);
  }
  if (tr != nullptr) {
    tr->Span(t0, sim_.now(), /*cmd=*/0, Layer::kNand, "die.read",
             static_cast<std::int64_t>(addr.die),
             static_cast<std::int64_t>(bytes));
  }
  counters_.page_reads++;
  counters_.bytes_read += bytes;
  if (verdict.retry_steps > 0) counters_.read_retries++;
  co_return MediaStatus::kOk;
}

sim::Task<MediaStatus> FlashArray::ProgramPage(PageAddr addr) {
  BlockState& blk = Block(addr.die, addr.block);
  ZSTOR_CHECK_MSG(addr.page == blk.write_ptr,
                  "non-sequential program within a block");
  ZSTOR_CHECK(addr.page < geo_.pages_per_block);
  blk.write_ptr++;
  if (blk.retired) {
    // The slot is still consumed (queued follow-on programs must keep the
    // sequential contract), but the die refuses the operation outright.
    counters_.program_failures++;
    co_return MediaStatus::kProgramFail;
  }
  fault::ProgramVerdict verdict;
  if (faults_ != nullptr) {
    verdict = faults_->OnProgram(sim_.now(), addr.die, addr.block,
                                 blk.pe_cycles);
  }
  telemetry::Tracer* tr = trace();
  sim::Time t0 = sim_.now();
  {
    auto chan = co_await channels_[geo_.channel_of({addr.die})]->Hold();
    co_await sim_.Delay(timing_.bus_xfer_page);
  }
  {
    auto die = co_await dies_[addr.die]->Hold();
    sim::Time svc_begin = sim_.now();
    sim::Time t_prog = NoisyProgram();
    co_await sim_.Delay(t_prog);
    die_stats_[addr.die].programs++;
    die_stats_[addr.die].busy_ns += t_prog;
    NoteDieService(addr.die, svc_begin, sim_.now());
  }
  if (verdict.fail) {
    // The program-verify pass failed after the full tPROG was spent.
    if (tr != nullptr) {
      tr->Instant(sim_.now(), /*cmd=*/0, Layer::kNand, "media.error",
                  static_cast<std::int64_t>(addr.die),
                  static_cast<std::int64_t>(addr.block));
    }
    EmitMediaError(addr.die, addr.block);
    counters_.page_programs++;
    counters_.program_failures++;
    co_return MediaStatus::kProgramFail;
  }
  if (tr != nullptr) {
    tr->Span(t0, sim_.now(), /*cmd=*/0, Layer::kNand, "die.program",
             static_cast<std::int64_t>(addr.die),
             static_cast<std::int64_t>(geo_.page_bytes));
  }
  counters_.page_programs++;
  counters_.bytes_programmed += geo_.page_bytes;
  co_return MediaStatus::kOk;
}

sim::Task<bool> FlashArray::ProbePage(PageAddr addr) {
  ZSTOR_CHECK(addr.page < geo_.pages_per_block);
  sim::Time t0 = sim_.now();
  {
    auto die = co_await dies_[addr.die]->Hold();
    sim::Time svc_begin = sim_.now();
    co_await sim_.Delay(timing_.read_page);
    die_stats_[addr.die].reads++;
    die_stats_[addr.die].busy_ns += timing_.read_page;
    NoteDieService(addr.die, svc_begin, sim_.now());
  }
  if (telemetry::Tracer* tr = trace(); tr != nullptr) {
    tr->Span(t0, sim_.now(), /*cmd=*/0, Layer::kNand, "die.probe",
             static_cast<std::int64_t>(addr.die),
             static_cast<std::int64_t>(addr.page));
  }
  counters_.recovery_probes++;
  co_return addr.page < Block(addr.die, addr.block).write_ptr;
}

void FlashArray::CrashDiscardTail(std::uint32_t die, std::uint32_t block,
                                  std::uint32_t new_write_ptr) {
  BlockState& blk = Block(die, block);
  if (blk.retired) return;
  if (new_write_ptr >= blk.write_ptr) return;
  counters_.crash_discarded_pages += blk.write_ptr - new_write_ptr;
  blk.write_ptr = new_write_ptr;
}

sim::Task<> FlashArray::EraseBlock(std::uint32_t die, std::uint32_t block) {
  BlockState& blk = Block(die, block);
  ZSTOR_CHECK_MSG(!blk.retired, "erase of a retired block");
  telemetry::Tracer* tr = trace();
  sim::Time t0 = sim_.now();
  {
    auto g = co_await dies_[die]->Hold();
    sim::Time svc_begin = sim_.now();
    co_await sim_.Delay(timing_.erase_block);
    die_stats_[die].erases++;
    die_stats_[die].busy_ns += timing_.erase_block;
    NoteDieService(die, svc_begin, sim_.now());
  }
  if (tr != nullptr) {
    tr->Span(t0, sim_.now(), /*cmd=*/0, Layer::kNand, "die.erase",
             static_cast<std::int64_t>(die),
             static_cast<std::int64_t>(block));
  }
  blk.write_ptr = 0;
  blk.pe_cycles++;
  counters_.block_erases++;
}

sim::Time FlashArray::NoisyRead() {
  if (timing_.read_sigma == 0) return timing_.read_page;
  return static_cast<sim::Time>(
      static_cast<double>(timing_.read_page) *
      rng_.LogNormalNoise(timing_.read_sigma));
}

sim::Time FlashArray::NoisyProgram() {
  if (timing_.program_sigma == 0) return timing_.program_page;
  return static_cast<sim::Time>(
      static_cast<double>(timing_.program_page) *
      rng_.LogNormalNoise(timing_.program_sigma));
}

void FlashArray::DebugProgramRange(std::uint32_t die, std::uint32_t block,
                                   std::uint32_t upto_page) {
  ZSTOR_CHECK(upto_page <= geo_.pages_per_block);
  BlockState& blk = Block(die, block);
  if (blk.write_ptr < upto_page) blk.write_ptr = upto_page;
}

void FlashArray::DeferredEraseBlock(std::uint32_t die, std::uint32_t block) {
  BlockState& blk = Block(die, block);
  if (blk.retired) return;         // retired blocks are never recycled
  if (blk.write_ptr == 0) return;  // nothing was programmed
  blk.write_ptr = 0;
  blk.pe_cycles++;
  counters_.block_erases++;
}

std::uint32_t FlashArray::BlockWritePointer(std::uint32_t die,
                                            std::uint32_t block) const {
  return Block(die, block).write_ptr;
}

std::uint32_t FlashArray::BlockPeCycles(std::uint32_t die,
                                        std::uint32_t block) const {
  return Block(die, block).pe_cycles;
}

bool FlashArray::MarkBlockRetired(std::uint32_t die, std::uint32_t block) {
  BlockState& blk = Block(die, block);
  if (blk.retired) return false;
  blk.retired = true;
  counters_.blocks_retired++;
  return true;
}

bool FlashArray::BlockRetired(std::uint32_t die, std::uint32_t block) const {
  return Block(die, block).retired;
}

double FlashArray::PeakProgramBandwidth() const {
  return static_cast<double>(geo_.total_dies()) * geo_.page_bytes /
         sim::ToSeconds(timing_.program_page);
}

}  // namespace zstor::nand
