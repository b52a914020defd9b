#include "nand/flash_array.h"

namespace zstor::nand {

using telemetry::Layer;

FlashArray::FlashArray(sim::Simulator& s, const Geometry& geo,
                       const Timing& timing)
    : sim_(s),
      geo_(geo),
      timing_(timing),
      noise_(timing.noise_seed, {timing.read_sigma, timing.program_sigma}) {
  geo_.Validate();
  for (std::uint32_t d = 0; d < geo_.total_dies(); ++d) {
    dies_.emplace_back(s, 1);
  }
  for (std::uint32_t c = 0; c < geo_.channels; ++c) {
    channels_.emplace_back(s, 1);
  }
  blocks_.reset(static_cast<BlockState*>(std::calloc(
      geo_.total_blocks(), sizeof(BlockState))));
  ZSTOR_CHECK(blocks_ != nullptr);
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

// Each op is a small state machine: read = die (tR) then channel (data
// out), program = channel (data in) then die (tPROG), erase and probe =
// die only. A grant is the server's zero-delay release event and a
// service end a timer, pushed where a coroutine holding the server would
// push them, and the hooks run inline; the goldens depend on that
// (time, seq) order.

bool FlashArray::Start(NandOp& op) {
  const PageAddr addr = op.addr;
  op.on_grant = [](sim::Semaphore::Waiter& w) {
    auto& granted = static_cast<NandOp&>(w);
    granted.array_->BeginService(granted);
  };
  op.array_ = this;
  op.t0_ = sim_.now();
  op.status = MediaStatus::kOk;  // an injected fault sets it below
  op.retry_steps_ = 0;
  op.stage_ = NandOp::Stage::kDie;
  switch (op.kind) {
    case NandOp::Kind::kRead: {
      ZSTOR_CHECK(op.bytes > 0 && op.bytes <= geo_.page_bytes);
      const BlockState& blk = Block(addr.die, addr.block);
      ZSTOR_CHECK_MSG(addr.page < blk.write_ptr,
                      "read of an unprogrammed page");
      if (faults_ != nullptr) {
        const fault::ReadVerdict v =
            faults_->OnRead(sim_.now(), addr.die, addr.block, blk.pe_cycles);
        op.retry_steps_ = v.retry_steps;
        if (v.uncorrectable) op.status = MediaStatus::kReadError;
      }
      break;
    }
    case NandOp::Kind::kProgram: {
      BlockState& blk = Block(addr.die, addr.block);
      ZSTOR_CHECK_MSG(addr.page == blk.write_ptr,
                      "non-sequential program within a block");
      ZSTOR_CHECK(addr.page < geo_.pages_per_block);
      blk.write_ptr++;
      if (blk.retired) {
        // The slot is still consumed (queued follow-on programs must keep
        // the sequential contract), but the die refuses the operation.
        counters_.program_failures++;
        op.status = MediaStatus::kProgramFail;
        return false;
      }
      if (faults_ != nullptr &&
          faults_->OnProgram(sim_.now(), addr.die, addr.block, blk.pe_cycles)
              .fail) {
        op.status = MediaStatus::kProgramFail;
      }
      op.stage_ = NandOp::Stage::kChannel;
      break;
    }
    case NandOp::Kind::kErase:
      ZSTOR_CHECK_MSG(!Block(addr.die, addr.block).retired,
                      "erase of a retired block");
      break;
    case NandOp::Kind::kProbe:
      ZSTOR_CHECK(addr.page < geo_.pages_per_block);
      CheckAddr(addr.die, addr.block);
      break;
  }
  Serve(op);
  return true;
}

void FlashArray::BeginService(NandOp& op) {
  sim::Time t = 0;
  if (op.stage_ == NandOp::Stage::kChannel) {
    // Bus time scales with the fraction of the page transferred.
    t = op.kind == NandOp::Kind::kRead
            ? timing_.bus_xfer_page * op.bytes / geo_.page_bytes
            : timing_.bus_xfer_page;
  } else {
    op.svc_begin_ = sim_.now();
    switch (op.kind) {
      case NandOp::Kind::kRead:
        t = NoisyRead();
        if (op.retry_steps_ > 0) {
          // Read-retry: the die re-senses with stepped voltages; every
          // step costs a full extra sensing pass.
          const sim::Time t_retry =
              op.retry_steps_ * faults_->spec().read_retry_penalty;
          if (telemetry::Tracer* tr = trace(); tr != nullptr) {
            tr->Span(sim_.now() + t, sim_.now() + t + t_retry, /*cmd=*/0,
                     Layer::kNand, "die.read_retry",
                     static_cast<std::int64_t>(op.addr.die),
                     static_cast<std::int64_t>(op.retry_steps_));
          }
          t += t_retry;
        }
        break;
      case NandOp::Kind::kProgram:
        t = NoisyProgram();
        break;
      case NandOp::Kind::kErase:
        t = timing_.erase_block;
        break;
      case NandOp::Kind::kProbe:
        t = timing_.read_page;
        break;
    }
  }
  NandOp* p = &op;
  sim_.ScheduleIn(t, [this, p] { EndService(*p); });
}

void FlashArray::EndService(NandOp& op) {
  if (op.stage_ == NandOp::Stage::kDie) {
    EndDieService(op);
    return;
  }
  ServerOf(op).Release();
  if (op.kind == NandOp::Kind::kProgram) {
    op.stage_ = NandOp::Stage::kDie;  // data is in: tPROG next
    Serve(op);
    return;
  }
  if (telemetry::Tracer* tr = trace(); tr != nullptr) {
    tr->Span(op.t0_, sim_.now(), /*cmd=*/0, Layer::kNand, "die.read",
             static_cast<std::int64_t>(op.addr.die),
             static_cast<std::int64_t>(op.bytes));
  }
  counters_.page_reads++;
  counters_.bytes_read += op.bytes;
  if (op.retry_steps_ > 0) counters_.read_retries++;
  op.on_done(op);
}

void FlashArray::EndDieService(NandOp& op) {
  const PageAddr addr = op.addr;
  DieStats& ds = die_stats_[addr.die];
  switch (op.kind) {
    case NandOp::Kind::kRead:
    case NandOp::Kind::kProbe:
      ds.reads++;
      break;
    case NandOp::Kind::kProgram:
      ds.programs++;
      break;
    case NandOp::Kind::kErase:
      ds.erases++;
      break;
  }
  ds.busy_ns += sim_.now() - op.svc_begin_;
  NoteDieService(addr.die, op.svc_begin_, sim_.now());
  dies_[addr.die].Release();
  telemetry::Tracer* tr = trace();
  if (op.status != MediaStatus::kOk) {
    // ECC exhausted (nothing to transfer) or the program-verify pass
    // failed after the full tPROG was spent.
    if (tr != nullptr) {
      tr->Instant(sim_.now(), /*cmd=*/0, Layer::kNand, "media.error",
                  static_cast<std::int64_t>(addr.die),
                  static_cast<std::int64_t>(addr.block));
    }
    EmitMediaError(addr.die, addr.block);
    if (op.kind == NandOp::Kind::kRead) {
      counters_.page_reads++;
      counters_.read_errors++;
    } else {
      counters_.page_programs++;
      counters_.program_failures++;
    }
    op.on_done(op);
    return;
  }
  switch (op.kind) {
    case NandOp::Kind::kRead:
      op.stage_ = NandOp::Stage::kChannel;  // sensed: data out next
      Serve(op);
      return;
    case NandOp::Kind::kProgram:
      if (tr != nullptr) {
        tr->Span(op.t0_, sim_.now(), /*cmd=*/0, Layer::kNand, "die.program",
                 static_cast<std::int64_t>(addr.die),
                 static_cast<std::int64_t>(geo_.page_bytes));
      }
      counters_.page_programs++;
      counters_.bytes_programmed += geo_.page_bytes;
      break;
    case NandOp::Kind::kErase: {
      if (tr != nullptr) {
        tr->Span(op.t0_, sim_.now(), /*cmd=*/0, Layer::kNand, "die.erase",
                 static_cast<std::int64_t>(addr.die),
                 static_cast<std::int64_t>(addr.block));
      }
      BlockState& blk = Block(addr.die, addr.block);
      blk.write_ptr = 0;
      blk.pe_cycles++;
      counters_.block_erases++;
      break;
    }
    case NandOp::Kind::kProbe:
      if (tr != nullptr) {
        tr->Span(op.t0_, sim_.now(), /*cmd=*/0, Layer::kNand, "die.probe",
                 static_cast<std::int64_t>(addr.die),
                 static_cast<std::int64_t>(addr.page));
      }
      counters_.recovery_probes++;
      op.programmed = addr.page < Block(addr.die, addr.block).write_ptr;
      break;
  }
  op.on_done(op);
}

void FlashArray::CrashDiscardTail(std::uint32_t die, std::uint32_t block,
                                  std::uint32_t new_write_ptr) {
  BlockState& blk = Block(die, block);
  if (blk.retired) return;
  if (new_write_ptr >= blk.write_ptr) return;
  counters_.crash_discarded_pages += blk.write_ptr - new_write_ptr;
  blk.write_ptr = new_write_ptr;
}

sim::Time FlashArray::NoisyRead() {
  if (timing_.read_sigma == 0) return timing_.read_page;
  return static_cast<sim::Time>(
      static_cast<double>(timing_.read_page) *
      noise_.Multiplier(kReadNoise));
}

sim::Time FlashArray::NoisyProgram() {
  if (timing_.program_sigma == 0) return timing_.program_page;
  return static_cast<sim::Time>(
      static_cast<double>(timing_.program_page) *
      noise_.Multiplier(kProgramNoise));
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
