#include "zns/controller_core.h"

#include <algorithm>
#include <utility>

namespace zstor::zns {

using nvme::Command;
using nvme::Completion;
using nvme::Status;
using sim::Time;

ControllerCore::ControllerCore(sim::Simulator& s, DeviceCounters& counters,
                               std::uint64_t buffer_bytes,
                               std::uint64_t slot_bytes, std::uint64_t seed,
                               double io_sigma, double reset_sigma,
                               double finish_sigma)
    : sim_(s),
      fcp_(s, 1),
      buffer_slots_(s, std::max<std::uint64_t>(1, buffer_bytes / slot_bytes)),
      programs_(s),
      noise_(seed, {io_sigma, reset_sigma, finish_sigma}),
      shared_(counters) {}

void ControllerCore::AttachTelemetry(telemetry::Telemetry* t,
                                     std::uint32_t lane) {
  telem_ = t;
  lane_ = lane;
  if (flash_) flash_->AttachTelemetry(t, lane);
}

void ControllerCore::AttachFaultPlan(fault::FaultPlan* p) {
  if (flash_) flash_->AttachFaultPlan(p);
  if (p != nullptr && p->enabled() && !p->spec().crashes.empty() &&
      !crash_driver_armed_) {
    crash_driver_armed_ = true;
    sim::Spawn(CrashDriver(p->spec().crashes));
  }
}

sim::Task<> ControllerCore::CrashDriver(std::vector<sim::Time> at) {
  for (sim::Time t : at) {
    // A time that passed during this driver's own recovery fires now.
    if (t > sim_.now()) co_await sim_.Delay(t - sim_.now());
    if (crashed_) continue;  // inside an outage a direct CrashNow opened
    co_await CrashNow();
  }
}

Time ControllerCore::Noise(Time t) {
  if (t == 0) return t;
  return static_cast<Time>(static_cast<double>(t) * NoiseFactor(kIoNoise));
}

sim::Task<Completion> ControllerCore::Execute(const Command& cmd) {
  // Power is out (or recovery is still running): fail fast. The host
  // sees the controller disappear and — via ResilientStack — re-drives
  // once it answers again.
  if (crashed_) return Failed(Status::kDeviceReset);
  return Dispatch(cmd);
}

Completion ControllerCore::Fail(Status status) {
  if (status == Status::kDeviceReset) {
    shared_.reset_drops++;  // lost to a power cut, before or mid-flight
  } else if (nvme::IsMediaError(status)) {
    shared_.media_errors++;
  } else {
    shared_.host_rejects++;
  }
  return Completion{.status = status};
}

sim::Task<Completion> ControllerCore::Failed(Status status) {
  co_return Fail(status);
}

sim::Task<> ControllerCore::FanOutRead(nand::PageAddr addr,
                                       std::uint32_t bytes, sim::WaitGroup* wg,
                                       nand::MediaStatus* failed) {
  const nand::MediaStatus st = co_await flash_->ReadPage(addr, bytes);
  if (st != nand::MediaStatus::kOk) *failed = st;
  wg->Done();
}

nvme::SmartLog ControllerCore::CoreSmartLog(const char* device) const {
  nvme::SmartLog log;
  log.device = device;
  log.host_reads = shared_.reads;
  log.host_writes = shared_.writes;
  log.bytes_read = shared_.bytes_read;
  log.bytes_written = shared_.bytes_written;
  log.host_rejects = shared_.host_rejects;
  log.media_errors = shared_.media_errors;
  log.read_faults = shared_.read_faults;
  log.write_faults = shared_.write_faults;
  log.retired_blocks = shared_.retired_blocks;
  if (flash_) {
    const nand::FlashCounters& fc = flash_->counters();
    log.media_page_reads = fc.page_reads;
    log.media_page_programs = fc.page_programs;
    log.media_block_erases = fc.block_erases;
    log.media_bytes_read = fc.bytes_read;
    log.media_bytes_programmed = fc.bytes_programmed;
    log.media_read_retries = fc.read_retries;
  }
  return log;
}

nvme::DieUtilLog ControllerCore::GetDieUtilLog() const {
  nvme::DieUtilLog log;
  log.elapsed_ns = static_cast<std::uint64_t>(sim_.now());
  if (!flash_) return log;
  const std::vector<nand::DieStats>& stats = flash_->die_stats();
  log.dies.reserve(stats.size());
  for (std::uint32_t d = 0; d < stats.size(); ++d) {
    nvme::DieUtilEntry e;
    e.die = d;
    e.reads = stats[d].reads;
    e.programs = stats[d].programs;
    e.erases = stats[d].erases;
    e.busy_ns = static_cast<std::uint64_t>(stats[d].busy_ns);
    e.utilization = log.elapsed_ns == 0
                        ? 0.0
                        : static_cast<double>(e.busy_ns) /
                              static_cast<double>(log.elapsed_ns);
    log.dies.push_back(e);
  }
  return log;
}

Time ControllerCore::EnterOutage(telemetry::Layer layer) {
  ZSTOR_CHECK_MSG(!crashed_, "power loss during an outage");
  crashed_ = true;
  ++power_epoch_;
  shared_.crashes++;
  if (telemetry::Tracer* tr = trace(); tr != nullptr) {
    tr->Instant(sim_.now(), /*cmd=*/0, layer, "crash.power_loss",
                static_cast<std::int64_t>(power_epoch_));
  }
  return sim_.now();
}

void ControllerCore::LeaveOutage(Time crash_time) {
  shared_.recoveries++;
  last_recovery_ns_ = sim_.now() - crash_time;
  shared_.recovery_ns_total += static_cast<std::uint64_t>(last_recovery_ns_);
  crashed_ = false;
}

void ControllerCore::TraceRecovery(Time crash_time, telemetry::Layer layer,
                                   const char* window, std::int64_t a,
                                   std::int64_t b) {
  if (telemetry::Tracer* tr = trace(); tr != nullptr) {
    tr->Instant(sim_.now(), /*cmd=*/0, layer, "recovery.done", a, b);
  }
  if (telemetry::TimelineWriter* tl = timeline(); tl != nullptr) {
    // Zero-length marker at the cut plus the full outage window — ztrace
    // attributes the throughput dip to the latter.
    tl->Window(crash_time, 0, telem_->timeline_label(), lane_,
               "crash.power_loss", static_cast<std::int64_t>(power_epoch_));
    tl->Window(crash_time, sim_.now() - crash_time, telem_->timeline_label(),
               lane_, window, a, b);
  }
}

}  // namespace zstor::zns
