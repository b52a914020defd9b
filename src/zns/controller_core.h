// ControllerCore: the controller skeleton under both SSD models.
//
// The paper's ZN540 and SN640 share one hardware platform (§III-F), and
// so do the two device models: the core owns the firmware command
// processor (FCP), the write-back buffer's admission slots, the noise
// stream, the NAND array, fault and telemetry attach, and the power-loss
// skeleton (scheduled crashes, the power epoch, the kDeviceReset outage).
// A device adds its mapping policy: Dispatch() hands each opcode to a
// handler, and CrashNow() applies the device's loss semantics and
// recovery between EnterOutage() and LeaveOutage(). ZnsDevice adds the
// zone state machine, ftl::ConvDevice the page-mapped FTL — the split
// QEMU's hw/nvme makes between a zoned and a common NVM namespace.
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "nand/flash_array.h"
#include "nvme/controller.h"
#include "nvme/log_page.h"
#include "nvme/types.h"
#include "sim/noise.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "telemetry/telemetry.h"

namespace zstor::zns {

/// The counters every device model keeps. ZnsCounters and
/// ftl::ConvCounters extend it and name these fields under their own
/// prefix in their field tables.
struct DeviceCounters {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t flushes = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  /// Commands rejected for host-side reasons (bad range, wrong state,
  /// limits, an unsupported opcode) — caller bugs, not device faults.
  std::uint64_t host_rejects = 0;
  /// Commands completed with a media/hardware fault status
  /// (kMediaReadError / kWriteFault / kInternalError).
  std::uint64_t media_errors = 0;
  std::uint64_t read_faults = 0;     // uncorrectable NAND reads surfaced
  std::uint64_t write_faults = 0;    // NAND program failures observed
  std::uint64_t retired_blocks = 0;  // blocks taken out of service
  // Power-loss crash/recovery (DESIGN.md §11; zero without injected
  // crashes).
  std::uint64_t crashes = 0;            // power losses endured
  std::uint64_t recoveries = 0;         // recoveries completed
  std::uint64_t recovery_ns_total = 0;  // summed power-loss->ready spans
  std::uint64_t reset_drops = 0;  // commands failed with kDeviceReset
};

class ControllerCore : public nvme::Controller {
 public:
  const nvme::NamespaceInfo& info() const final { return info_; }
  /// Fails the command with kDeviceReset while power is out; otherwise
  /// runs the device's handler for it (kInvalidOpcode when it has none).
  /// Every failure is counted once: reset drop, media error or host
  /// reject.
  sim::Task<nvme::Completion> Execute(const nvme::Command& cmd) final;

  /// Enables device-side tracing/metrics (non-owning; null disables),
  /// NAND array included. `lane` tags timeline records in striped runs.
  void AttachTelemetry(telemetry::Telemetry* t, std::uint32_t lane = 0);

  /// Injects media faults into the NAND backend (non-owning; null
  /// disables) and arms the plan's scheduled power losses (`crash=US`)
  /// once. They fire even on an idle device. One that lands inside the
  /// recovery of an earlier one fires as soon as that recovery ends; one
  /// inside an outage a direct CrashNow() opened coalesces with it.
  void AttachFaultPlan(fault::FaultPlan* p);

  /// Injects a power loss right now, then runs the device's modeled
  /// recovery (DESIGN.md §11). Completes when the device accepts commands
  /// again; scheduled crashes funnel through here.
  virtual sim::Task<> CrashNow() = 0;

  /// Bumped by every power loss; commands in flight across a bump complete
  /// with kDeviceReset (their pre-crash progress was rolled back).
  std::uint64_t power_epoch() const { return power_epoch_; }
  /// Elapsed virtual time of the most recent power-loss -> ready span.
  sim::Time last_recovery_ns() const { return last_recovery_ns_; }

  /// Per-die service counts and utilization (nvme/log_page.h); no dies
  /// when the profile bypasses the NAND backend. Free introspection.
  nvme::DieUtilLog GetDieUtilLog() const;

 protected:
  static constexpr std::uint32_t kPrioIo = 0;
  static constexpr std::uint32_t kPrioBackground = 1;

  /// The noise sources of the core's stream: FCP and post steps, the
  /// zone reset and the finish pad.
  static constexpr std::size_t kIoNoise = 0;
  static constexpr std::size_t kResetNoise = 1;
  static constexpr std::size_t kFinishNoise = 2;

  /// `counters` is the device's counters struct (not yet constructed: the
  /// core only binds it). The write-back buffer holds `buffer_bytes` in
  /// slots of `slot_bytes` (at least one). The noise stream is seeded
  /// with `seed` and draws for the three sigmas.
  ControllerCore(sim::Simulator& s, DeviceCounters& counters,
                 std::uint64_t buffer_bytes, std::uint64_t slot_bytes,
                 std::uint64_t seed, double io_sigma, double reset_sigma,
                 double finish_sigma);

  /// Starts the handler for `cmd` and returns its task unawaited (a
  /// command keeps exactly its handler's frames), or nullopt when the
  /// device's command set lacks the opcode.
  virtual std::optional<sim::Task<nvme::Completion>> Dispatch(
      const nvme::Command& cmd) = 0;

  /// `t` scaled by one lognormal draw (io_sigma); 0 and a quiet profile
  /// draw nothing.
  sim::Time Noise(sim::Time t);
  /// One lognormal multiplier of source `k`; a zero sigma draws nothing
  /// and gives 1.
  double NoiseFactor(std::size_t k) {
    return noise_.sigma(k) == 0.0 ? 1.0 : noise_.Multiplier(k);
  }

  /// What an FCP step traces for command `tid`: `fcp.wait` carrying
  /// `zone`, then the service span `name` on `layer` carrying (a, b).
  struct FcpTrace {
    std::uint64_t tid = 0;
    std::uint64_t zone = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    const char* name = "fcp.service";
    telemetry::Layer layer = telemetry::Layer::kFcp;
  };

  /// A command's turn on the FCP: a record in the awaiting frame, like
  /// nand::NandOp, not a coroutine. It takes the FCP at I/O priority or
  /// queues on it. The grant (inline when the FCP is idle, else the
  /// release's zero-delay event) draws Noise(cost), traces `fcp.wait` and
  /// starts the service timer. The handler resumes when the service
  /// ends, traces the service span and gets the guard, still holding the
  /// FCP.
  class [[nodiscard]] FcpStep : public sim::Semaphore::Waiter {
   public:
    FcpStep(ControllerCore& core, sim::Time cost, FcpTrace span)
        : core_(core), cost_(cost), span_(span), t0_(core.sim_.now()) {
      on_grant = &Grant;
    }
    FcpStep(const FcpStep&) = delete;
    FcpStep& operator=(const FcpStep&) = delete;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      if (core_.fcp_.Take(*this, kPrioIo)) Grant(*this);
    }
    sim::Semaphore::Guard await_resume() {
      if (telemetry::Tracer* tr = core_.trace(); tr != nullptr) {
        tr->Span(t1_, core_.sim_.now(), span_.tid, span_.layer, span_.name,
                 static_cast<std::int64_t>(span_.a),
                 static_cast<std::int64_t>(span_.b));
      }
      return sim::Semaphore::Guard{&core_.fcp_};
    }

   private:
    static void Grant(Waiter& w) {
      auto& step = static_cast<FcpStep&>(w);
      ControllerCore& core = step.core_;
      step.t1_ = core.sim_.now();
      if (telemetry::Tracer* tr = core.trace(); tr != nullptr) {
        tr->Span(step.t0_, step.t1_, step.span_.tid, telemetry::Layer::kFcp,
                 "fcp.wait", static_cast<std::int64_t>(step.span_.zone));
      }
      core.sim_.ResumeIn(core.Noise(step.cost_), step.handle);
    }

    ControllerCore& core_;
    sim::Time cost_;
    FcpTrace span_;
    sim::Time t0_;      // asked for the FCP
    sim::Time t1_ = 0;  // granted it
  };
  FcpStep Fcp(sim::Time cost, FcpTrace span) { return {*this, cost, span}; }

  /// One leg of a multi-page read: reads `bytes` of `addr`, reports a bad
  /// page through `failed` (the command-level worst case), then signals
  /// `wg`.
  sim::Task<> FanOutRead(nand::PageAddr addr, std::uint32_t bytes,
                         sim::WaitGroup* wg, nand::MediaStatus* failed);

  /// The SMART host, fault and media fields.
  nvme::SmartLog CoreSmartLog(const char* device) const;

  /// Opens an outage: bumps the power epoch, counts the crash and traces
  /// `crash.power_loss` on `layer`. Returns the crash time.
  sim::Time EnterOutage(telemetry::Layer layer);
  /// Closes the outage opened at `crash_time`: counts the recovery and
  /// its span, and accepts commands again.
  void LeaveOutage(sim::Time crash_time);
  /// Traces a recovery that just ended: the `recovery.done` instant on
  /// `layer`, then the timeline's zero-length `crash.power_loss` marker
  /// and the whole outage as `window`, both carrying (a, b).
  void TraceRecovery(sim::Time crash_time, telemetry::Layer layer,
                     const char* window, std::int64_t a, std::int64_t b);

  /// The tracer, or nullptr when telemetry is disabled: every emit site
  /// guards on this pointer and costs nothing otherwise.
  telemetry::Tracer* trace() const {
    return telem_ != nullptr ? &telem_->tracer() : nullptr;
  }
  /// Same guard for timeline records.
  telemetry::TimelineWriter* timeline() const {
    return telem_ != nullptr ? telem_->timeline() : nullptr;
  }

  sim::Simulator& sim_;
  nvme::NamespaceInfo info_;
  std::unique_ptr<nand::FlashArray> flash_;  // null without a NAND backend
  sim::Semaphore fcp_;
  sim::Semaphore buffer_slots_;
  /// Joins every in-flight NAND program of buffered host data; flush and
  /// power loss wait on it for the drain.
  sim::WaitGroup programs_;
  sim::NoiseStream noise_;
  telemetry::Telemetry* telem_ = nullptr;
  std::uint32_t lane_ = 0;
  /// True from power loss until recovery completes; Execute fast-fails
  /// new commands with kDeviceReset meanwhile.
  bool crashed_ = false;
  std::uint64_t power_epoch_ = 0;
  sim::Time last_recovery_ns_ = 0;

 private:
  /// Waits out the scheduled crash times in order, firing CrashNow() at
  /// each. Spawned once by AttachFaultPlan.
  sim::Task<> CrashDriver(std::vector<sim::Time> at);

  DeviceCounters& shared_;
  bool crash_driver_armed_ = false;
};

}  // namespace zstor::zns
