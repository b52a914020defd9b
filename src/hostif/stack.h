// Host storage stacks: the software between the benchmark and the device.
//
// The Stack interface is what every layer above the device speaks: the
// host stack proper (host_stack.h — one Submit path ending at the queue
// pair, whose kinds SPDK, kernel io_uring with or without mq-deadline,
// and psync differ only in host costs and scheduler; §III-A, Obs. 2) and
// the proxies stacked on it (ResilientStack, StripedStack, and the
// parallel engine's lane adapters), which keep no per-command state
// outside their coroutine frames.
#pragma once

#include <cstdint>

#include "nvme/controller.h"
#include "nvme/types.h"
#include "sim/task.h"
#include "sim/time.h"
#include "telemetry/telemetry.h"

namespace zstor::hostif {

/// Per-command host-side costs. Submission cost delays the command before
/// it reaches the device; completion cost delays the caller after it.
struct HostCosts {
  sim::Time submit = 0;
  sim::Time complete = 0;
};

/// Which host software stack services submissions (§III-A, plus the
/// blocking psync path of the paper's storage-API references).
enum class StackChoice { kSpdk, kKernelNone, kKernelMq, kPsync };

constexpr const char* ToString(StackChoice k) {
  switch (k) {
    case StackChoice::kSpdk: return "spdk";
    case StackChoice::kKernelNone: return "kernel-none";
    case StackChoice::kKernelMq: return "kernel-mq-deadline";
    case StackChoice::kPsync: return "psync";
  }
  return "?";
}

/// Construction options shared by every host stack kind (and by the
/// MakeStack factory in stack_factory.h). Defaults reproduce each kind's
/// calibrated behavior; the host costs themselves are fixed per kind
/// (e.g. SpdkStack::kDefaultCosts).
struct StackOptions {
  /// Queue-pair depth: the device-visible in-flight bound, per device.
  std::uint32_t qp_depth = 4096;
  /// mq-deadline only: per-command scheduler cost and the block layer's
  /// maximum merged-request size.
  sim::Time scheduler_cost = sim::Microseconds(1.85);
  std::uint64_t max_merge_bytes = 128 * 1024;
};

/// A host I/O stack. Latency reported by TimedCompletion spans host
/// submission through host completion (the application-observed latency).
class Stack {
 public:
  virtual ~Stack() = default;
  /// Issues one command through the stack and suspends to its completion.
  virtual sim::Task<nvme::TimedCompletion> Submit(nvme::Command cmd) = 0;
  virtual const nvme::NamespaceInfo& info() const = 0;
  /// Enables host-side tracing/metrics (non-owning; null disables).
  /// Proxies forward it to the stacks they wrap.
  virtual void AttachTelemetry(telemetry::Telemetry* t) { telem_ = t; }

 protected:
  /// The tracer to emit into, or nullptr when telemetry is disabled —
  /// call sites guard on this one pointer and cost nothing otherwise.
  telemetry::Tracer* trace() const {
    return telem_ != nullptr ? &telem_->tracer() : nullptr;
  }

  telemetry::Telemetry* telem_ = nullptr;
};

}  // namespace zstor::hostif
