// MakeStack: the one place a StackChoice becomes a host stack.
//
// Every choice is the same HostStack (host_stack.h) with the kind's
// calibrated costs and scheduler; callers say what they want (a choice +
// options) instead of how to build it:
//
//   auto made = hostif::MakeStack(StackChoice::kKernelMq, sim, dev,
//                                 {.qp_depth = 64});
//   made.kernel->scheduler_stats();   // non-null for kernel choices
#pragma once

#include <memory>

#include "hostif/host_stack.h"
#include "hostif/stack.h"
#include "nvme/controller.h"
#include "sim/simulator.h"

namespace zstor::hostif {

/// A freshly built stack plus its concrete-typed side door. `kernel` is
/// non-null for the kernel choices (scheduler stats live there).
struct MadeStack {
  std::unique_ptr<Stack> stack;
  KernelStack* kernel = nullptr;
};

inline MadeStack MakeStack(StackChoice choice, sim::Simulator& sim,
                           nvme::Controller& ctrl,
                           const StackOptions& opts = {}) {
  MadeStack out;
  switch (choice) {
    case StackChoice::kSpdk:
      out.stack = std::make_unique<SpdkStack>(sim, ctrl, opts);
      break;
    case StackChoice::kPsync:
      out.stack = std::make_unique<PsyncStack>(sim, ctrl, opts);
      break;
    case StackChoice::kKernelNone:
    case StackChoice::kKernelMq: {
      auto k = std::make_unique<KernelStack>(
          sim, ctrl,
          choice == StackChoice::kKernelMq ? Scheduler::kMqDeadline
                                           : Scheduler::kNone,
          opts);
      out.kernel = k.get();
      out.stack = std::move(k);
      break;
    }
  }
  return out;
}

}  // namespace zstor::hostif
