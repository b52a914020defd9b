// Served resources with priority: the building block for device-internal
// contention that is not first come, first served.
//
// A FIFO server pool (a NAND die, a channel) is a Semaphore held through
// a SlotGuard (sync.h). PriorityResource adds strict priority classes —
// the ZNS firmware command processor uses it so that host I/O commands
// always bypass queued background (reset) work, which is the mechanism
// behind the paper's Observations 12 and 13.
#pragma once

#include <array>
#include <coroutine>
#include <cstdint>

#include "sim/check.h"
#include "sim/simulator.h"
#include "sim/sync.h"

namespace zstor::sim {

/// Multi-slot server with strict priority classes (0 = highest). Within a
/// class, admission is FIFO. A freed slot always goes to the highest
/// waiting class; there is no preemption of work already in service.
class PriorityResource {
 public:
  using Guard = SlotGuard<PriorityResource>;
  static constexpr std::uint32_t kMaxPriorityLevels = 4;

  PriorityResource(Simulator& s, std::uint32_t slots,
                   std::uint32_t priority_levels = 2)
      : sim_(s), free_(slots), levels_(priority_levels) {
    ZSTOR_CHECK(slots > 0);
    ZSTOR_CHECK(priority_levels > 0 && priority_levels <= kMaxPriorityLevels);
  }
  PriorityResource(const PriorityResource&) = delete;
  PriorityResource& operator=(const PriorityResource&) = delete;

  struct Awaiter : WaitNode {
    Awaiter(PriorityResource& res, std::uint32_t p) : r(res), prio(p) {}
    PriorityResource& r;
    std::uint32_t prio;
    bool await_ready() {
      if (r.free_ == 0) return false;
      // A free slot with waiters pending can only happen transiently; slots
      // are handed to waiters directly in Release(), so free_>0 implies no
      // queue and we may take the slot immediately.
      --r.free_;
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) {
      r.waiters_[prio].Push(*this, h);
    }
    Guard await_resume() { return Guard{&r}; }
  };

  /// Suspends until a slot is granted to priority class `priority`.
  Awaiter Acquire(std::uint32_t priority) {
    ZSTOR_CHECK(priority < levels_);
    return Awaiter{*this, priority};
  }

  void Release() {
    for (std::uint32_t p = 0; p < levels_; ++p) {
      if (!waiters_[p].empty()) {
        waiters_[p].WakeOne(sim_);
        return;
      }
    }
    ++free_;
  }

  std::uint32_t free_slots() const { return free_; }
  /// Whether any class has a waiter queued.
  bool has_waiters() const {
    for (std::uint32_t p = 0; p < levels_; ++p) {
      if (!waiters_[p].empty()) return true;
    }
    return false;
  }

 private:
  Simulator& sim_;
  std::uint32_t free_;
  std::uint32_t levels_;
  std::array<WaitList<>, kMaxPriorityLevels> waiters_;  // one per class
};

}  // namespace zstor::sim
