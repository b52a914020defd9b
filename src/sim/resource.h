// Served resources with priority: the building block for device-internal
// contention that is not first come, first served.
//
// A FIFO server pool is a Semaphore held through a SlotGuard (sync.h); a
// NAND die or channel is a busy flag with a WaitList of op records
// (nand/flash_array.h). PriorityResource is one server with two strict
// priority classes — the firmware command processor (FCP) of both device
// models, where host I/O commands always bypass queued background (reset)
// work: the mechanism behind the paper's Observations 12 and 13.
#pragma once

#include <array>
#include <coroutine>
#include <cstdint>

#include "sim/check.h"
#include "sim/simulator.h"
#include "sim/sync.h"

namespace zstor::sim {

/// One server with two strict priority classes (0 = high). Within a
/// class, admission is FIFO. A released server always goes to the high
/// class's longest waiter first; there is no preemption of work already
/// in service.
class PriorityResource {
 public:
  using Guard = SlotGuard<PriorityResource>;

  /// A queued request, living in the waiting coroutine's frame. The
  /// release that hands it the server posts a zero-delay event that runs
  /// `on_grant`: Acquire()'s awaiter resumes its coroutine there, and a
  /// record awaiter (ControllerCore's FCP step) starts its service.
  struct Waiter : WaitNode {
    void (*on_grant)(Waiter&) = nullptr;
  };

  explicit PriorityResource(Simulator& s) : sim_(s) {}
  PriorityResource(const PriorityResource&) = delete;
  PriorityResource& operator=(const PriorityResource&) = delete;

  /// Takes the idle server (true), or queues `w` in class `priority`
  /// until a Release() grants it (false). `w.handle` names the coroutine
  /// whose frame holds `w`. A holder sleeping on the simulator's slice
  /// chain with this server as owner wakes at its next boundary.
  bool Take(Waiter& w, std::uint32_t priority) {
    ZSTOR_CHECK(priority < waiters_.size());
    if (!busy_) {
      busy_ = true;
      return true;
    }
    waiters_[priority].Push(w, w.handle);
    sim_.MaterializeChain(this);
    return false;
  }

  struct Awaiter : Waiter {
    Awaiter(PriorityResource& res, std::uint32_t p) : r(res), prio(p) {
      on_grant = [](Waiter& w) { w.handle.resume(); };
    }
    PriorityResource& r;
    std::uint32_t prio;
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) {
      handle = h;
      return !r.Take(*this, prio);
    }
    Guard await_resume() { return Guard{&r}; }
  };

  /// Suspends until the server is granted to class `priority`.
  Awaiter Acquire(std::uint32_t priority) { return Awaiter{*this, priority}; }

  void Release() {
    for (WaitList<Waiter>& q : waiters_) {
      if (!q.empty()) {
        Waiter* w = &q.PopFront();
        sim_.ScheduleIn(0, [w] { w->on_grant(*w); });
        return;
      }
    }
    busy_ = false;
  }

  bool busy() const { return busy_; }
  /// Whether either class has a waiter queued.
  bool has_waiters() const {
    return !waiters_[0].empty() || !waiters_[1].empty();
  }

 private:
  Simulator& sim_;
  bool busy_ = false;
  std::array<WaitList<Waiter>, 2> waiters_;  // one per class
};

}  // namespace zstor::sim
