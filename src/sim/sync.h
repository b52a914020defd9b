// Coroutine synchronization primitives for the simulator.
//
// All primitives are single-threaded (the simulator owns one logical
// thread of control); "blocking" means suspending the calling coroutine
// until another coroutine releases/pushes/signals. Waiters are resumed
// through the event loop (one zero-delay event each) so native stacks
// stay shallow and wakeup order is deterministic FIFO.
//
// Served resources are one class, Semaphore: a counted server with two
// strict priority classes. A FIFO server pool is a Semaphore held
// through its Guard (buffer slots, a lock). A NAND die or channel is a
// one-unit Semaphore whose waiters are op records (nand/flash_array.h).
// The firmware command processor (FCP) of both device models is a
// one-unit Semaphore whose host I/O commands always bypass queued
// background (reset) work: the mechanism behind the paper's
// Observations 12 and 13. All of them pass a released unit on through
// the one Semaphore::Release.
//
// Every primitive keeps its waiters on intrusive WaitLists whose nodes
// live inside the awaiters (or records), and an awaiter lives in the
// suspended coroutine's frame: constructing, waiting on, waking and
// destroying a primitive allocates nothing (DESIGN.md §1.1).
#pragma once

#include <array>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "sim/check.h"
#include "sim/simulator.h"

namespace zstor::sim {

/// A suspended coroutine's place in a WaitList. Awaiters derive from it,
/// so the node sits in the waiting coroutine's frame.
struct WaitNode {
  std::coroutine_handle<> handle;
  WaitNode* next = nullptr;
};

/// Intrusive FIFO of suspended coroutines: the one wait queue of every
/// primitive. `Node` is WaitNode, or an awaiter deriving from it that
/// carries what its waker hands over (a popped item, a token count).
template <typename Node = WaitNode>
class WaitList {
 public:
  WaitList() = default;
  WaitList(const WaitList&) = delete;
  WaitList& operator=(const WaitList&) = delete;

  bool empty() const { return head_ == nullptr; }
  std::size_t size() const {
    std::size_t n = 0;
    for (const WaitNode* p = head_; p != nullptr; p = p->next) ++n;
    return n;
  }
  Node& front() const { return static_cast<Node&>(*head_); }

  /// Queues `n`, which stays put until it is woken: it lives in the
  /// frame `h` suspends.
  void Push(Node& n, std::coroutine_handle<> h) {
    n.handle = h;
    n.next = nullptr;
    (tail_ != nullptr ? tail_->next : head_) = &n;
    tail_ = &n;
  }

  Node& PopFront() {
    WaitNode* n = head_;
    head_ = n->next;
    if (head_ == nullptr) tail_ = nullptr;
    return static_cast<Node&>(*n);
  }

  /// Wakes the longest waiter through the event loop.
  void WakeOne(Simulator& sim) { sim.ResumeSoon(PopFront().handle); }

  /// Wakes every waiter in arrival order, leaving the list empty.
  void WakeAll(Simulator& sim) {
    WaitNode* n = std::exchange(head_, nullptr);
    tail_ = nullptr;
    while (n != nullptr) {
      WaitNode* next = n->next;  // read before the waiter can run
      sim.ResumeSoon(n->handle);
      n = next;
    }
  }

 private:
  WaitNode* head_ = nullptr;
  WaitNode* tail_ = nullptr;
};

/// A counted server: `initial` units handed out in two strict priority
/// classes (0 = high), FIFO within each class. A released unit always
/// goes to the high class's longest waiter first; nothing in service is
/// preempted. The header lists what it serves.
class Semaphore {
 public:
  /// A queued request, living in the waiter's memory: an awaiter in the
  /// waiting coroutine's frame, an FCP step or a NAND op. The release
  /// that hands it a unit posts one zero-delay event that runs
  /// `on_grant`: a plain awaiter's resumes its coroutine, a record's
  /// starts its service.
  struct Waiter : WaitNode {
    void (*on_grant)(Waiter&) = nullptr;
  };

  /// One held unit, returned when the guard is destroyed or released.
  class [[nodiscard]] Guard {
   public:
    Guard() = default;
    explicit Guard(Semaphore* s) : sem_(s) {}
    Guard(Guard&& o) noexcept : sem_(std::exchange(o.sem_, nullptr)) {}
    Guard& operator=(Guard&& o) noexcept {
      Release();
      sem_ = std::exchange(o.sem_, nullptr);
      return *this;
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    ~Guard() { Release(); }

    void Release() {
      if (sem_ != nullptr) std::exchange(sem_, nullptr)->Release();
    }

   private:
    Semaphore* sem_ = nullptr;
  };

 private:
  /// One priority class's queue and its way back to the semaphore, so a
  /// parked awaiter names both with one reference.
  struct Class {
    Semaphore& sem;
    WaitList<Waiter> waiters;
  };

 public:
  Semaphore(Simulator& s, std::uint64_t initial)
      : sim_(s), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  /// Takes a unit (true), or queues `w` in class `prio` until a Release()
  /// grants it one (false). `w.handle` names the coroutine, if any, whose
  /// frame holds `w`. A holder sleeping on the simulator's slice chain
  /// with this semaphore as owner wakes at its next boundary.
  bool Take(Waiter& w, std::uint32_t prio = 0) { return Take(w, Of(prio)); }

  struct Awaiter : Waiter {
    explicit Awaiter(Class& c) : cls(c) {
      on_grant = [](Waiter& w) { w.handle.resume(); };
    }
    Class& cls;
    bool await_ready() const { return cls.sem.TakeIdle(); }
    bool await_suspend(std::coroutine_handle<> h) {
      handle = h;
      return !cls.sem.Take(*this, cls);
    }
    void await_resume() const noexcept {}
  };

  /// Suspends until a unit is granted to class `prio`, then holds it.
  Awaiter Acquire(std::uint32_t prio = 0) { return Awaiter{Of(prio)}; }

  struct GuardAwaiter : Awaiter {
    using Awaiter::Awaiter;
    Guard await_resume() const { return Guard{&cls.sem}; }
  };
  /// Acquire(), with the unit held by the returned guard.
  GuardAwaiter Hold(std::uint32_t prio = 0) { return GuardAwaiter{Of(prio)}; }

  /// Returns one unit: the one place a unit passes to a waiter. The
  /// oldest waiter of the highest class gets it through one zero-delay
  /// event that runs its hook, never inline (DESIGN.md §1.1); with no
  /// waiter the count goes up.
  void Release() {
    for (Class& c : classes_) {
      if (!c.waiters.empty()) {
        Waiter* w = &c.waiters.PopFront();
        sim_.ScheduleIn(0, [w] { w->on_grant(*w); });
        return;
      }
    }
    ++count_;
  }

  std::uint64_t available() const { return count_; }
  /// O(1); waiting() walks the lists.
  bool has_waiters() const {
    return !classes_[0].waiters.empty() || !classes_[1].waiters.empty();
  }
  std::size_t waiting() const {
    return classes_[0].waiters.size() + classes_[1].waiters.size();
  }

 private:
  Class& Of(std::uint32_t prio) {
    ZSTOR_CHECK(prio < classes_.size());
    return classes_[prio];
  }

  /// Takes a unit if one is idle.
  bool TakeIdle() {
    if (count_ == 0) return false;
    --count_;
    return true;
  }

  bool Take(Waiter& w, Class& c) {
    if (TakeIdle()) return true;
    c.waiters.Push(w, w.handle);
    sim_.MaterializeChain(this);
    return false;
  }

  Simulator& sim_;
  std::uint64_t count_;
  std::array<Class, 2> classes_{Class{*this, {}}, Class{*this, {}}};
};

/// Wait for a group of processes to finish: Add() before spawning each,
/// Done() at the end of each, co_await Wait() to join them all.
class WaitGroup {
 public:
  explicit WaitGroup(Simulator& s) : sim_(s) {}
  WaitGroup(const WaitGroup&) = delete;
  WaitGroup& operator=(const WaitGroup&) = delete;

  void Add(std::uint64_t n = 1) { count_ += n; }

  void Done() {
    ZSTOR_CHECK(count_ > 0);
    if (--count_ == 0) waiters_.WakeAll(sim_);
  }

  struct Awaiter : WaitNode {
    explicit Awaiter(WaitGroup& w) : wg(w) {}
    WaitGroup& wg;
    bool await_ready() const { return wg.count_ == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      wg.waiters_.Push(*this, h);
    }
    void await_resume() const noexcept {}
  };
  Awaiter Wait() { return Awaiter{*this}; }

  std::uint64_t count() const { return count_; }

 private:
  Simulator& sim_;
  std::uint64_t count_ = 0;
  WaitList<> waiters_;
};

/// Re-armable broadcast: Wait() always suspends, NotifyAll() wakes every
/// coroutine waiting at that moment. A waiter re-checks its condition in
/// a loop, as with a condition variable.
class Condition {
 public:
  explicit Condition(Simulator& s) : sim_(s) {}
  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;

  void NotifyAll() { waiters_.WakeAll(sim_); }

  struct Awaiter : WaitNode {
    explicit Awaiter(Condition& cond) : c(cond) {}
    Condition& c;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { c.waiters_.Push(*this, h); }
    void await_resume() const noexcept {}
  };
  Awaiter Wait() { return Awaiter{*this}; }

 private:
  Simulator& sim_;
  WaitList<> waiters_;
};

}  // namespace zstor::sim
