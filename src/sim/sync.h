// Coroutine synchronization primitives for the simulator.
//
// All primitives are single-threaded (the simulator owns one logical
// thread of control); "blocking" means suspending the calling coroutine
// until another coroutine releases/pushes/signals. Waiters are resumed
// through the event loop (ResumeSoon) so native stacks stay shallow and
// wakeup order is deterministic FIFO.
//
// Every primitive keeps its waiters on one intrusive WaitList whose
// nodes live inside the awaiters, and an awaiter lives in the suspended
// coroutine's frame: constructing, waiting on, waking and destroying a
// primitive allocates nothing (DESIGN.md §1.1).
#pragma once

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

/// RAII slot ownership for resources. Releases on destruction.
template <typename R>
class [[nodiscard]] SlotGuard {
 public:
  SlotGuard() = default;
  explicit SlotGuard(R* r) : res_(r) {}
  SlotGuard(SlotGuard&& o) noexcept : res_(std::exchange(o.res_, nullptr)) {}
  SlotGuard& operator=(SlotGuard&& o) noexcept {
    Release();
    res_ = std::exchange(o.res_, nullptr);
    return *this;
  }
  SlotGuard(const SlotGuard&) = delete;
  SlotGuard& operator=(const SlotGuard&) = delete;
  ~SlotGuard() { Release(); }

  void Release() {
    if (res_ != nullptr) std::exchange(res_, nullptr)->Release();
  }

 private:
  R* res_ = nullptr;
};

/// Counting semaphore with FIFO admission. Held through Hold()'s guard,
/// it is a multi-slot server pool (buffer slots, a lock).
class Semaphore {
 public:
  using Guard = SlotGuard<Semaphore>;

  Semaphore(Simulator& s, std::uint64_t initial)
      : sim_(s), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  struct Awaiter : WaitNode {
    explicit Awaiter(Semaphore& s) : sem(s) {}
    Semaphore& sem;
    bool await_ready() {
      if (sem.count_ == 0) return false;
      --sem.count_;
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) {
      sem.waiters_.Push(*this, h);
    }
    void await_resume() const noexcept {}
  };

  /// Suspends until one unit is available, then takes it.
  Awaiter Acquire() { return Awaiter{*this}; }

  struct GuardAwaiter : Awaiter {
    using Awaiter::Awaiter;
    Guard await_resume() { return Guard{&sem}; }
  };
  /// Acquire(), with the unit held by the returned guard.
  GuardAwaiter Hold() { return GuardAwaiter{*this}; }

  /// Returns one unit, waking the longest-waiting acquirer if any.
  void Release() {
    if (!waiters_.empty()) {
      waiters_.WakeOne(sim_);  // the released unit transfers to this waiter
    } else {
      ++count_;
    }
  }

  std::uint64_t available() const { return count_; }
  /// O(1); waiting() walks the list.
  bool has_waiters() const { return !waiters_.empty(); }
  std::size_t waiting() const { return waiters_.size(); }

 private:
  Simulator& sim_;
  std::uint64_t count_;
  WaitList<> waiters_;
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

/// One-shot event: waiters suspend until Set() is called once. Waiting on
/// an already-set event does not suspend.
class OneShotEvent {
 public:
  explicit OneShotEvent(Simulator& s) : sim_(s) {}
  OneShotEvent(const OneShotEvent&) = delete;
  OneShotEvent& operator=(const OneShotEvent&) = delete;

  void Set() {
    if (set_) return;
    set_ = true;
    waiters_.WakeAll(sim_);
  }

  struct Awaiter : WaitNode {
    explicit Awaiter(OneShotEvent& ev) : e(ev) {}
    OneShotEvent& e;
    bool await_ready() const { return e.set_; }
    void await_suspend(std::coroutine_handle<> h) { e.waiters_.Push(*this, h); }
    void await_resume() const noexcept {}
  };
  Awaiter Wait() { return Awaiter{*this}; }

 private:
  Simulator& sim_;
  bool set_ = false;
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
