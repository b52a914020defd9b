// Coroutine synchronization primitives for the simulator.
//
// All primitives are single-threaded (the simulator owns one logical
// thread of control); "blocking" means suspending the calling coroutine
// until another coroutine releases/pushes/signals. Waiters are resumed
// through the event loop (ResumeSoon) so native stacks stay shallow and
// wakeup order is deterministic FIFO.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <utility>

#include "sim/check.h"
#include "sim/simulator.h"

namespace zstor::sim {

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
/// it is a multi-slot server pool (a NAND die, a channel, a lock).
class Semaphore {
 public:
  using Guard = SlotGuard<Semaphore>;

  Semaphore(Simulator& s, std::uint64_t initial)
      : sim_(s), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  struct Awaiter {
    Semaphore& sem;
    bool await_ready() {
      if (sem.count_ == 0) return false;
      --sem.count_;
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) {
      sem.waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  /// Suspends until one unit is available, then takes it.
  Awaiter Acquire() { return Awaiter{*this}; }

  struct GuardAwaiter : Awaiter {
    Guard await_resume() { return Guard{&sem}; }
  };
  /// Acquire(), with the unit held by the returned guard.
  GuardAwaiter Hold() { return GuardAwaiter{{*this}}; }

  /// Returns one unit, waking the longest-waiting acquirer if any.
  void Release() {
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_.ResumeSoon(h);  // the released unit transfers to this waiter
    } else {
      ++count_;
    }
  }

  std::uint64_t available() const { return count_; }
  std::size_t waiting() const { return waiters_.size(); }

 private:
  Simulator& sim_;
  std::uint64_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
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
    if (--count_ == 0) {
      for (auto h : waiters_) sim_.ResumeSoon(h);
      waiters_.clear();
    }
  }

  struct Awaiter {
    WaitGroup& wg;
    bool await_ready() const { return wg.count_ == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      wg.waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };
  Awaiter Wait() { return Awaiter{*this}; }

  std::uint64_t count() const { return count_; }

 private:
  Simulator& sim_;
  std::uint64_t count_ = 0;
  std::deque<std::coroutine_handle<>> waiters_;
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
    for (auto h : waiters_) sim_.ResumeSoon(h);
    waiters_.clear();
  }

  struct Awaiter {
    OneShotEvent& e;
    bool await_ready() const { return e.set_; }
    void await_suspend(std::coroutine_handle<> h) { e.waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };
  Awaiter Wait() { return Awaiter{*this}; }

 private:
  Simulator& sim_;
  bool set_ = false;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Unbounded FIFO channel. Push never blocks; Pop suspends until an item
/// is available. Items are handed to poppers in FIFO order.
template <typename T>
class Queue {
 public:
  explicit Queue(Simulator& s) : sim_(s) {}
  Queue(const Queue&) = delete;
  Queue& operator=(const Queue&) = delete;

  void Push(T item) {
    if (!poppers_.empty()) {
      PopAwaiter* p = poppers_.front();
      poppers_.pop_front();
      p->slot = std::move(item);
      sim_.ResumeSoon(p->handle);
    } else {
      items_.push_back(std::move(item));
    }
  }

  struct PopAwaiter {
    Queue& q;
    std::optional<T> slot;
    std::coroutine_handle<> handle;

    bool await_ready() {
      if (q.items_.empty()) return false;
      slot = std::move(q.items_.front());
      q.items_.pop_front();
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      q.poppers_.push_back(this);
    }
    T await_resume() {
      ZSTOR_CHECK(slot.has_value());
      return std::move(*slot);
    }
  };

  /// Suspends until an item arrives, then yields it.
  PopAwaiter Pop() { return PopAwaiter{*this, std::nullopt, nullptr}; }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

 private:
  Simulator& sim_;
  std::deque<T> items_;
  std::deque<PopAwaiter*> poppers_;
};

}  // namespace zstor::sim
