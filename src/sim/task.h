// Task<T>: the coroutine type all simulated processes are written in.
//
// Semantics:
//  * Eager start — the body runs until its first suspension as soon as the
//    coroutine function is called.
//  * Awaitable — `co_await some_task` suspends the caller until the task
//    completes, then yields its value. The awaited Task object owns the
//    frame and frees it when it goes out of scope (typically at the end of
//    the full expression for `co_await Foo()`).
//  * Detachable — `std::move(t).Detach()` turns the task into a free-running
//    process whose frame self-destructs on completion.
//
// Exceptions must not escape a task: the simulator has no meaningful way to
// unwind virtual time, so an escaping exception terminates the process.
//
// LIFETIME RULE for lambda coroutines: a coroutine lambda's captures live in
// the closure OBJECT, not the coroutine frame. Any capturing lambda used as
// a coroutine must outlive the coroutine (declare it in a scope enclosing
// Simulator::Run()). Never call a capturing lambda coroutine as a temporary
// and never declare one inside the loop that spawns it. Coroutine function
// PARAMETERS are copied into the frame and are always safe.
//
// FRAME RECYCLING: every frame up to kMaxPooledFrame bytes comes from a
// per-thread free list (16-byte size classes) instead of the global heap,
// so steady-state spawning allocates nothing. A frame freed on another
// thread joins that thread's list; each thread's cached frames go back
// to the heap when it exits. Under AddressSanitizer the pool compiles
// out so use-after-free of a frame is still caught.
#pragma once

#include <coroutine>
#include <cstddef>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>

#include "sim/check.h"

#if defined(__SANITIZE_ADDRESS__)
#define ZSTOR_FRAME_POOL 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ZSTOR_FRAME_POOL 0
#endif
#endif
#ifndef ZSTOR_FRAME_POOL
#define ZSTOR_FRAME_POOL 1
#endif

namespace zstor::sim {

template <typename T>
class Task;

/// Whether coroutine frames are recycled (false under AddressSanitizer).
inline constexpr bool kFramePoolEnabled = ZSTOR_FRAME_POOL != 0;

namespace detail {

inline constexpr std::size_t kFrameGranule = 16;
inline constexpr std::size_t kMaxPooledFrame = 2048;

struct FreeFrame {
  FreeFrame* next;
};

/// One thread's frame cache. Trivially destructible, so it stays valid
/// for the whole life of the thread, after the exit drain included.
struct FrameCache {
  FreeFrame* free[kMaxPooledFrame / kFrameGranule];
  enum : unsigned char { kCold, kLive, kClosed } state;
};
inline thread_local constinit FrameCache t_frame_cache{};

/// Registers this thread's exit drain (the cache goes kLive); false once
/// the thread is exiting and its cache is closed.
bool ArmFrameCache() noexcept;

inline void* AllocateFrame(std::size_t n) {
  if (n > kMaxPooledFrame) return ::operator new(n);
  const std::size_t c = (n - 1) / kFrameGranule;
  FrameCache& fc = t_frame_cache;
  if (FreeFrame* f = fc.free[c]) {
    fc.free[c] = f->next;
    return f;
  }
  return ::operator new((c + 1) * kFrameGranule);
}

inline void DeallocateFrame(void* p, std::size_t n) noexcept {
  FrameCache& fc = t_frame_cache;
  if (n > kMaxPooledFrame ||
      (fc.state != FrameCache::kLive && !ArmFrameCache())) {
    ::operator delete(p);
    return;
  }
  const std::size_t c = (n - 1) / kFrameGranule;
  FreeFrame* f = ::new (p) FreeFrame{fc.free[c]};
  fc.free[c] = f;
}

struct PromiseBase {
#if ZSTOR_FRAME_POOL
  static void* operator new(std::size_t n) { return AllocateFrame(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    DeallocateFrame(p, n);
  }
#endif


  std::coroutine_handle<> continuation{};
  bool detached = false;
  bool done = false;

  std::suspend_never initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<P> h) noexcept {
      PromiseBase& p = h.promise();
      p.done = true;
      if (p.continuation) return p.continuation;
      if (p.detached) h.destroy();
      return std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept {
    ZSTOR_CHECK_MSG(false, "exception escaped a sim::Task");
  }
};

/// The promise of a Task<T>: the value, if any, waits here for the
/// awaiter (a Task<void>'s frame holds none).
template <typename T>
struct Promise : PromiseBase {
  std::optional<T> value;
  Task<T> get_return_object();
  void return_value(T v) { value = std::move(v); }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object();
  void return_void() {}
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::Promise<T>;

  Task(Task&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&& o) noexcept {
    ZSTOR_CHECK(h_ == nullptr);
    h_ = std::exchange(o.h_, nullptr);
    return *this;
  }
  ~Task() {
    if (!h_) return;
    ZSTOR_CHECK_MSG(h_.promise().done,
                    "Task destroyed while still running (detach it?)");
    h_.destroy();
  }

  bool Done() const { return !h_ || h_.promise().done; }

  /// Releases ownership; the coroutine keeps running and frees itself.
  void Detach() && {
    ZSTOR_CHECK(h_ != nullptr);
    if (h_.promise().done) {
      h_.destroy();
    } else {
      h_.promise().detached = true;
    }
    h_ = nullptr;
  }

  // Awaiting a Task resumes the caller when the task finishes.
  bool await_ready() const noexcept { return h_.promise().done; }
  void await_suspend(std::coroutine_handle<> caller) noexcept {
    h_.promise().continuation = caller;
  }
  T await_resume() {
    if constexpr (!std::is_void_v<T>) {
      ZSTOR_CHECK(h_.promise().value.has_value());
      return std::move(*h_.promise().value);
    }
  }

 private:
  friend promise_type;
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  std::coroutine_handle<promise_type> h_;
};

template <typename T>
Task<T> detail::Promise<T>::get_return_object() {
  return Task<T>{std::coroutine_handle<Promise>::from_promise(*this)};
}

inline Task<void> detail::Promise<void>::get_return_object() {
  return Task<void>{std::coroutine_handle<Promise>::from_promise(*this)};
}

/// Starts a free-running process (the idiomatic way to launch workers).
inline void Spawn(Task<> t) { std::move(t).Detach(); }

}  // namespace zstor::sim
