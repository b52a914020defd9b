// EventFn: the simulator's non-allocating event callback.
//
// Every scheduled event used to carry a std::function<void()>; the hot
// path (resuming a coroutine) then paid the std::function machinery —
// manager-dispatched moves during heap sifts and, for captures past the
// implementation's tiny SBO, a heap allocation per event. EventFn is a
// trivially copyable callable of 32 bytes: one thunk pointer and
//
//  * inline storage for a trivially copyable callable of up to
//    kInlineBytes (a coroutine handle, a lambda capturing `this` plus
//    two words, a function pointer). Nothing else constructs one: a
//    larger callable, or one that owns something (a std::string, a
//    shared_ptr capture), fails to compile, so no event ever allocates;
//  * trivial copies: moving an event between container slots is a
//    fixed-size copy, no indirect calls, and no event needs destroying
//    — heap sifts in Simulator move events around constantly, so this
//    is what makes the 4-ary event heap cheap.
//
// A caller with more state than fits keeps it somewhere that outlives
// the event (a coroutine frame, an owning object) and captures a
// pointer to it: hostif::MailboxStack's RemoteOp is the example.
//
// The performance contract is enforced at compile time below
// (static_assert) and at runtime by tests/sim/alloc_count_test.cc, which
// counts every global allocation on the resume path.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <coroutine>
#include <cstddef>
#include <cstring>
#include <type_traits>

namespace zstor::sim {

class EventFn {
 public:
  /// Inline storage size: three pointer-words, enough for every callback
  /// the tree schedules (coroutine handles, `this` plus up to two words).
  static constexpr std::size_t kInlineBytes = 3 * sizeof(void*);

  /// True when an EventFn can hold callables of type F.
  template <typename F>
  static constexpr bool kStoredInline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(void*) &&
      std::is_trivially_copyable_v<F>;

  EventFn() noexcept = default;

  /// Any small trivially copyable callable; a coroutine handle is one
  /// (its call resumes the coroutine).
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&> &&
             kStoredInline<std::remove_cvref_t<F>>)
  EventFn(F&& f) noexcept  // NOLINT(google-explicit-constructor)
      : invoke_(&Invoke<std::remove_cvref_t<F>>),
        buf_{Word(f, 0), Word(f, 1), Word(f, 2)} {}

  /// Runs the callable. Must be engaged.
  ///
  /// Every thunk copies the callable out of the storage before user code
  /// runs, so the instant user code starts, this EventFn's storage may be
  /// overwritten: Step() invokes events directly in their container slot
  /// when no heap repair will clobber it, and a callback scheduling a
  /// fresh event may reuse the slot immediately.
  void operator()() const { invoke_(buf_); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

 private:
  using Thunk = void (*)(void* const*);

  /// Word `i` of `f`'s bytes, zero past its end.
  template <typename D>
  static void* Word(const D& f, std::size_t i) {
    void* w = nullptr;
    const std::size_t at = i * sizeof(void*);
    if (at < sizeof(D)) {
      std::memcpy(&w, reinterpret_cast<const unsigned char*>(&f) + at,
                  std::min(sizeof(void*), sizeof(D) - at));
    }
    return w;
  }
  template <typename D>
  static void Invoke(void* const* buf) {
    std::array<unsigned char, sizeof(D)> bytes;
    std::memcpy(bytes.data(), buf, sizeof(D));
    D d = std::bit_cast<D>(bytes);
    d();
  }

  Thunk invoke_ = nullptr;
  // Words, not bytes, and filled a word at a time: GCC then keeps a
  // temporary EventFn in registers and stores it straight into its
  // container slot (a byte array, or one memcpy of the whole callable,
  // went through the stack and reloaded it: a store-forwarding stall per
  // scheduled event). Zeroed so a copy never reads indeterminate words.
  void* buf_[kInlineBytes / sizeof(void*)] = {};
};

static_assert(EventFn::kStoredInline<std::coroutine_handle<>>,
              "coroutine resume events must fit inline");
static_assert(std::is_trivially_copyable_v<EventFn>,
              "containers copy events as plain values");
static_assert(sizeof(EventFn) == 32,
              "EventFn layout changed; heap sift cost depends on this");

}  // namespace zstor::sim
