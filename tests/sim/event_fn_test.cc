#include "sim/event_fn.h"

#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

namespace zstor::sim {
namespace {

TEST(EventFn, DefaultConstructedIsDisengaged) {
  EventFn fn;
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(EventFn, SmallCallableIsStoredInline) {
  // The shapes the simulator actually schedules: captureless, one
  // pointer, pointer + word, pointer + two words.
  static_assert(EventFn::kStoredInline<void (*)()>);
  int x = 0;
  auto one_ptr = [&x] { ++x; };
  static_assert(EventFn::kStoredInline<decltype(one_ptr)>);
  std::uint64_t w = 7;
  auto ptr_and_word = [&x, w] { x += static_cast<int>(w); };
  static_assert(EventFn::kStoredInline<decltype(ptr_and_word)>);
  auto ptr_and_two_words = [&x, w, v = w] { x += static_cast<int>(w + v); };
  static_assert(EventFn::kStoredInline<decltype(ptr_and_two_words)>);

  EventFn fn(one_ptr);
  EXPECT_TRUE(static_cast<bool>(fn));
  fn();
  EXPECT_EQ(x, 1);
  EventFn three(ptr_and_two_words);
  three();
  EXPECT_EQ(x, 15);
}

TEST(EventFn, LargeCallableDoesNotConstruct) {
  // Past three words a callable is rejected at compile time instead of
  // being allocated; at three words it is stored and runs.
  struct FourWords {
    std::uint64_t w[4];
    void operator()() const {}
  };
  static_assert(!EventFn::kStoredInline<FourWords>);
  static_assert(!std::is_constructible_v<EventFn, FourWords>);

  struct ThreeWords {
    std::uint64_t* out;
    std::uint64_t a;
    std::uint64_t b;
    void operator()() const { *out = a + b; }
  };
  static_assert(sizeof(ThreeWords) <= EventFn::kInlineBytes);
  std::uint64_t out = 0;
  EventFn fn(ThreeWords{&out, 3, 4});
  fn();
  EXPECT_EQ(out, 7u);
}

TEST(EventFn, NonTriviallyCopyableCallableDoesNotConstruct) {
  // A callable owning what a byte copy cannot duplicate is rejected at
  // compile time even when it fits; a raw-pointer capture of the same
  // size is accepted.
  struct SharedCapture {
    std::shared_ptr<int> token;
    void operator()() const {}
  };
  struct StringCapture {
    std::string s;
    void operator()() const {}
  };
  static_assert(sizeof(SharedCapture) <= EventFn::kInlineBytes);
  static_assert(!std::is_constructible_v<EventFn, SharedCapture>);
  static_assert(!std::is_constructible_v<EventFn, StringCapture>);
  static_assert(std::is_constructible_v<EventFn, void (*)()>);

  int value = 0;
  int* raw = &value;
  auto raw_capture = [raw] { ++*raw; };
  static_assert(sizeof(raw_capture) <= sizeof(SharedCapture));
  EventFn fn(raw_capture);
  fn();
  EXPECT_EQ(value, 1);
}

TEST(EventFn, MoveTransfersTheCallable) {
  // A move is a copy: the source keeps its callable.
  int runs = 0;
  EventFn a([&runs] { ++runs; });
  EventFn b(std::move(a));
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(runs, 1);
}

TEST(EventFn, CopiesAreTrivialAndRunTheSameCallable) {
  static_assert(std::is_trivially_copyable_v<EventFn>);
  static_assert(sizeof(EventFn) == 32);
  int runs = 0;
  EventFn a([&runs] { ++runs; });
  EventFn b = a;
  EXPECT_TRUE(static_cast<bool>(a));
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(runs, 1);
  a = EventFn([&runs] { runs += 10; });
  a();
  b();  // a copy keeps its own callable, and runs it again
  EXPECT_EQ(runs, 12);
}

std::coroutine_handle<> g_handle;

struct MiniTask {
  struct promise_type {
    MiniTask get_return_object() { return {}; }
    std::suspend_never initial_suspend() { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() {}
  };
};

struct Capture {
  bool await_ready() { return false; }
  void await_suspend(std::coroutine_handle<> h) { g_handle = h; }
  void await_resume() {}
};

TEST(EventFn, CoroutineHandleConstructorResumes) {
  int after = 0;
  auto body = [&]() -> MiniTask {
    co_await Capture{};
    after = 1;
  };
  body();
  ASSERT_TRUE(g_handle);
  EventFn fn(g_handle);
  EXPECT_TRUE(static_cast<bool>(fn));
  EXPECT_EQ(after, 0);
  fn();
  EXPECT_EQ(after, 1);
  g_handle.destroy();
  g_handle = nullptr;
}

}  // namespace
}  // namespace zstor::sim
