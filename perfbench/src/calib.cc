#include <chrono>
#include <cstdint>
#include <memory>
#include <queue>
#include <unordered_map>

#include "stats.h"

namespace perfbench {

double CalibrationSeconds() {
  struct Ev {
    std::uint64_t t;
    std::uint32_t key;
    bool operator<(const Ev& o) const { return t > o.t; }
  };
  std::priority_queue<Ev> heap;
  std::unordered_map<std::uint32_t, std::uint64_t> state;
  state.reserve(1 << 18);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 4096; ++i) {
    heap.push({next() % 1000, static_cast<std::uint32_t>(next() % (1 << 18))});
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) {
    Ev e = heap.top();
    heap.pop();
    auto payload = std::make_unique<std::uint64_t[]>(8);
    payload[0] = e.t;
    std::uint64_t& v = state[e.key];
    v += payload[0];
    sink += v;
    heap.push({e.t + 1 + next() % 1000,
               static_cast<std::uint32_t>(next() % (1 << 18))});
  }
  const double s = SecondsSince(t0);
  return sink == 42 ? s + 1e-12 : s;  // keep the loop observable
}

}  // namespace perfbench
