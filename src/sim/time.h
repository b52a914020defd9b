// Virtual time for the discrete-event simulator.
//
// All simulated latencies are expressed in nanoseconds of virtual time.
// 64-bit nanoseconds cover ~584 years, far beyond any experiment.
#pragma once

#include <cstdint>

namespace zstor::sim {

/// Virtual-time instant or duration, in nanoseconds.
using Time = std::uint64_t;

inline constexpr Time kNanosecond = 1;
inline constexpr Time kMicrosecond = 1'000;
inline constexpr Time kMillisecond = 1'000'000;
inline constexpr Time kSecond = 1'000'000'000;
/// "No bound": a time after every event (unbounded horizons, empty heaps).
inline constexpr Time kNever = ~Time{0};

constexpr Time Nanoseconds(double n) { return static_cast<Time>(n); }
constexpr Time Microseconds(double us) {
  return static_cast<Time>(us * static_cast<double>(kMicrosecond));
}
constexpr Time Milliseconds(double ms) {
  return static_cast<Time>(ms * static_cast<double>(kMillisecond));
}
constexpr Time Seconds(double s) {
  return static_cast<Time>(s * static_cast<double>(kSecond));
}

constexpr double ToMicroseconds(Time t) {
  return static_cast<double>(t) / static_cast<double>(kMicrosecond);
}
constexpr double ToMilliseconds(Time t) {
  return static_cast<double>(t) / static_cast<double>(kMillisecond);
}
constexpr double ToSeconds(Time t) {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}

}  // namespace zstor::sim
