// Deterministic pseudo-random numbers for workloads and service noise.
//
// xoshiro256** (Blackman & Vigna) seeded via splitmix64. Self-contained so
// that streams are bit-identical across standard libraries and platforms —
// experiment outputs must be reproducible from a seed alone.
#pragma once

#include <cmath>
#include <cstdint>

#include "sim/check.h"

namespace zstor::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    // splitmix64 expansion of the seed into the xoshiro state.
    std::uint64_t x = seed;
    for (auto& word : s_) {
      x += 0x9E3779B97F4A7C15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      word = z ^ (z >> 31);
    }
  }

  std::uint64_t NextU64() {
    const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, n).
  std::uint64_t UniformU64(std::uint64_t n) {
    ZSTOR_CHECK(n > 0);
    // Lemire's nearly-divisionless bounded generation (rejection variant).
    std::uint64_t threshold = (~n + 1) % n;  // == 2^64 mod n
    for (;;) {
      std::uint64_t r = NextU64();
      if (r >= threshold) return r % n;
    }
  }

  /// Uniform double in [0, 1).
  double UniformDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// The two uniforms one Normal() draw consumes, in stream order: u1,
  /// u2, then u1 again while it is too close to 0 for the log.
  struct UniformPair {
    double u1;
    double u2;
  };
  UniformPair NormalUniforms() {
    UniformPair p{UniformDouble(), UniformDouble()};
    while (p.u1 <= 1e-300) p.u1 = UniformDouble();
    return p;
  }

  /// The Box–Muller transform of one uniform pair: the one formula every
  /// normal draw computes through (sim::NoiseStream included).
  static double BoxMuller(UniformPair p) {
    return std::sqrt(-2.0 * std::log(p.u1)) *
           std::cos(6.283185307179586 * p.u2);
  }

  /// Standard normal via Box–Muller (one value per call; no caching, to
  /// keep the stream position a pure function of the call count).
  double Normal() { return BoxMuller(NormalUniforms()); }

  /// Lognormal multiplier with median 1 and shape sigma: useful as
  /// multiplicative service-time noise (sigma ~0.03 gives a few % jitter).
  /// Devices draw it through sim::NoiseStream, which returns the same
  /// sequence; this is the reference the tests compare it with.
  double LogNormalNoise(double sigma) { return std::exp(sigma * Normal()); }

  /// Exponential with the given mean.
  double Exponential(double mean) {
    double u = UniformDouble();
    while (u <= 1e-300) u = UniformDouble();
    return -mean * std::log(u);
  }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

}  // namespace zstor::sim
