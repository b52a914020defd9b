// Service-time noise, computed ahead of use on one helper thread.
//
// Every device draws its service-time variation as lognormal multipliers
// (Rng::LogNormalNoise): exp(sigma * z) for a Box–Muller normal z, four
// libm calls per draw. A NoiseStream returns exactly that sequence, draw
// for draw and bit for bit, but moves the transcendental math off the
// simulation thread:
//
//   * The owner (the simulation thread) cuts its Rng's stream into chunks
//     of kChunkDraws draws. For each it records the Rng's state at the
//     chunk's first draw, moves its Rng past the chunk's uniform pairs
//     (in stream order, the u1 redraw included), and queues the chunk
//     with the process's one helper thread, up to kChunks - 1 chunks
//     ahead of the one it is reading.
//   * The helper draws the same pairs from the recorded state and
//     computes z and every sigma's multiplier for the chunk.
//   * The owner never waits on a draw. A chunk the helper has not started
//     when the owner reaches it is taken back, and the owner computes
//     each draw itself from the recorded state with the same formula
//     (Rng::BoxMuller, std::exp), so the bits do not depend on who did
//     the work. The owner waits only to hand back a chunk the helper is
//     still writing.
//
// A draw's value is a pure function of its uniform pair and its sigma,
// and no code changes the floating-point environment, so the helper's
// result equals the owner's. DESIGN.md §1.1 has the argument.
//
// The helper starts on the first draw in the process and is never joined:
// it lives in an object that static destruction does not touch, and
// sleeps when no chunk is queued. A stream holds its chunks' multipliers
// inline, so neither drawing nor building a device allocates.
#pragma once

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <initializer_list>

#include "sim/rng.h"

namespace zstor::sim {

class NoiseHelper;  // noise.cc

class NoiseStream {
 public:
  static constexpr std::size_t kMaxSigmas = 3;
  /// Draws per chunk, and chunks per stream: one being read and the rest
  /// queued or computed ahead. A stream's multipliers take 15 KiB.
  static constexpr std::size_t kChunkDraws = 128;
  static constexpr std::size_t kChunks = 5;

  /// The stream Rng(seed) would give, for the multipliers of `sigmas`
  /// (at most kMaxSigmas; a zero sigma's multiplier is 1).
  NoiseStream(std::uint64_t seed, std::initializer_list<double> sigmas);
  /// Withdraws the queued chunks and waits at most for the one the
  /// helper is computing.
  ~NoiseStream();
  NoiseStream(const NoiseStream&) = delete;
  NoiseStream& operator=(const NoiseStream&) = delete;

  double sigma(std::size_t k) const { return sigma_[k]; }

  /// exp(sigma(k) * z) for the stream's next normal draw z: what
  /// Rng(seed).LogNormalNoise(sigma(k)) returns at the same position.
  double Multiplier(std::size_t k) {
    if (next_ == kChunkDraws) NextChunk();
    const std::size_t i = next_++;
    if (ready_ ||
        (ready_ = cur_->state.load(std::memory_order_acquire) ==
                  Chunk::kDone)) {
      return cur_->mult[i * n_ + k];
    }
    return std::exp(sigma_[k] * Rng::BoxMuller(own_.NormalUniforms()));
  }

  /// Chunks the helper had finished by the time the owner reached them.
  std::uint64_t chunks_ahead() const { return chunks_ahead_; }

 private:
  friend class NoiseHelper;

  struct Chunk {
    enum State : std::uint8_t {
      kIdle,    // not handed out yet
      kQueued,  // waiting in the helper's queue
      kBusy,    // the helper is computing it
      kDone,    // mult holds every draw
      kOwner,   // taken back: the owner computes each draw itself
    };
    std::atomic<State> state{kIdle};
    // The helper's queue links, guarded by its mutex.
    Chunk* prev = nullptr;
    Chunk* next = nullptr;
    const NoiseStream* stream = nullptr;
    Rng rng{0};  // the stream's Rng at the chunk's first draw
    /// kChunkDraws rows of n_ multipliers. The helper writes them, so
    /// they start a cache line of their own, away from the owner's
    /// cursor fields and the chunk header.
    alignas(64) double mult[kChunkDraws * kMaxSigmas];
  };

  /// Hands the chunk just read back to the helper for the draws after
  /// the last chunk handed out, then moves to the next one.
  void NextChunk();
  /// Gives `c` the next kChunkDraws draws: rng_'s state, then moves rng_
  /// past their uniform pairs.
  void Assign(Chunk& c);
  /// Fills c.mult (the helper's half of the work).
  void Compute(Chunk& c) const;

  Rng rng_;  // at the first draw after the last chunk handed out
  Rng own_;  // cur_'s draws, while the owner computes them itself
  double sigma_[kMaxSigmas] = {};
  std::size_t n_ = 0;
  std::size_t next_ = kChunkDraws;  // next draw in cur_
  bool ready_ = false;              // cur_ is kDone
  Chunk* cur_ = nullptr;            // null until the first draw
  std::uint64_t chunks_ahead_ = 0;
  Chunk chunks_[kChunks];
};

}  // namespace zstor::sim
