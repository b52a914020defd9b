// sim::NoiseStream against its reference: every multiplier must equal
// what Rng(seed).LogNormalNoise(sigma) returns at the same position, bit
// for bit, whoever computed it (the owner or the helper thread) and
// however the two raced.
#include "sim/noise.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <thread>
#include <vector>

#include "sim/rng.h"

namespace zstor::sim {
namespace {

struct Case {
  std::uint64_t seed;
  std::vector<double> sigmas;
};

// The flash pair, the controller triple, and sets with zero sigmas.
const Case kCases[] = {
    {0x4E414E44'534545Dull, {0.08, 0.05}},
    {1, {0.045, 0.10, 0.03}},
    {7, {0.045, 0.0, 0.0}},
    {0xD1FF'0001ull, {0.0, 0.2}},
    {42, {0.5}},
};

std::unique_ptr<NoiseStream> MakeStream(const Case& c) {
  auto make = [&c](std::initializer_list<double> sigmas) {
    return std::make_unique<NoiseStream>(c.seed, sigmas);
  };
  const std::vector<double>& v = c.sigmas;
  switch (v.size()) {
    case 1: return make({v[0]});
    case 2: return make({v[0], v[1]});
    default: return make({v[0], v[1], v[2]});
  }
}

/// Draws `n` multipliers from `s` and from the reference `ref`, cycling
/// through the sigmas in an irregular order, and returns how many
/// differed in any bit.
int Mismatches(const Case& c, NoiseStream& s, Rng& ref, int n,
               std::uint64_t* pick) {
  int bad = 0;
  for (int i = 0; i < n; ++i) {
    *pick = *pick * 6364136223846793005ull + 1442695040888963407ull;
    const std::size_t k = (*pick >> 33) % c.sigmas.size();
    const double want = ref.LogNormalNoise(c.sigmas[k]);
    const double got = s.Multiplier(k);
    if (std::bit_cast<std::uint64_t>(got) !=
        std::bit_cast<std::uint64_t>(want)) {
      ++bad;
    }
  }
  return bad;
}

// Right after construction the owner computes the first chunk itself,
// and draws in quick succession mostly reach chunks the helper has not
// finished.
TEST(NoiseStream, MatchesReferenceFromTheFirstDraw) {
  for (const Case& c : kCases) {
    std::unique_ptr<NoiseStream> s = MakeStream(c);
    Rng ref(c.seed);
    std::uint64_t pick = 1;
    EXPECT_EQ(Mismatches(c, *s, ref, 20000, &pick), 0) << "seed " << c.seed;
  }
}

// Pausing before each chunk boundary lets the helper finish the queued
// chunks, so the owner reads precomputed multipliers.
TEST(NoiseStream, MatchesReferenceAfterTheHelperCaughtUp) {
  std::uint64_t ahead = 0;
  for (int attempt = 0; attempt < 10 && ahead == 0; ++attempt) {
    for (const Case& c : kCases) {
      std::unique_ptr<NoiseStream> s = MakeStream(c);
      Rng ref(c.seed);
      std::uint64_t pick = 3;
      for (int chunk = 0; chunk < 6; ++chunk) {
        EXPECT_EQ(Mismatches(c, *s, ref, NoiseStream::kChunkDraws, &pick), 0)
            << "seed " << c.seed << " chunk " << chunk;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      ahead += s->chunks_ahead();
    }
  }
  EXPECT_GT(ahead, 0u) << "the helper never finished a chunk ahead";
}

// Two owners on two threads share the one helper.
TEST(NoiseStream, TwoStreamsOnTwoThreads) {
  int bad[2] = {0, 0};
  std::thread t[2];
  for (int j = 0; j < 2; ++j) {
    t[j] = std::thread([j, &bad] {
      const Case& c = kCases[j];
      std::unique_ptr<NoiseStream> s = MakeStream(c);
      Rng ref(c.seed);
      std::uint64_t pick = 5 + j;
      for (int round = 0; round < 20; ++round) {
        bad[j] += Mismatches(c, *s, ref, 1000, &pick);
        if (round % 4 == 0) std::this_thread::yield();
      }
    });
  }
  for (std::thread& th : t) th.join();
  EXPECT_EQ(bad[0], 0);
  EXPECT_EQ(bad[1], 0);
}

// Destroying a stream withdraws its queued chunks and waits for one the
// helper is computing; a new stream built over the freed memory must not
// see a stale result. Four threads churn streams at every chunk phase.
TEST(NoiseStream, DestructionWhileChunksAreQueuedOrComputing) {
  int bad[4] = {0, 0, 0, 0};
  std::thread t[4];
  for (int j = 0; j < 4; ++j) {
    t[j] = std::thread([j, &bad] {
      for (int i = 0; i < 300; ++i) {
        const Case& c = kCases[(i + j) % std::size(kCases)];
        std::unique_ptr<NoiseStream> s = MakeStream(c);
        Rng ref(c.seed);
        std::uint64_t pick = 11 + i;
        // 1 draw leaves both later chunks queued; the others stop at
        // varied points of the ring.
        const int n = i % 3 == 0 ? 1 : (i * 37) % 700;
        bad[j] += Mismatches(c, *s, ref, n, &pick);
      }
    });
  }
  for (std::thread& th : t) th.join();
  for (int b : bad) EXPECT_EQ(b, 0);
}

// A fork copies the queue but not the helper thread: the helper pauses
// between chunks around the fork, and the child starts its own. (TSan
// kills a child that starts a thread after a multithreaded fork.)
TEST(NoiseStream, ForkedChildDrawsWithItsOwnHelper) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "ThreadSanitizer forbids threads in a forked child";
#endif
  const Case& c = kCases[1];
  std::unique_ptr<NoiseStream> parent = MakeStream(c);
  Rng parent_ref(c.seed);
  std::uint64_t pick = 13;
  ASSERT_EQ(Mismatches(c, *parent, parent_ref, 1000, &pick), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::unique_ptr<NoiseStream> child = MakeStream(c);
    Rng ref(c.seed);
    std::uint64_t child_pick = 17;
    int bad = Mismatches(c, *child, ref, 5000, &child_pick);
    bad += Mismatches(c, *parent, parent_ref, 5000, &pick);
    _exit(bad == 0 ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(Mismatches(c, *parent, parent_ref, 5000, &pick), 0);
}

}  // namespace
}  // namespace zstor::sim
