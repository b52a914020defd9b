#include "sim/parallel_sim.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace zstor::sim {
namespace {

// An execution log per lane: (virtual time, tag). Lane logs are only
// appended from that lane's own events, so no cross-thread access.
using LaneLog = std::vector<std::pair<Time, int>>;

TEST(ParallelSimulator, LanesStartAligned) {
  ParallelSimulator ps(3, 100);
  EXPECT_EQ(ps.num_lanes(), 3u);
  EXPECT_EQ(ps.lookahead(), 100u);
  for (std::uint32_t l = 0; l < 3; ++l) EXPECT_EQ(ps.lane(l).now(), 0u);
}

TEST(ParallelSimulator, IndependentLanesRunInOneUnboundedWindow) {
  ParallelSimulator ps(3, 100);
  std::vector<int> fired(3, 0);
  for (std::uint32_t l = 0; l < 3; ++l) {
    for (int i = 0; i < 5; ++i) {
      ps.lane(l).ScheduleIn(10 * (i + 1), [&fired, l] { ++fired[l]; });
    }
  }
  EXPECT_EQ(ps.Run(3), 15u);
  EXPECT_EQ(fired, (std::vector<int>{5, 5, 5}));
  // No lane may send, so the whole run is a single unbounded window.
  EXPECT_EQ(ps.windows(), 1u);
  EXPECT_EQ(ps.messages(), 0u);
}

TEST(ParallelSimulator, ClocksRealignAtQuiescence) {
  ParallelSimulator ps(2, 100);
  ps.lane(0).ScheduleIn(50, [] {});
  ps.lane(1).ScheduleIn(7777, [] {});
  ps.Run(2);
  EXPECT_EQ(ps.lane(0).now(), 7777u);
  EXPECT_EQ(ps.lane(1).now(), 7777u);
}

// Builds the tie scenario: lanes 1 and 2 each post two one-way messages
// toward lane 0, all delivering at the same virtual time. Returns lane
// 0's execution log; tag = src * 10 + message index.
LaneLog RunTieScenario(unsigned threads) {
  ParallelSimulator ps(3, 10);
  ps.SetSpontaneous(1, true);
  ps.SetSpontaneous(2, true);
  LaneLog log;
  for (std::uint32_t src : {2u, 1u}) {  // post order must not matter
    ps.lane(src).ScheduleIn(5, [&ps, &log, src] {
      for (int i = 0; i < 2; ++i) {
        ps.Post(src, 0, ps.lane(src).now() + 10, MsgKind::kOneWay,
                EventFn([&ps, &log, src, i] {
                  log.emplace_back(ps.lane(0).now(), int(src) * 10 + i);
                }));
      }
    });
  }
  ps.Run(threads);
  return log;
}

TEST(ParallelSimulator, SameTimeMessagesDrainInLaneSeqOrder) {
  // All four messages land at t=15; the (time, lane, seq) rule orders
  // lane 1's before lane 2's regardless of post order or thread count.
  LaneLog expected{{15, 10}, {15, 11}, {15, 20}, {15, 21}};
  for (unsigned threads : {1u, 2u, 3u}) {
    EXPECT_EQ(RunTieScenario(threads), expected) << "threads=" << threads;
  }
}

TEST(ParallelSimulator, LocalEventsRunBeforeSameTimeArrivals) {
  // Lane 0 has its own event at t=10; lane 1's message also delivers at
  // t=10. The window horizon is exactly 10, so the local event runs in
  // the first window and the arrival drains into the next one — local
  // work at time T always precedes cross-lane work at time T.
  for (unsigned threads : {1u, 2u}) {
    ParallelSimulator ps(2, 10);
    ps.SetSpontaneous(0, true);
    ps.SetSpontaneous(1, true);
    LaneLog log;
    ps.lane(0).ScheduleIn(10, [&ps, &log] {
      log.emplace_back(ps.lane(0).now(), 1);
    });
    ps.lane(1).ScheduleIn(0, [&ps, &log] {
      ps.Post(1, 0, 10, MsgKind::kOneWay, EventFn([&ps, &log] {
                log.emplace_back(ps.lane(0).now(), 2);
              }));
    });
    ps.Run(threads);
    EXPECT_EQ(log, (LaneLog{{10, 1}, {10, 2}})) << "threads=" << threads;
  }
}

TEST(ParallelSimulator, RequestReplyRoundTrip) {
  for (unsigned threads : {1u, 2u}) {
    ParallelSimulator ps(2, 250);
    ps.SetSpontaneous(0, true);
    Time reply_seen = 0;
    ps.lane(0).ScheduleIn(1000, [&ps, &reply_seen] {
      // Request departs lane 0 at t=1000, arrives at t=1250; the device
      // lane charges 500 ns of service and replies, landing at t=2000.
      ps.Post(0, 1, ps.lane(0).now() + 250, MsgKind::kRequest,
              EventFn([&ps, &reply_seen] {
                ps.lane(1).ScheduleIn(500, [&ps, &reply_seen] {
                  ps.Post(1, 0, ps.lane(1).now() + 250, MsgKind::kReply,
                          EventFn([&ps, &reply_seen] {
                            reply_seen = ps.lane(0).now();
                          }));
                });
              }));
    });
    ps.Run(threads);
    EXPECT_EQ(reply_seen, 2000u) << "threads=" << threads;
    EXPECT_EQ(ps.messages(), 2u);
  }
}

// A deterministic pseudo-random message storm: every lane runs an event
// chain that posts one-way messages to a rotating set of peers with
// varying extra delays. The merged per-lane logs must be identical for
// every thread count.
std::vector<LaneLog> RunStorm(unsigned threads) {
  constexpr std::uint32_t kLanes = 4;
  ParallelSimulator ps(kLanes, 50);
  std::vector<LaneLog> logs(kLanes);
  struct Chain {
    ParallelSimulator* ps;
    std::vector<LaneLog>* logs;
    std::uint32_t lane;
    std::uint64_t state;
    int remaining;
    void Fire() {
      Simulator& s = ps->lane(lane);
      (*logs)[lane].emplace_back(s.now(), remaining);
      if (remaining-- == 0) return;
      // xorshift64 — cheap, seeded, no globals.
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      std::uint32_t dst = (lane + 1 + state % (kLanes - 1)) % kLanes;
      Time extra = state % 97;
      ps->Post(lane, dst, s.now() + ps->lookahead() + extra, MsgKind::kOneWay,
               EventFn([p = ps, l = logs, dst] {
                 (*l)[dst].emplace_back(p->lane(dst).now(), -1);
               }));
      s.ScheduleIn(10 + state % 31, [this] { Fire(); });
    }
  };
  std::vector<Chain> chains;
  chains.reserve(kLanes);
  for (std::uint32_t l = 0; l < kLanes; ++l) {
    ps.SetSpontaneous(l, true);
    chains.push_back(Chain{&ps, &logs, l, 0x9E3779B9u + l, 40});
    ps.lane(l).ScheduleIn(l + 1, [c = &chains[l]] { c->Fire(); });
  }
  ps.Run(threads);
  return logs;
}

TEST(ParallelSimulator, MessageStormIsThreadCountInvariant) {
  std::vector<LaneLog> reference = RunStorm(1);
  std::size_t total = 0;
  for (const LaneLog& log : reference) total += log.size();
  EXPECT_GT(total, 200u);  // the storm actually stormed
  for (unsigned threads : {2u, 4u}) {
    EXPECT_EQ(RunStorm(threads), reference) << "threads=" << threads;
  }
}

/// Tortures the (time, lane, seq) tie rule: every lane runs local
/// events at exactly the times messages from every other lane arrive,
/// so each delivery slot mixes a local event with three same-time
/// arrivals from distinct senders. Returns all four lane logs.
std::vector<LaneLog> RunMixedTies(unsigned threads) {
  ParallelSimulator ps(4, 10);
  std::vector<LaneLog> logs(4);
  for (std::uint32_t l = 0; l < 4; ++l) {
    ps.SetSpontaneous(l, true);
    for (int k = 1; k <= 3; ++k) {
      ps.lane(l).ScheduleIn(10 * k, [&ps, &logs, l, k] {
        logs[l].emplace_back(ps.lane(l).now(), 100 * int(l) + k);
        for (std::uint32_t dst = 0; dst < 4; ++dst) {
          if (dst == l) continue;
          ps.Post(l, dst, ps.lane(l).now() + 10, MsgKind::kOneWay,
                  EventFn([&ps, &logs, dst, l, k] {
                    logs[dst].emplace_back(ps.lane(dst).now(),
                                           1000 + 100 * int(l) + k);
                  }));
        }
      });
    }
  }
  ps.Run(threads);
  return logs;
}

TEST(ParallelSimulator, MixedLocalAndRemoteTiesAreThreadCountInvariant) {
  std::vector<LaneLog> reference = RunMixedTies(1);
  // Spot-check the rule on lane 0's t=20 slot: its own local event (tag
  // 2) precedes the same-time arrivals, which come in sender-lane order.
  LaneLog at20;
  for (const auto& e : reference[0]) {
    if (e.first == 20) at20.push_back(e);
  }
  ASSERT_GE(at20.size(), 4u);
  EXPECT_EQ(at20[0].second, 2);     // local first
  EXPECT_EQ(at20[1].second, 1101);  // then lane 1's t=10 send...
  EXPECT_EQ(at20[2].second, 1201);  // ...then lane 2's...
  EXPECT_EQ(at20[3].second, 1301);  // ...then lane 3's
  for (unsigned threads : {2u, 4u}) {
    EXPECT_EQ(RunMixedTies(threads), reference) << "threads=" << threads;
  }
}

/// One cross-lane delivery as the receiving lane saw it.
struct Delivery {
  Time now;
  Time deliver_at;
  std::uint32_t src;
  std::uint64_t seq;  // per (src, dst) pair, in the sender's post order
  bool operator==(const Delivery&) const = default;
};

/// Seeded actors whose lanes alternate long local-only stretches with
/// bursts of kRequest/kReply and one-way mail. Lanes below
/// `kSpontaneous` initiate; the rest only answer requests, so they join
/// the window horizon only while they owe a reply. Between two Run
/// calls the driving thread posts too. Every lane logs each delivery it
/// receives; only the receiving lane appends to its log.
class QuietThenMail {
 public:
  static constexpr std::uint32_t kSpontaneous = 3;
  static constexpr Time kHop = 250;

  QuietThenMail(std::uint32_t lanes, std::uint64_t seed, int steps)
      : ps_(lanes, kHop), logs_(lanes), seq_(lanes * lanes, 0) {
    for (std::uint32_t l = 0; l < lanes; ++l) {
      ps_.SetSpontaneous(l, l < kSpontaneous);
      actors_.push_back(Actor{this, l, seed * 0x9E3779B97F4A7C15u + l + 1, 0});
    }
    steps_ = steps;
  }

  /// Two runs with driver posts between them; returns every lane's log.
  std::vector<std::vector<Delivery>> Run(unsigned threads) {
    Start();
    ps_.Run(threads);
    // Driver-thread mail between runs: a one-way post and a request
    // from each initiator, delivered only once the next Run drains.
    for (std::uint32_t src = 0; src < kSpontaneous; ++src) {
      Actor& a = actors_[src];
      PostOne(src, Peer(a, a.Next()), a.Next() % 400, MsgKind::kOneWay);
      PostOne(src, Peer(a, a.Next()), a.Next() % 400, MsgKind::kRequest);
    }
    Start();
    ps_.Run(threads);
    return logs_;
  }

  const ParallelSimulator& engine() const { return ps_; }

 private:
  struct Actor {
    QuietThenMail* h;
    std::uint32_t lane;
    std::uint64_t state;
    int step;
    std::uint64_t Next() {  // xorshift64
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return state;
    }
    void Fire() { h->Step(*this); }
  };

  void Start() {
    for (Actor& a : actors_) {
      a.step = 0;
      ps_.lane(a.lane).ScheduleIn(1 + a.Next() % 50, [p = &a] { p->Fire(); });
    }
  }

  std::uint32_t Peer(Actor& a, std::uint64_t x) {
    const std::uint32_t k = ps_.num_lanes();
    return (a.lane + 1 + static_cast<std::uint32_t>(x % (k - 1))) % k;
  }

  void Step(Actor& a) {
    if (a.step++ == steps_) return;
    const std::uint64_t x = a.Next();
    // 56 quiet steps, then 8 steps that may mail.
    const bool burst = a.step % 64 >= 56;
    if (burst && a.lane < kSpontaneous && x % 3 == 0) {
      PostOne(a.lane, Peer(a, x >> 8), (x >> 16) % 300,
              (x >> 4) % 2 == 0 ? MsgKind::kRequest : MsgKind::kOneWay);
    }
    ps_.lane(a.lane).ScheduleIn(200 + (x >> 24) % 400, [p = &a] { p->Fire(); });
  }

  /// Posts from `src` to `dst`, `extra` ns past the hop. A request
  /// makes `dst` answer with a kReply after some service time.
  void PostOne(std::uint32_t src, std::uint32_t dst, Time extra,
               MsgKind kind) {
    const Time at = ps_.lane(src).now() + kHop + extra;
    const std::uint64_t seq = seq_[src * ps_.num_lanes() + dst]++;
    const bool request = kind == MsgKind::kRequest;
    auto deliver = [this, dst, at, src, seq, request] {
      logs_[dst].push_back(Delivery{ps_.lane(dst).now(), at, src, seq});
      if (!request) return;
      ps_.lane(dst).ScheduleIn(30 + seq % 70, [this, dst, src, seq] {
        PostOne(dst, src, seq % 50, MsgKind::kReply);
      });
    };
    ps_.Post(src, dst, at, kind, EventFn(deliver));
  }

  ParallelSimulator ps_;
  std::vector<Actor> actors_;
  std::vector<std::vector<Delivery>> logs_;
  std::vector<std::uint64_t> seq_;  // [src * K + dst]; row src is lane-local
  int steps_;
};

TEST(ParallelSimulator, QuietWindowsThenMailIsThreadCountInvariant) {
  constexpr std::uint32_t kLanes = 5;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    QuietThenMail ref_run(kLanes, seed, 192);
    const std::vector<std::vector<Delivery>> reference = ref_run.Run(1);
    std::size_t total = 0;
    for (const auto& log : reference) {
      total += log.size();
      for (const Delivery& d : log) {
        EXPECT_EQ(d.now, d.deliver_at) << "seed=" << seed;
      }
    }
    EXPECT_GT(total, 50u) << "seed=" << seed;
    // Each message makes at most one window's drain non-empty, so most
    // windows here carry no mail: that is the schedule this pins.
    EXPECT_GT(ref_run.engine().windows(), 4 * ref_run.engine().messages())
        << "seed=" << seed;
    for (unsigned threads = 2; threads <= kLanes; ++threads) {
      QuietThenMail run(kLanes, seed, 192);
      EXPECT_EQ(run.Run(threads), reference)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(run.engine().windows(), ref_run.engine().windows())
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(run.engine().messages(), ref_run.engine().messages())
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

TEST(ParallelSimulator, MoreWorkersThanCoresParkAndFinish) {
  // Eight workers, one per lane, outnumber a 4-core machine's cores:
  // thousands of windows finish only if waiting workers park instead of
  // spinning the ones with work off the cores.
  constexpr std::uint32_t kLanes = 8;
  QuietThenMail serial(kLanes, 7, 1400);
  const std::vector<std::vector<Delivery>> reference = serial.Run(1);
  ASSERT_GT(serial.engine().windows(), 2000u);
  QuietThenMail threaded(kLanes, 7, 1400);
  EXPECT_EQ(threaded.Run(kLanes), reference);
  EXPECT_EQ(threaded.engine().windows(), serial.engine().windows());
}

TEST(ParallelSimulator, SecondRunReusesRealignedClocks) {
  ParallelSimulator ps(2, 100);
  ps.SetSpontaneous(0, true);
  ps.lane(1).ScheduleIn(5000, [] {});
  ps.Run(2);
  ASSERT_EQ(ps.lane(0).now(), 5000u);
  // A cross-lane message in a second Run must clear the (realigned)
  // destination clock.
  bool delivered = false;
  ps.lane(0).ScheduleIn(10, [&ps, &delivered] {
    ps.Post(0, 1, ps.lane(0).now() + 100, MsgKind::kOneWay,
            EventFn([&delivered] { delivered = true; }));
  });
  ps.Run(2);
  EXPECT_TRUE(delivered);
  EXPECT_EQ(ps.lane(1).now(), 5110u);
}

}  // namespace
}  // namespace zstor::sim
