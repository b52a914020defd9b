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
