#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "sim/parallel_sim.h"
#include "sim/rng.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace zstor::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0u);
  EXPECT_TRUE(s.idle());
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.ScheduleIn(30, [&] { order.push_back(3); });
  s.ScheduleIn(10, [&] { order.push_back(1); });
  s.ScheduleIn(20, [&] { order.push_back(2); });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30u);
}

TEST(Simulator, SameTimeEventsRunFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.ScheduleIn(100, [&, i] { order.push_back(i); });
  }
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator s;
  int fired = 0;
  s.ScheduleIn(1, [&] {
    ++fired;
    s.ScheduleIn(1, [&] {
      ++fired;
      s.ScheduleIn(1, [&] { ++fired; });
    });
  });
  s.Run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(s.now(), 3u);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator s;
  int fired = 0;
  s.ScheduleIn(10, [&] { ++fired; });
  s.ScheduleIn(20, [&] { ++fired; });
  s.ScheduleIn(30, [&] { ++fired; });
  s.RunUntil(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), 20u);
  s.RunUntil(25);  // no events in (20, 25]; clock still advances
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), 25u);
  s.Run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunReturnsEventCount) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.ScheduleIn(static_cast<Time>(i), [] {});
  EXPECT_EQ(s.Run(), 7u);
}

TEST(Simulator, ZeroDelayEventRunsAtCurrentTime) {
  Simulator s;
  Time seen = 12345;
  s.ScheduleIn(50, [&] { s.ScheduleIn(0, [&] { seen = s.now(); }); });
  s.Run();
  EXPECT_EQ(seen, 50u);
}

// Same-timestamp events stay FIFO even when they land in different
// containers: events scheduled for a future time wait in the timed heap,
// while zero-delay events scheduled *at* that time go through the ready
// ring. The global sequence number must still order them.
TEST(Simulator, FifoHoldsAcrossReadyRingAndHeap) {
  Simulator s;
  std::vector<int> order;
  s.ScheduleIn(100, [&] {
    order.push_back(0);
    s.ScheduleIn(0, [&] { order.push_back(2); });    // ready ring
    s.ScheduleAt(100, [&] { order.push_back(3); });  // ring (at now)
    s.ScheduleIn(0, [&] {
      order.push_back(4);
      s.ScheduleIn(0, [&] { order.push_back(5); });
    });
  });
  s.ScheduleIn(100, [&] { order.push_back(1); });  // heap, earlier seq
  s.Run();
  // The heap-resident [1] must run before the ready-ring [2..] pushed
  // after it, even though the ring normally bypasses the heap.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(s.now(), 100u);
}

TEST(Simulator, FifoSurvivesReadyRingGrowth) {
  Simulator s;
  std::vector<int> order;
  s.ScheduleIn(5, [&] {
    // Far more zero-delay events than the ring's initial capacity, so
    // it grows (and relocates pending events) mid-burst.
    for (int i = 0; i < 100; ++i) {
      s.ScheduleIn(0, [&, i] { order.push_back(i); });
    }
  });
  s.Run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, RunUntilFiresEventExactlyAtBoundary) {
  Simulator s;
  bool fired = false;
  s.ScheduleAt(20, [&] { fired = true; });
  s.RunUntil(20);  // when == until is inclusive
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.now(), 20u);
}

// ---- timers against a reference queue -------------------------------
//
// Every event the simulator runs must be the minimum (time, seq) key of
// a std::priority_queue fed the same schedule calls, whichever container
// holds it. The seeded schedules mix a few repeating delays (one of them
// replaced every 300 events, so a delay's container changes hands),
// one-off delays, zero-delay events, bursts of one delay, coroutine
// sleeps, events scheduled from callbacks and, between RunUntil steps
// that land on event times, from outside the run. Times sit on a 10 ns
// grid, so most events tie with others.

struct RefEvent {
  Time when;
  std::uint64_t seq;
  int id;
  bool operator>(const RefEvent& o) const {
    return when != o.when ? when > o.when : seq > o.seq;
  }
};

struct ReferenceRun {
  explicit ReferenceRun(std::uint64_t seed) : rng(seed) {
    for (Time& d : fixed) d = 10 * (1 + rng.UniformU64(40));
  }

  Simulator s;
  Rng rng;
  std::priority_queue<RefEvent, std::vector<RefEvent>, std::greater<>> ref;
  std::uint64_t seq = 0;  // the reference's copy of the global seq
  int next_id = 0;
  int budget = 3000;
  std::array<Time, 4> fixed{};
  int ran = 0;
  std::string first_error;

  void Fail(const std::string& what) {
    if (first_error.empty()) first_error = what;
  }

  /// Schedules event `id` `delay` from now in both worlds.
  void Add(Time delay) {
    const int id = next_id++;
    --budget;
    ref.push({s.now() + delay, seq++, id});
    switch (rng.UniformU64(8)) {
      case 0:
        Spawn(Sleep(delay, id));
        break;
      case 1:
        s.ScheduleAt(s.now() + delay, [this, id] { Fire(id); });
        break;
      default:
        s.ScheduleIn(delay, [this, id] { Fire(id); });
        break;
    }
  }

  Task<> Sleep(Time delay, int id) {
    co_await s.Delay(delay);
    Fire(id);
  }

  Time PickDelay() {
    const std::uint64_t kind = rng.UniformU64(20);
    if (kind < 12) return fixed[rng.UniformU64(fixed.size())];
    if (kind < 16) return 10 * (1 + rng.UniformU64(60));  // one-off
    if (kind < 18) return 1 + rng.UniformU64(600);  // off the grid
    return 0;
  }

  void Fire(int id) {
    ++ran;
    if (ref.empty()) {
      Fail("event " + std::to_string(id) + " ran with none pending");
      return;
    }
    const RefEvent want = ref.top();
    ref.pop();
    if (want.id != id || want.when != s.now()) {
      Fail("ran event " + std::to_string(id) + " at " +
           std::to_string(s.now()) + ", want event " +
           std::to_string(want.id) + " at " + std::to_string(want.when));
    }
    if (s.pending_events() != ref.size()) {
      Fail("pending " + std::to_string(s.pending_events()) + " != " +
           std::to_string(ref.size()) + " at event " + std::to_string(id));
    }
    if (id % 300 == 299) {  // a new phase: one repeating delay changes
      fixed[rng.UniformU64(fixed.size())] = 10 * (1 + rng.UniformU64(40));
    }
    if (budget > 0 && rng.UniformU64(100) == 0) {  // a burst of one delay
      const Time d = fixed[rng.UniformU64(fixed.size())];
      for (std::uint64_t n = 50 + rng.UniformU64(250); n > 0; --n) Add(d);
    }
    // One child on average, two more while few events are pending.
    std::uint64_t n = rng.UniformU64(3) + (ref.size() < 32 ? 1 : 0);
    for (; n > 0 && budget > 0; --n) Add(PickDelay());
  }

  /// Runs to the end, in RunUntil steps when `stepped`; returns the
  /// first disagreement with the reference, or "".
  std::string Go(bool stepped) {
    for (int i = 0; i < 16; ++i) Add(PickDelay());
    if (!stepped) {
      s.Run();
    } else {
      while (!s.idle()) {
        if (ref.empty()) {
          Fail("the simulator holds events the reference does not");
          break;
        }
        if (s.next_event_time() != ref.top().when) {
          Fail("next_event_time " + std::to_string(s.next_event_time()) +
               " != " + std::to_string(ref.top().when));
        }
        Time until = ref.top().when;  // lands on an event time ...
        switch (rng.UniformU64(3)) {
          case 0:
            until += 10 * rng.UniformU64(5);  // ... or on the grid past it
            break;
          case 1:
            until = s.now() + rng.UniformU64(40);  // ... or anywhere
            break;
          default:
            break;
        }
        const Time was = s.now();
        s.RunUntil(until);
        if (s.now() != std::max(was, until)) Fail("RunUntil clock");
        if (!ref.empty() && ref.top().when <= until) {
          Fail("RunUntil(" + std::to_string(until) + ") left event " +
               std::to_string(ref.top().id) + " due at " +
               std::to_string(ref.top().when));
        }
        if (budget > 0) Add(PickDelay());  // from outside the run
      }
    }
    if (!ref.empty()) Fail("reference events never ran");
    if (ran != next_id) Fail("not every event ran exactly once");
    return first_error;
  }
};

TEST(Simulator, TimersMatchAReferenceQueue) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    for (bool stepped : {false, true}) {
      ReferenceRun run(seed);
      EXPECT_EQ(run.Go(stepped), "")
          << "seed " << seed << (stepped ? " stepped" : "");
      EXPECT_GE(run.ran, 3000) << "seed " << seed;
    }
  }
}

TEST(SimulatorDeathTest, SchedulingIntoThePastAborts) {
  Simulator s;
  s.ScheduleIn(100, [&] {
    EXPECT_DEATH(s.ScheduleAt(50, [] {}), "scheduling into the past");
  });
  s.Run();
}

TEST(TimeHelpers, ConversionsRoundTrip) {
  EXPECT_EQ(Microseconds(11.36), 11360u);
  EXPECT_EQ(Milliseconds(16.19), 16190000u);
  EXPECT_EQ(Seconds(2), 2'000'000'000u);
  EXPECT_DOUBLE_EQ(ToMicroseconds(11360), 11.36);
  EXPECT_DOUBLE_EQ(ToMilliseconds(16190000), 16.19);
  EXPECT_DOUBLE_EQ(ToSeconds(kSecond), 1.0);
}

// ---- the virtual slice chain (DESIGN.md §1.1) -----------------------
//
// A holder owns a one-unit Semaphore and works in slices: at every slice
// boundary it releases the server (queued requests take it first),
// checks its quiet mark and takes the server back. The unfolded
// reference wakes at every boundary with Delay(slice); the chained
// holder sleeps with HoldSlices and wakes only where something can see
// it. Both log (time, tag) for every other event and for each of their
// own wakes that does something: hand the server to a waiter, go bulk
// at the quiet mark, or finish. Every scenario runs in both worlds and
// the logs must be equal: the same wake times in the same global order.

using Log = std::vector<std::pair<Time, int>>;

constexpr int kHandOver = -1;  // holder tags: -(3 * holder + kind + 1)
constexpr int kBulk = -2;
constexpr int kDone = -3;

struct SliceWorld {
  explicit SliceWorld(Simulator& sim, bool chain) : s(sim), chained(chain) {}

  Simulator& s;
  bool chained;
  std::array<Semaphore, 2> res{Semaphore{s, 1}, Semaphore{s, 1}};
  std::array<Time, 2> quiet_at{kNever, kNever};
  Log log;

  void Mark(int tag) { log.emplace_back(s.now(), tag); }

  Task<> Holder(int i, Time slice, Time work) {
    Semaphore& r = res[i];
    const int tag = -3 * i;
    while (work > 0) {
      if (r.available() != 0 && s.now() >= quiet_at[i]) {
        Mark(tag + kBulk);
        co_await s.Delay(work);
        break;
      }
      auto g = co_await r.Hold(1);
      const Time from = s.now();
      if (chained && work > slice && !r.has_waiters()) {
        co_await s.HoldSlices(&r, slice, work, quiet_at[i]);
      } else {
        co_await s.Delay(std::min(work, slice));
      }
      work -= s.now() - from;
      if (r.has_waiters()) Mark(tag + kHandOver);
    }
    Mark(tag + kDone);
  }

  Task<> Client(int i, int id, Time hold) {
    auto g = co_await res[i].Hold(0);
    Mark(id);
    co_await s.Delay(hold);
  }

  /// Moves holder i's quiet mark, as an I/O start or drain would. The
  /// chain reads it; nothing is called.
  void SetQuiet(int i, Time at) { quiet_at[i] = at; }
};

/// A seeded random schedule on a 5 ns grid (slices are 10 ns, so many
/// events fall exactly on boundaries). Each event logs itself, may
/// queue a client at either server or move a quiet mark, and schedules
/// up to two children 0-25 ns out — some before, some after the
/// boundary wakes they tie with.
struct RandomSchedule {
  RandomSchedule(SliceWorld& world, std::uint64_t seed)
      : w(world), rng(seed) {}

  SliceWorld& w;
  Rng rng;
  int next_id = 0;
  int budget = 400;

  void Add(Time at) {
    const int id = next_id++;
    --budget;
    w.s.ScheduleAt(at, [this, id] { Fire(id); });
  }

  void Fire(int id) {
    w.Mark(id);
    const int i = static_cast<int>(rng.UniformU64(2));
    switch (rng.UniformU64(6)) {
      case 0:
      case 1:
        Spawn(w.Client(i, id, 5 * rng.UniformU64(4)));
        break;
      case 2:
        w.SetQuiet(i, rng.UniformU64(2) != 0
                          ? kNever
                          : w.s.now() + 5 * rng.UniformU64(40));
        break;
      default:
        break;
    }
    for (std::uint64_t n = rng.UniformU64(3); n > 0 && budget > 0; --n) {
      Add(w.s.now() + 5 * rng.UniformU64(6));
    }
  }
};

struct Outcome {
  Log log;
  Time end = 0;
  std::uint64_t events = 0;
  bool operator==(const Outcome& o) const {
    return log == o.log && end == o.end;
  }
};

/// One seeded scenario: two holders (the second, with 7 ns slices, shares
/// nothing with the first, so it falls back to plain slices while the
/// chain is taken)
/// beside a random schedule. `step` > 0 runs it in RunUntil steps and
/// schedules an event from outside the run after each.
Outcome RunScenario(std::uint64_t seed, bool chained, Time step) {
  Simulator s;
  SliceWorld w(s, chained);
  RandomSchedule sched(w, seed);
  Rng setup(seed ^ 0x5eed);
  for (int i = 0; i < 6; ++i) sched.Add(5 * setup.UniformU64(60));
  Spawn(w.Holder(0, 10, 10 * (20 + setup.UniformU64(40))));
  const Time second_at = 5 * setup.UniformU64(40);
  s.ScheduleAt(second_at, [&w, &setup] {
    Spawn(w.Holder(1, 7, 7 * (10 + setup.UniformU64(30)) + 5));
  });
  if (step == 0) {
    s.Run();
  } else {
    while (!s.idle()) {
      s.RunUntil(s.now() + step);
      if (sched.budget > 0) sched.Add(s.now() + 5 * setup.UniformU64(4));
    }
  }
  return {w.log, s.now(), s.events()};
}

TEST(SliceChain, RandomSchedulesMatchTheUnfoldedReference) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Outcome ref = RunScenario(seed, false, 0);
    const Outcome got = RunScenario(seed, true, 0);
    ASSERT_EQ(got, ref) << "seed " << seed;
    EXPECT_LE(got.events, ref.events) << "seed " << seed;
  }
}

TEST(SliceChain, SteppedRunUntilMatchesTheUnfoldedReference) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    for (Time step : {Time{7}, Time{10}, Time{25}}) {
      const Outcome ref = RunScenario(seed, false, step);
      ASSERT_EQ(RunScenario(seed, true, step), ref)
          << "seed " << seed << " step " << step;
    }
  }
}

/// The chained holder alone, with the clients a test schedules.
struct OneHolder {
  Simulator s;
  SliceWorld w{s, true};

  void Start(Time work) { Spawn(w.Holder(0, 10, work)); }
  void ClientAt(Time at, int id) {
    s.ScheduleAt(at, [this, id] { Spawn(w.Client(0, id, 0)); });
  }
};

TEST(SliceChain, TiesOnABoundaryFollowTheScheduleOrder) {
  // The holder's boundaries fall every 10 ns from 0. A request at 50
  // scheduled before the run sorts before the wake at 50 (that wake's
  // seq is taken at 40) and is served there; one scheduled at 45 for 50
  // sorts after it and waits for 60.
  OneHolder before;
  before.Start(200);
  before.ClientAt(50, 1);
  before.s.Run();
  EXPECT_EQ(before.w.log, (Log{{50, kHandOver}, {50, 1}, {200, kDone}}));

  OneHolder after;
  after.Start(200);
  after.s.ScheduleAt(45, [&after] { after.ClientAt(50, 1); });
  after.s.Run();
  EXPECT_EQ(after.w.log, (Log{{60, kHandOver}, {60, 1}, {200, kDone}}));
}

TEST(SliceChain, MaterializeAtTheBoundaryInstantWakesTheHolderThere) {
  // An event at 50 that sorts before the wake at 50 and queues a request
  // from a zero-delay event: the request still sorts after that wake
  // (its seq is newer), so it waits for 60.
  OneHolder h;
  h.Start(200);
  h.s.ScheduleAt(50, [&h] {
    h.w.Mark(1);
    h.s.ScheduleIn(0, [&h] { Spawn(h.w.Client(0, 2, 0)); });
  });
  h.s.Run();
  EXPECT_EQ(h.w.log,
            (Log{{50, 1}, {60, kHandOver}, {60, 2}, {200, kDone}}));
}

TEST(SliceChain, SameTimeReadyEventCanStopTheFirstBoundary) {
  // The chain starts inside an event at 10 while a zero-delay request is
  // already queued behind it in the ready ring: the first boundary (20)
  // is where the holder hands over.
  OneHolder h;
  h.s.ScheduleAt(10, [&h] {
    h.s.ScheduleIn(0, [&h] { Spawn(h.w.Client(0, 1, 0)); });
    h.Start(100);
  });
  h.s.Run();
  EXPECT_EQ(h.w.log, (Log{{20, kHandOver}, {20, 1}, {110, kDone}}));
}

TEST(SliceChain, RunCountsOnlyRealWakes) {
  // 1000 ns of slices beside a logger at 100 and a request at 700:
  // the logger, the request's event, the hand-over wake, the grant, the
  // request's zero-length hold, the holder's re-grant and its final
  // wake. Unfolded this would be over 100 events.
  OneHolder h;
  h.Start(1000);
  h.s.ScheduleAt(100, [&h] { h.w.Mark(1); });
  h.ClientAt(700, 2);
  EXPECT_EQ(h.s.Run(), 7u);
  EXPECT_EQ(h.s.events(), 7u);
  EXPECT_TRUE(h.s.idle());
  EXPECT_EQ(h.w.log, (Log{{100, 1}, {700, kHandOver}, {700, 2},
                          {1000, kDone}}));
}

TEST(SliceChain, RunUntilConsumesEveryBoundaryUpToItsBound) {
  OneHolder h;
  h.Start(1000);
  EXPECT_EQ(h.s.RunUntil(55), 0u);  // boundaries 10..50 consumed
  EXPECT_FALSE(h.s.idle());
  EXPECT_EQ(h.s.pending_events(), 1u);  // the chain's next wake
  EXPECT_EQ(h.s.next_event_time(), 60u);
  // Scheduled from outside the run: newer than the wake at 60.
  h.ClientAt(60, 1);
  // The request's event, then at 70 the hand-over, grant, zero-length
  // hold and re-grant.
  EXPECT_EQ(h.s.RunUntil(100), 5u);
  // The boundary at 100 lies on the bound, so it is consumed too.
  EXPECT_EQ(h.s.next_event_time(), 110u);
  h.ClientAt(100, 2);
  h.s.Run();
  EXPECT_EQ(h.w.log, (Log{{70, kHandOver}, {70, 1}, {110, kHandOver},
                          {110, 2}, {1000, kDone}}));
}

TEST(SliceChain, LongHoldsEndOnTheLastWholeSlice) {
  // 7 ns slices over 5.000000003 s of work, with gaps between events
  // both short and past 2^32 ns. The chain wakes on its last whole slice
  // and the 5 ns left over are one plain Delay.
  Simulator s;
  SliceWorld w(s, true);
  const Time work = 5'000'000'003;
  Spawn(w.Holder(0, 7, work));
  s.ScheduleAt(1000, [&w] { w.Mark(1); });
  s.ScheduleAt(4'900'000'000, [&w] { w.Mark(2); });
  EXPECT_EQ(s.Run(), 4u);  // two loggers, the last slice's wake, the rest
  EXPECT_EQ(w.log, (Log{{1000, 1}, {4'900'000'000, 2}, {work, kDone}}));
}

TEST(SliceChain, QuietMarkEndsTheChainAtTheFirstBoundaryAtOrAfterIt) {
  // A mark set mid-chain at 123 would end the chain at 130, but it moves
  // out to 301 before then: the chain reads the mark as it goes, so the
  // holder's one wake is at 310, where it goes bulk.
  OneHolder h;
  h.Start(1000);
  h.s.ScheduleAt(40, [&h] { h.w.SetQuiet(0, 123); });
  h.s.ScheduleAt(60, [&h] { h.w.SetQuiet(0, 301); });
  h.s.Run();
  EXPECT_EQ(h.w.log, (Log{{310, kBulk}, {1000, kDone}}));
}

// A lane mailbox delivery lands exactly on a window horizon that is also
// one of the receiving lane's slice boundaries. Lane 0 has events every
// 50 ns and the lookahead is 100, so the horizons fall at 150, 200, ...
// Lane 1's holder has 30 ns slices from 0, so 150 is also its boundary.
// Lane 0's event at 50 sends a request delivered at 150: it is drained
// after the window ran the wake at 150, so it waits for 180. Later lane
// 1 owes a reply from 450 to 750 while lane 0 is idle: its own next
// event, the chain's next boundary, then sets every window horizon, so
// the window count matches the unfolded reference only if the chain's
// wake counts as a pending event.
Log LaneScenario(bool chained, unsigned threads, std::uint64_t* windows) {
  ParallelSimulator ps(2, 100);
  ps.SetSpontaneous(0, true);
  SliceWorld w(ps.lane(1), chained);
  for (Time t = 50; t <= 400; t += 50) {
    ps.lane(0).ScheduleAt(t, [&ps, &w, t] {
      if (t == 50 || t == 250) {
        ps.Post(0, 1, t + 100, MsgKind::kOneWay, EventFn([&w, t] {
                  Spawn(w.Client(0, static_cast<int>(t), 0));
                }));
      } else if (t == 350) {
        ps.Post(0, 1, 450, MsgKind::kRequest, EventFn([&ps, &w] {
                  w.Mark(450);
                  ps.lane(1).ScheduleIn(300, [&ps] {
                    ps.Post(1, 0, ps.lane(1).now() + 100, MsgKind::kReply,
                            EventFn([] {}));
                  });
                }));
      }
    });
  }
  Spawn(w.Holder(0, 30, 900));
  ps.Run(threads);
  *windows = ps.windows();
  return w.log;
}

TEST(SliceChain, MailboxDeliveryOnAHorizonBoundaryWaitsForTheNextOne) {
  std::uint64_t ref_windows = 0;
  const Log ref = LaneScenario(false, 1, &ref_windows);
  EXPECT_EQ(ref, (Log{{180, kHandOver}, {180, 50}, {360, kHandOver},
                      {360, 250}, {450, 450}, {900, kDone}}));
  for (unsigned threads : {1u, 2u}) {
    std::uint64_t windows = 0;
    EXPECT_EQ(LaneScenario(true, threads, &windows), ref)
        << "threads=" << threads;
    EXPECT_EQ(windows, ref_windows) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace zstor::sim
