// Reset slice folding (DESIGN.md §3, item 5): a sliced reset holds the
// FCP on the simulator's slice chain, whose boundary wakes cost no event
// until something contends for the FCP. These tests pin the slice rule
// it must reproduce exactly: boundaries every `reset.slice` from the
// reset's start, host I/O served at the next boundary, concurrent resets
// taking turns, and the bulk path taken at the first boundary at or
// after 1 ms of I/O silence.
#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "zns_test_util.h"

namespace zstor::zns {
namespace {

using nvme::Completion;
using sim::Time;
using telemetry::TraceEvent;
using testing::Harness;
using testing::QuietTiny;

constexpr Time kSlice = sim::Microseconds(1);  // ResetModel's default
constexpr std::uint32_t kZoneA = 2;
constexpr std::uint32_t kZoneB = 3;
constexpr std::uint32_t kReadZone = 5;

/// Noise-free Tiny profile whose full-zone reset costs exactly `work`.
ZnsProfile FoldProfile(Time work) {
  ZnsProfile p = QuietTiny();
  p.nand_timing.read_sigma = 0;
  p.nand_timing.program_sigma = 0;
  p.reset.base = work;
  p.reset.coef = 0;
  return p;
}

struct FoldFixture {
  explicit FoldFixture(Time work, bool saw_io = true) : h(FoldProfile(work)) {
    telem.SetSink(&spans);
    h.dev.AttachTelemetry(&telem);
    for (std::uint32_t z : {kZoneA, kZoneB, kReadZone}) {
      h.dev.DebugFillZone(z, h.dev.profile().zone_cap_bytes);
    }
    if (!saw_io) return;
    // One read makes the device busy: resets now slice until 1 ms of
    // I/O silence. Its latency is the uncontended read latency.
    ZSTOR_CHECK(h.Read(kReadZone, 0, 1, &read_lat).ok());
    io_done = h.sim.now();
  }

  nvme::Command MgmtCmd(std::uint32_t zone, nvme::ZoneAction action) const {
    return {.opcode = nvme::Opcode::kZoneMgmtSend,
            .slba = h.dev.ZoneStartLba(zone),
            .zone_action = action};
  }
  nvme::Command ResetCmd(std::uint32_t zone) const {
    return MgmtCmd(zone, nvme::ZoneAction::kReset);
  }
  nvme::Command ReadCmd() const {
    return {.opcode = nvme::Opcode::kRead,
            .slba = h.dev.ZoneStartLba(kReadZone),
            .nlb = 1};
  }

  /// Runs `cmd` now; `done` receives the completion time.
  sim::Task<> Issue(nvme::Command cmd, Completion* out, Time* done) {
    *out = co_await h.dev.Execute(cmd);
    *done = h.sim.now();
  }

  std::vector<TraceEvent> Named(std::string_view name) const {
    std::vector<TraceEvent> out;
    for (const TraceEvent& e : spans.events()) {
      if (name == e.name) out.push_back(e);
    }
    return out;
  }

  Harness h;
  telemetry::Telemetry telem;
  telemetry::ShardSink spans;
  Time read_lat = 0;
  Time io_done = 0;  // the device's last I/O completion
};

void ExpectSpan(const TraceEvent& e, Time begin, Time end, Time held) {
  EXPECT_EQ(e.begin, begin);
  EXPECT_EQ(e.end, end);
  EXPECT_EQ(e.b, static_cast<std::int64_t>(held));
}

TEST(ZnsResetFold, ReadArrivingMidFoldWaitsForTheNextSliceBoundary) {
  FoldFixture f(sim::Microseconds(100));
  const Time t0 = f.h.sim.now();
  Completion rc, dc;
  Time reset_done = 0, read_done = 0;
  const Time arrive = t0 + 50'500;  // halfway through the 51st slice
  auto reset = f.Issue(f.ResetCmd(kZoneA), &rc, &reset_done);
  f.h.sim.ScheduleAt(arrive, [&] {
    sim::Spawn(f.Issue(f.ReadCmd(), &dc, &read_done));
  });
  f.h.sim.Run();
  ASSERT_TRUE(rc.ok());
  ASSERT_TRUE(dc.ok());
  // The read waits only for the boundary at t0 + 51 us (Obs. 12).
  EXPECT_EQ(read_done - arrive, f.read_lat + 500);
  // The first slice runs inside the caller's event; the next 50 are one
  // hold on the slice chain, which the read's FCP request wakes at the
  // first boundary after the arrival. The last 49 are one more hold,
  // after the read's FCP service.
  std::vector<TraceEvent> slices = f.Named("reset.slice");
  ASSERT_EQ(slices.size(), 3u);
  ExpectSpan(slices[0], t0, t0 + kSlice, kSlice);
  ExpectSpan(slices[1], t0 + kSlice, t0 + 51 * kSlice, 50 * kSlice);
  ExpectSpan(slices[2], t0 + 51 * kSlice, reset_done, 49 * kSlice);
  // The reset waited out the read's FCP service and nothing else.
  std::vector<TraceEvent> fcp = f.Named("fcp.service");
  ASSERT_EQ(fcp.size(), 2u);  // the fixture's read, then this one
  EXPECT_EQ(fcp[1].begin, t0 + 51 * kSlice);
  EXPECT_EQ(reset_done - t0, sim::Microseconds(100) + fcp[1].duration());
  Time held = 0;
  for (const TraceEvent& e : slices) held += static_cast<Time>(e.b);
  EXPECT_EQ(held, sim::Microseconds(100));
}

TEST(ZnsResetFold, TwoConcurrentResetsStillAlternateSlices) {
  FoldFixture f(sim::Microseconds(100));
  const Time t0 = f.h.sim.now();
  Completion ca, cb;
  Time done_a = 0, done_b = 0;
  auto a = f.Issue(f.ResetCmd(kZoneA), &ca, &done_a);
  auto b = f.Issue(f.ResetCmd(kZoneB), &cb, &done_b);
  f.h.sim.Run();
  ASSERT_TRUE(ca.ok());
  ASSERT_TRUE(cb.ok());
  // A holds even microseconds, B odd ones: 100 slices each, interleaved.
  EXPECT_EQ(done_a - t0, 199 * kSlice);
  EXPECT_EQ(done_b - t0, 200 * kSlice);
  std::vector<TraceEvent> slices = f.Named("reset.slice");
  ASSERT_EQ(slices.size(), 200u);
  for (const TraceEvent& e : slices) {
    EXPECT_EQ(e.b, static_cast<std::int64_t>(kSlice));
    EXPECT_EQ(e.end % kSlice, t0 % kSlice);
  }
  EXPECT_EQ(slices.front().a, kZoneA);
  EXPECT_EQ(slices[1].a, kZoneB);
}

TEST(ZnsResetFold, BulkStartsAtTheFirstBoundaryAtOrAfterOneQuietMillisecond) {
  // Starting right at the last I/O puts a boundary exactly on the 1 ms
  // quiet mark; starting 300 ns later puts none there, so the first one
  // after it is the reset's 1000th. Either way that boundary is t0 +
  // 1000 us, the fold stops there, and the rest goes bulk.
  for (Time offset : {Time{0}, Time{300}}) {
    FoldFixture f(sim::Milliseconds(5));
    f.h.sim.RunUntil(f.io_done + offset);
    const Time t0 = f.h.sim.now();
    Completion rc;
    Time done = 0;
    auto reset = f.Issue(f.ResetCmd(kZoneA), &rc, &done);
    f.h.sim.Run();
    ASSERT_TRUE(rc.ok());
    EXPECT_EQ(done - t0, sim::Milliseconds(5));
    std::vector<TraceEvent> slices = f.Named("reset.slice");
    ASSERT_EQ(slices.size(), 2u) << "offset=" << offset;
    ExpectSpan(slices[0], t0, t0 + kSlice, kSlice);
    ExpectSpan(slices[1], t0 + kSlice, t0 + 1000 * kSlice, 999 * kSlice);
    std::vector<TraceEvent> bulk = f.Named("reset.bulk");
    ASSERT_EQ(bulk.size(), 1u);
    EXPECT_EQ(bulk[0].begin, f.io_done + sim::Milliseconds(1) + offset);
    EXPECT_EQ(bulk[0].end, done);
  }
}

TEST(ZnsResetFold, WithoutIoSeenTheFirstFreeBoundaryGoesBulk) {
  // No I/O ever: a reset slices only while something else holds the
  // FCP. An open holds it when the reset starts, and a close issued as
  // the open completes takes it at the reset's first boundary. Once the
  // close is done, the reset takes one more slice, unfolded, and then
  // the quiet check sends the rest down the bulk path.
  FoldFixture f(sim::Microseconds(100), /*saw_io=*/false);
  const Time t0 = f.h.sim.now();
  Completion oc, cc, rc;
  Time open_done = 0, close_done = 0, done = 0;
  auto open_then_close = [&]() -> sim::Task<> {
    co_await f.Issue(f.MgmtCmd(7, nvme::ZoneAction::kOpen), &oc, &open_done);
    co_await f.Issue(f.MgmtCmd(7, nvme::ZoneAction::kClose), &cc,
                     &close_done);
  };
  auto mgmt = open_then_close();
  auto reset = f.Issue(f.ResetCmd(kZoneA), &rc, &done);
  f.h.sim.Run();
  ASSERT_TRUE(oc.ok());
  ASSERT_TRUE(cc.ok());
  ASSERT_TRUE(rc.ok());
  std::vector<TraceEvent> slices = f.Named("reset.slice");
  ASSERT_EQ(slices.size(), 2u);
  ExpectSpan(slices[0], t0, open_done + kSlice, kSlice);
  EXPECT_EQ(slices[1].begin, open_done + kSlice);
  EXPECT_GT(slices[1].end, close_done);  // waited out the close
  EXPECT_EQ(slices[1].b, static_cast<std::int64_t>(kSlice));
  std::vector<TraceEvent> bulk = f.Named("reset.bulk");
  ASSERT_EQ(bulk.size(), 1u);
  EXPECT_EQ(bulk[0].begin, slices[1].end);
  EXPECT_EQ(bulk[0].end, done);
  EXPECT_EQ(bulk[0].duration(), sim::Microseconds(98));
}

TEST(ZnsResetFold, PowerCutDuringAFoldFailsTheResetAndKeepsTheZone) {
  FoldFixture f(sim::Microseconds(100));
  const Time t0 = f.h.sim.now();
  const std::uint64_t wp = f.h.dev.ZoneWritePointerLba(kZoneA);
  Completion rc;
  Time done = 0;
  auto reset = f.Issue(f.ResetCmd(kZoneA), &rc, &done);
  // Stop mid-slice and cut power there. Nothing the cut does touches
  // the FCP, so the slice chain holding it is not woken: the reset's
  // one hold runs on to the end of its work.
  f.h.sim.RunUntil(t0 + 37'500);
  const std::size_t before_cut = f.Named("reset.slice").size();
  auto cut = f.h.dev.CrashNow();
  f.h.sim.Run();
  std::vector<TraceEvent> slices = f.Named("reset.slice");
  EXPECT_EQ(before_cut, 1u);
  ASSERT_EQ(slices.size(), 2u);
  ExpectSpan(slices[1], t0 + kSlice, t0 + 100 * kSlice, 99 * kSlice);
  EXPECT_EQ(rc.status, nvme::Status::kDeviceReset);
  EXPECT_EQ(done - t0, sim::Microseconds(100));
  EXPECT_EQ(f.h.dev.GetZoneState(kZoneA), ZoneState::kFull);
  EXPECT_EQ(f.h.dev.ZoneWritePointerLba(kZoneA), wp);
  EXPECT_EQ(f.h.dev.counters().resets, 0u);
}

// Ties on a slice boundary. A read whose FCP request lands exactly on a
// boundary is served there only if its event sorts before that
// boundary's wake: the wake was scheduled one slice earlier, so a read
// scheduled before that (here: before the reset began) comes first, and
// one scheduled after it waits for the next boundary. Either way the
// reset is stretched by exactly the read's FCP service.

TEST(ZnsResetFold, ReadOnABoundarySortedBeforeItsWakeIsServedThere) {
  FoldFixture f(sim::Microseconds(100));
  const Time t0 = f.h.sim.now();
  const Time fcp_read = f.h.dev.profile().fcp.read;
  const Time boundary = t0 + 20 * kSlice;
  Completion rc, dc;
  Time reset_done = 0, read_done = 0;
  f.h.sim.ScheduleAt(boundary, [&] {
    sim::Spawn(f.Issue(f.ReadCmd(), &dc, &read_done));
  });
  auto reset = f.Issue(f.ResetCmd(kZoneA), &rc, &reset_done);
  f.h.sim.Run();
  ASSERT_TRUE(rc.ok());
  ASSERT_TRUE(dc.ok());
  EXPECT_EQ(read_done, boundary + f.read_lat);
  EXPECT_EQ(reset_done, t0 + sim::Microseconds(100) + fcp_read);
}

TEST(ZnsResetFold, ReadOnABoundarySortedAfterItsWakeWaitsOneSlice) {
  FoldFixture f(sim::Microseconds(100));
  const Time t0 = f.h.sim.now();
  const Time fcp_read = f.h.dev.profile().fcp.read;
  const Time boundary = t0 + 20 * kSlice;
  Completion rc, dc;
  Time reset_done = 0, read_done = 0;
  auto reset = f.Issue(f.ResetCmd(kZoneA), &rc, &reset_done);
  // Scheduled mid-slice, after the wake at `boundary` took its place.
  f.h.sim.ScheduleAt(boundary - kSlice / 2, [&] {
    f.h.sim.ScheduleAt(boundary, [&] {
      sim::Spawn(f.Issue(f.ReadCmd(), &dc, &read_done));
    });
  });
  f.h.sim.Run();
  ASSERT_TRUE(rc.ok());
  ASSERT_TRUE(dc.ok());
  EXPECT_EQ(read_done, boundary + kSlice + f.read_lat);
  EXPECT_EQ(reset_done, t0 + sim::Microseconds(100) + fcp_read);
}

TEST(ZnsResetFold, IoDrainedMidResetGoesBulkAtTheFirstBoundaryAfterTheQuietMark) {
  // A read arriving mid-slice takes the FCP at the next boundary; the
  // reset resumes when the read's FCP service ends, and its boundaries
  // run on from there. Once the read completes the device drains, and
  // the rest of the reset goes bulk at the first of those boundaries at
  // or after 1 ms of silence.
  FoldFixture f(sim::Milliseconds(5));
  const Time t0 = f.h.sim.now();
  const Time fcp_read = f.h.dev.profile().fcp.read;
  Completion rc, dc;
  Time reset_done = 0, read_done = 0;
  auto reset = f.Issue(f.ResetCmd(kZoneA), &rc, &reset_done);
  f.h.sim.ScheduleAt(t0 + 100 * kSlice + 300, [&] {
    sim::Spawn(f.Issue(f.ReadCmd(), &dc, &read_done));
  });
  f.h.sim.Run();
  ASSERT_TRUE(rc.ok());
  ASSERT_TRUE(dc.ok());
  const Time served = t0 + 101 * kSlice;  // the read's FCP grant
  EXPECT_EQ(read_done, served + f.read_lat);
  const Time regrant = served + fcp_read;  // the reset's grid restarts here
  const Time quiet = read_done + sim::Milliseconds(1);
  const Time bulk_at =
      regrant + (quiet - regrant + kSlice - 1) / kSlice * kSlice;
  std::vector<TraceEvent> bulk = f.Named("reset.bulk");
  ASSERT_EQ(bulk.size(), 1u);
  EXPECT_EQ(bulk[0].begin, bulk_at);
  EXPECT_EQ(reset_done, t0 + sim::Milliseconds(5) + fcp_read);
  EXPECT_EQ(bulk[0].end, reset_done);
}

TEST(ZnsResetFold, LongResetBesideAPeriodicReaderCostsEventsPerRead) {
  FoldFixture f(sim::Milliseconds(10));
  Completion rc;
  Time done = 0;
  std::uint64_t reads = 0;
  auto reset = f.Issue(f.ResetCmd(kZoneA), &rc, &done);
  auto reader = [&]() -> sim::Task<> {
    while (done == 0) {
      Completion c = co_await f.h.dev.Execute(f.ReadCmd());
      ZSTOR_CHECK(c.ok());
      ++reads;
      co_await f.h.sim.Delay(sim::Microseconds(100));
    }
  };
  auto r = reader();
  const std::uint64_t events = f.h.sim.Run();
  ASSERT_TRUE(rc.ok());
  ASSERT_GT(reads, 50u);
  // Unfolded, the 10 ms of 1 us slices alone would be 10,000 events.
  EXPECT_LT(events, 20 * reads);
}

}  // namespace
}  // namespace zstor::zns
