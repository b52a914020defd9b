// End-to-end telemetry checks through the Testbed facade: the spans a
// traced command emits must tile its application-observed latency, and a
// run's metrics snapshot must agree with the device's own counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string_view>
#include <vector>

#include "harness/testbed.h"
#include "sim/task.h"

namespace zstor {
namespace {

using nvme::Opcode;
using telemetry::TraceEvent;

Testbed TracedZnsTestbed() {
  return TestbedBuilder()
      .WithZnsProfile(zns::TinyProfile())
      .WithStack(StackChoice::kSpdk)
      .WithTelemetry({.ring_capacity = 4096})
      .Build();
}

// At QD=1 through the SPDK stack every phase of a command happens
// back-to-back in virtual time, so its span durations must sum exactly
// to the TimedCompletion latency the application sees.
TEST(TraceIntegration, Qd1AppendSpansSumToReportedLatency) {
  Testbed tb = TracedZnsTestbed();
  struct Done {
    std::uint64_t trace_id;
    sim::Time latency;
  };
  std::vector<Done> done;
  auto body = [&]() -> sim::Task<> {
    for (int i = 0; i < 10; ++i) {
      auto tc = co_await tb.stack().Submit(
          {.opcode = Opcode::kAppend, .slba = 0, .nlb = 1});
      EXPECT_TRUE(tc.completion.ok());
      done.push_back({tc.trace_id, tc.latency()});
    }
  };
  auto t = body();
  tb.sim().Run();
  ASSERT_EQ(done.size(), 10u);

  auto events = tb.ring()->Events();
  EXPECT_EQ(tb.ring()->dropped(), 0u);
  std::map<std::uint64_t, sim::Time> span_sum;
  for (const TraceEvent& e : events) span_sum[e.cmd] += e.duration();
  for (const Done& d : done) {
    EXPECT_NE(d.trace_id, 0u);
    EXPECT_EQ(span_sum[d.trace_id], d.latency)
        << "spans of command " << d.trace_id
        << " do not tile its latency";
  }
}

TEST(TraceIntegration, ReadSpansIncludeNandServiceAndSumToLatency) {
  Testbed tb = TracedZnsTestbed();
  tb.zns()->DebugFillZone(0, tb.zns()->profile().zone_cap_bytes);
  std::uint64_t trace_id = 0;
  sim::Time latency = 0;
  auto body = [&]() -> sim::Task<> {
    auto tc = co_await tb.stack().Submit(
        {.opcode = Opcode::kRead, .slba = 0, .nlb = 1});
    EXPECT_TRUE(tc.completion.ok());
    trace_id = tc.trace_id;
    latency = tc.latency();
  };
  auto t = body();
  tb.sim().Run();

  sim::Time sum = 0;
  bool saw_nand_read = false;
  for (const TraceEvent& e : tb.ring()->Events()) {
    if (e.cmd != trace_id) continue;
    sum += e.duration();
    if (std::string_view(e.name) == "nand.read") saw_nand_read = true;
  }
  EXPECT_TRUE(saw_nand_read);
  EXPECT_EQ(sum, latency);
}

// Every device command, one at a time: its spans must tile its latency,
// summing to it with no gap and no overlap.
struct Issued {
  const char* what;
  std::uint64_t trace_id;
  sim::Time latency;
};

Issued Issue(Testbed& tb, const char* what, nvme::Command cmd) {
  Issued out{what, 0, 0};
  auto body = [&]() -> sim::Task<> {
    auto tc = co_await tb.stack().Submit(cmd);
    EXPECT_TRUE(tc.completion.ok()) << what;
    out.trace_id = tc.trace_id;
    out.latency = tc.latency();
  };
  auto t = body();
  tb.sim().Run();
  return out;
}

void ExpectSpansTileLatency(Testbed& tb, const std::vector<Issued>& cmds) {
  EXPECT_EQ(tb.ring()->dropped(), 0u);
  std::map<std::uint64_t, sim::Time> sum, first, last;
  for (const TraceEvent& e : tb.ring()->Events()) {
    if (e.cmd == 0) continue;
    sum[e.cmd] += e.duration();
    auto [lo, fresh] = first.try_emplace(e.cmd, e.begin);
    if (!fresh && e.begin < lo->second) lo->second = e.begin;
    if (e.end > last[e.cmd]) last[e.cmd] = e.end;
  }
  for (const Issued& c : cmds) {
    ASSERT_NE(c.trace_id, 0u) << c.what;
    EXPECT_EQ(sum[c.trace_id], c.latency) << c.what << ": spans leave a gap";
    EXPECT_EQ(last[c.trace_id] - first[c.trace_id], c.latency)
        << c.what << ": spans overlap or leave the command";
  }
}

TEST(TraceIntegration, Qd1SpansTileEveryZnsCommand) {
  Testbed tb = TestbedBuilder()
                   .WithZnsProfile(zns::TinyProfile())
                   .WithStack(StackChoice::kSpdk)
                   .WithTelemetry({.ring_capacity = 1 << 16})
                   .Build();
  const zns::ZnsDevice& dev = *tb.zns();
  auto mgmt = [&](std::uint32_t zone, nvme::ZoneAction action) {
    return nvme::Command{.opcode = Opcode::kZoneMgmtSend,
                         .slba = dev.ZoneStartLba(zone),
                         .zone_action = action};
  };
  nvme::Command reset_all = mgmt(0, nvme::ZoneAction::kReset);
  reset_all.select_all = true;
  std::vector<nvme::ZoneDescriptor> report(dev.info().num_zones);
  // 16 LBAs fill four NAND pages, so the read and flush reach the dies.
  std::vector<Issued> cmds = {
      Issue(tb, "write", {.opcode = Opcode::kWrite, .slba = 0, .nlb = 16}),
      Issue(tb, "append", {.opcode = Opcode::kAppend, .slba = 0, .nlb = 16}),
      Issue(tb, "flush", {.opcode = Opcode::kFlush}),
      Issue(tb, "read", {.opcode = Opcode::kRead, .slba = 0, .nlb = 32}),
      Issue(tb, "report", {.opcode = Opcode::kZoneMgmtRecv,
                           .slba = 0,
                           .data = report.data()}),
      Issue(tb, "open", mgmt(1, nvme::ZoneAction::kOpen)),
      Issue(tb, "close", mgmt(1, nvme::ZoneAction::kClose)),
      Issue(tb, "finish", mgmt(0, nvme::ZoneAction::kFinish)),
      Issue(tb, "reset", mgmt(0, nvme::ZoneAction::kReset)),
      Issue(tb, "append to zone 2", {.opcode = Opcode::kAppend,
                                     .slba = dev.ZoneStartLba(2),
                                     .nlb = 4}),
      Issue(tb, "reset all", reset_all),
  };
  ExpectSpansTileLatency(tb, cmds);
}

TEST(TraceIntegration, Qd1SpansTileEveryConvCommand) {
  Testbed tb = TestbedBuilder()
                   .WithConvProfile(ftl::TinyConvProfile())
                   .WithStack(StackChoice::kSpdk)
                   .WithTelemetry({.ring_capacity = 1 << 16})
                   .Build();
  // 6 units: one whole NAND page for the drain and a partial one for the
  // flush to pad out.
  std::vector<Issued> cmds = {
      Issue(tb, "write", {.opcode = Opcode::kWrite, .slba = 0, .nlb = 6}),
      Issue(tb, "flush", {.opcode = Opcode::kFlush}),
      Issue(tb, "read", {.opcode = Opcode::kRead, .slba = 0, .nlb = 6}),
      Issue(tb, "trim", {.opcode = Opcode::kDeallocate, .slba = 0, .nlb = 2}),
  };
  ExpectSpansTileLatency(tb, cmds);
}

// Contended FCP: all `cmds` in flight at once. Records must arrive in
// end-time order (a span is emitted when it ends), each command's
// fcp.wait must end where its FCP service span begins, and no two
// services may overlap: the FCP serves one command at a time.
void ExpectSerializedFcp(Testbed& tb, const std::vector<nvme::Command>& cmds) {
  std::vector<std::uint64_t> ids;
  auto submit = [&](nvme::Command cmd) -> sim::Task<> {
    ids.push_back((co_await tb.stack().Submit(cmd)).trace_id);
  };
  for (const nvme::Command& c : cmds) sim::Spawn(submit(c));
  tb.sim().Run();
  ASSERT_EQ(ids.size(), cmds.size());
  EXPECT_EQ(tb.ring()->dropped(), 0u);

  const std::vector<TraceEvent> events = tb.ring()->Events();
  std::map<std::uint64_t, std::vector<TraceEvent>> waits, services;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i > 0) {
      EXPECT_GE(e.end, events[i - 1].end)
          << "record " << i << " (" << e.name << ", cmd " << e.cmd
          << ") ends before the one emitted ahead of it";
    }
    const std::string_view name = e.name;
    if (name == "fcp.wait") waits[e.cmd].push_back(e);
    if (name == "fcp.service" || name == "zone.open" || name == "zone.close") {
      services[e.cmd].push_back(e);
    }
  }
  std::vector<TraceEvent> served;
  for (std::uint64_t id : ids) {
    ASSERT_EQ(waits[id].size(), 1u) << "cmd " << id;
    ASSERT_EQ(services[id].size(), 1u) << "cmd " << id;
    EXPECT_EQ(waits[id][0].end, services[id][0].begin) << "cmd " << id;
    served.push_back(services[id][0]);
  }
  std::sort(served.begin(), served.end(),
            [](const TraceEvent& x, const TraceEvent& y) {
              return x.begin < y.begin;
            });
  for (std::size_t i = 1; i < served.size(); ++i) {
    EXPECT_GE(served[i].begin, served[i - 1].end)
        << "cmds " << served[i - 1].cmd << " and " << served[i].cmd
        << " hold the FCP at once";
  }
}

TEST(TraceIntegration, ContendedFcpSerializesEveryZnsCommand) {
  Testbed tb = TestbedBuilder()
                   .WithZnsProfile(zns::TinyProfile())
                   .WithStack(StackChoice::kSpdk)
                   .WithTelemetry({.ring_capacity = 1 << 16})
                   .Build();
  const zns::ZnsDevice& dev = *tb.zns();
  tb.zns()->DebugFillZone(15, dev.profile().zone_cap_bytes);
  auto mgmt = [&](std::uint32_t zone, nvme::ZoneAction action) {
    return nvme::Command{.opcode = Opcode::kZoneMgmtSend,
                         .slba = dev.ZoneStartLba(zone),
                         .zone_action = action};
  };
  // The reports' contents go unchecked, so they share one buffer.
  std::vector<nvme::ZoneDescriptor> report(dev.info().num_zones);
  std::vector<nvme::Command> cmds;
  for (std::uint32_t i = 0; i < 8; ++i) {
    cmds.push_back({.opcode = Opcode::kRead,
                    .slba = dev.ZoneStartLba(15) + 16 * i,
                    .nlb = 4});
    cmds.push_back({.opcode = Opcode::kWrite, .slba = 4 * i, .nlb = 4});
    cmds.push_back({.opcode = Opcode::kAppend,
                    .slba = dev.ZoneStartLba(1),
                    .nlb = 4});
    cmds.push_back(mgmt(2, nvme::ZoneAction::kOpen));
    cmds.push_back(mgmt(2, nvme::ZoneAction::kClose));
    cmds.push_back(mgmt(1, nvme::ZoneAction::kFinish));
    cmds.push_back(
        {.opcode = Opcode::kZoneMgmtRecv, .slba = 0, .data = report.data()});
    cmds.push_back({.opcode = Opcode::kFlush});
  }
  ExpectSerializedFcp(tb, cmds);
}

TEST(TraceIntegration, ContendedFcpSerializesEveryConvCommand) {
  Testbed tb = TestbedBuilder()
                   .WithConvProfile(ftl::TinyConvProfile())
                   .WithStack(StackChoice::kSpdk)
                   .WithTelemetry({.ring_capacity = 1 << 16})
                   .Build();
  std::vector<nvme::Command> cmds;
  for (std::uint32_t i = 0; i < 8; ++i) {
    cmds.push_back({.opcode = Opcode::kWrite, .slba = 8 * i, .nlb = 6});
    cmds.push_back({.opcode = Opcode::kRead, .slba = 8 * i, .nlb = 6});
    cmds.push_back(
        {.opcode = Opcode::kDeallocate, .slba = 8 * i + 6, .nlb = 2});
    cmds.push_back({.opcode = Opcode::kFlush});
  }
  ExpectSerializedFcp(tb, cmds);
}

TEST(TraceIntegration, SnapshotMatchesDeviceCounters) {
  Testbed tb = TracedZnsTestbed();
  auto body = [&]() -> sim::Task<> {
    for (int i = 0; i < 5; ++i) {
      auto tc = co_await tb.stack().Submit(
          {.opcode = Opcode::kAppend, .slba = 0, .nlb = 1});
      EXPECT_TRUE(tc.completion.ok());
    }
    auto r = co_await tb.stack().Submit(
        {.opcode = Opcode::kZoneMgmtSend,
         .slba = 0,
         .zone_action = nvme::ZoneAction::kReset});
    EXPECT_TRUE(r.completion.ok());
  };
  auto t = body();
  const std::uint64_t events = tb.sim().Run();

  telemetry::Snapshot snap = tb.TakeSnapshot();
  // The classic engine's event count: this testbed ran nothing else.
  const auto* sim_events = snap.Find("sim.events");
  ASSERT_NE(sim_events, nullptr);
  EXPECT_GT(events, 0u);
  EXPECT_DOUBLE_EQ(sim_events->value, static_cast<double>(events));
  const auto* appends = snap.Find("zns.appends");
  ASSERT_NE(appends, nullptr);
  EXPECT_DOUBLE_EQ(appends->value,
                   static_cast<double>(tb.zns()->counters().appends));
  const auto* resets = snap.Find("zns.resets");
  ASSERT_NE(resets, nullptr);
  EXPECT_DOUBLE_EQ(resets->value, 1.0);
  // Transitions happened (Empty -> ImplicitlyOpen -> ... -> Empty).
  const auto* transitions = snap.Find("zns.zone_transitions");
  ASSERT_NE(transitions, nullptr);
  EXPECT_GE(transitions->value, 2.0);
  // The queue pair counted every command.
  const auto* cqes = snap.Find("qp.completions");
  ASSERT_NE(cqes, nullptr);
  EXPECT_DOUBLE_EQ(cqes->value, 6.0);
  // The host latency histogram recorded every submission.
  const auto* lat = snap.Find("host.latency_ns");
  ASSERT_NE(lat, nullptr);
  EXPECT_DOUBLE_EQ(lat->value, 6.0);
}

TEST(TraceIntegration, DisabledTelemetryMeansNullAccessors) {
  Testbed tb = TestbedBuilder().WithZnsProfile(zns::TinyProfile()).Build();
  EXPECT_EQ(tb.telemetry(), nullptr);
  EXPECT_EQ(tb.ring(), nullptr);
  // The device still works without any telemetry attached.
  auto body = [&]() -> sim::Task<> {
    auto tc = co_await tb.stack().Submit(
        {.opcode = Opcode::kAppend, .slba = 0, .nlb = 1});
    EXPECT_TRUE(tc.completion.ok());
    EXPECT_EQ(tc.trace_id, 0u);
  };
  auto t = body();
  tb.sim().Run();
}

TEST(TraceIntegration, JobResultDescribesIntoTestbedMetrics) {
  Testbed tb = TracedZnsTestbed();
  workload::JobSpec spec;
  spec.op = Opcode::kAppend;
  spec.request_bytes = 4096;
  spec.zones = {0, 1};
  spec.duration = sim::Milliseconds(5);
  workload::JobResult r = tb.RunJob(spec);
  ASSERT_GT(r.ops, 0u);
  telemetry::Snapshot snap = tb.TakeSnapshot();
  const auto* ops = snap.Find("job.ops");
  ASSERT_NE(ops, nullptr);
  EXPECT_DOUBLE_EQ(ops->value, static_cast<double>(r.ops));
}

}  // namespace
}  // namespace zstor
