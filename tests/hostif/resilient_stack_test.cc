// ResilientStack tests: status classification, retry/backoff behavior in
// virtual time, per-attempt timeouts, and the resilience counters — all
// against a scriptable fake stack so every failure is deterministic.
#include "hostif/resilient_stack.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/simulator.h"
#include "sim/task.h"
#include "sim/time.h"

namespace zstor::hostif {
namespace {

using sim::Microseconds;
using sim::Time;

/// Inner stack that completes each Submit() after `service_time` with the
/// next scripted status (the last entry repeats once the script runs dry).
class ScriptedStack : public Stack {
 public:
  explicit ScriptedStack(sim::Simulator& s) : sim_(s) {
    info_.capacity_lbas = 1 << 20;
  }

  sim::Task<nvme::TimedCompletion> Submit(nvme::Command cmd) override {
    submits_++;
    nvme::TimedCompletion tc;
    tc.submitted = sim_.now();
    tc.trace_id = cmd.trace_id;
    co_await sim_.Delay(service_time);
    tc.completed = sim_.now();
    tc.completion.status = NextStatus();
    co_return tc;
  }

  const nvme::NamespaceInfo& info() const override { return info_; }

  std::vector<nvme::Status> script{nvme::Status::kSuccess};
  Time service_time = Microseconds(10);
  std::uint64_t submits() const { return submits_; }

 private:
  nvme::Status NextStatus() {
    if (next_ < script.size()) return script[next_++];
    return script.back();
  }

  sim::Simulator& sim_;
  nvme::NamespaceInfo info_;
  std::size_t next_ = 0;
  std::uint64_t submits_ = 0;
};

nvme::TimedCompletion RunOne(sim::Simulator& s, ResilientStack& stack) {
  nvme::TimedCompletion out;
  auto body = [&]() -> sim::Task<> {
    out = co_await stack.Submit({.opcode = nvme::Opcode::kRead});
  };
  auto t = body();
  s.Run();
  return out;
}

TEST(Classify, TriageMatchesThePolicyTable) {
  EXPECT_EQ(Classify(nvme::Status::kSuccess), ErrorClass::kSuccess);
  // Retryable: a re-issue may genuinely succeed.
  EXPECT_EQ(Classify(nvme::Status::kMediaReadError), ErrorClass::kRetryable);
  EXPECT_EQ(Classify(nvme::Status::kInternalError), ErrorClass::kRetryable);
  EXPECT_EQ(Classify(nvme::Status::kHostTimeout), ErrorClass::kRetryable);
  // A power-loss outage ends: the recovered device can take the command.
  EXPECT_EQ(Classify(nvme::Status::kDeviceReset), ErrorClass::kRetryable);
  // Terminal: validation/state rejections — re-issuing cannot help.
  EXPECT_EQ(Classify(nvme::Status::kInvalidOpcode), ErrorClass::kTerminal);
  EXPECT_EQ(Classify(nvme::Status::kLbaOutOfRange), ErrorClass::kTerminal);
  EXPECT_EQ(Classify(nvme::Status::kZoneIsReadOnly), ErrorClass::kTerminal);
  EXPECT_EQ(Classify(nvme::Status::kZoneIsOffline), ErrorClass::kTerminal);
  // kWriteFault is terminal by design: the buffered data is gone and the
  // zone is degraded — recovery is a rewrite elsewhere, a caller decision.
  EXPECT_EQ(Classify(nvme::Status::kWriteFault), ErrorClass::kTerminal);
}

TEST(ResilientStack, SuccessPassesThroughUntouched) {
  sim::Simulator s;
  ScriptedStack inner(s);
  ResilientStack stack(s, inner);
  nvme::TimedCompletion tc = RunOne(s, stack);
  EXPECT_TRUE(tc.completion.ok());
  EXPECT_EQ(inner.submits(), 1u);
  EXPECT_EQ(stack.stats().commands, 1u);
  EXPECT_EQ(stack.stats().attempts, 1u);
  EXPECT_EQ(stack.stats().retries, 0u);
  EXPECT_EQ(tc.latency(), inner.service_time);
}

TEST(ResilientStack, RetryableErrorIsRetriedUntilSuccess) {
  sim::Simulator s;
  ScriptedStack inner(s);
  inner.script = {nvme::Status::kMediaReadError,
                  nvme::Status::kMediaReadError, nvme::Status::kSuccess};
  ResilientStack stack(s, inner, {.max_attempts = 4});
  nvme::TimedCompletion tc = RunOne(s, stack);
  EXPECT_TRUE(tc.completion.ok());
  EXPECT_EQ(inner.submits(), 3u);
  EXPECT_EQ(stack.stats().retries, 2u);
  EXPECT_EQ(stack.stats().recovered, 1u);
  EXPECT_EQ(stack.stats().retries_exhausted, 0u);
}

TEST(ResilientStack, BackoffGrowsExponentiallyInVirtualTime) {
  sim::Simulator s;
  ScriptedStack inner(s);
  inner.service_time = Microseconds(10);
  inner.script = {nvme::Status::kMediaReadError,
                  nvme::Status::kMediaReadError, nvme::Status::kSuccess};
  ResilientStack stack(s, inner,
                       {.max_attempts = 4,
                        .backoff = Microseconds(100),
                        .backoff_multiplier = 2.0});
  nvme::TimedCompletion tc = RunOne(s, stack);
  // 3 attempts x 10us service + 100us + 200us backoff.
  EXPECT_EQ(tc.latency(), Microseconds(3 * 10 + 100 + 200));
}

TEST(ResilientStack, TerminalErrorIsNotRetried) {
  sim::Simulator s;
  ScriptedStack inner(s);
  inner.script = {nvme::Status::kZoneIsFull};
  ResilientStack stack(s, inner, {.max_attempts = 8});
  nvme::TimedCompletion tc = RunOne(s, stack);
  EXPECT_EQ(tc.completion.status, nvme::Status::kZoneIsFull);
  EXPECT_EQ(inner.submits(), 1u);
  EXPECT_EQ(stack.stats().terminal_errors, 1u);
  EXPECT_EQ(stack.stats().retries, 0u);
}

TEST(ResilientStack, ExhaustedBudgetSurfacesTheLastError) {
  sim::Simulator s;
  ScriptedStack inner(s);
  inner.script = {nvme::Status::kMediaReadError};
  ResilientStack stack(s, inner,
                       {.max_attempts = 3, .backoff = Microseconds(1)});
  nvme::TimedCompletion tc = RunOne(s, stack);
  EXPECT_EQ(tc.completion.status, nvme::Status::kMediaReadError);
  EXPECT_EQ(inner.submits(), 3u);
  EXPECT_EQ(stack.stats().retries, 2u);
  EXPECT_EQ(stack.stats().retries_exhausted, 1u);
  EXPECT_EQ(stack.stats().recovered, 0u);
}

TEST(ResilientStack, SingleAttemptPolicyObservesRawErrors) {
  sim::Simulator s;
  ScriptedStack inner(s);
  inner.script = {nvme::Status::kMediaReadError};
  ResilientStack stack(s, inner, {.max_attempts = 1});
  nvme::TimedCompletion tc = RunOne(s, stack);
  EXPECT_EQ(tc.completion.status, nvme::Status::kMediaReadError);
  EXPECT_EQ(inner.submits(), 1u);
  EXPECT_EQ(stack.stats().retries, 0u);
  EXPECT_EQ(stack.stats().retries_exhausted, 1u);
}

TEST(ResilientStack, SlowAttemptsTimeOutAndExhaustTheBudget) {
  sim::Simulator s;
  ScriptedStack inner(s);
  // Every attempt takes 1ms against a 100us per-attempt timeout.
  inner.service_time = sim::Milliseconds(1);
  inner.script = {nvme::Status::kSuccess};
  ResilientStack stack(s, inner,
                       {.max_attempts = 2,
                        .backoff = Microseconds(10),
                        .timeout = Microseconds(100)});
  nvme::TimedCompletion tc = RunOne(s, stack);
  // Both attempts outlive the timeout: the caller sees kHostTimeout.
  EXPECT_EQ(tc.completion.status, nvme::Status::kHostTimeout);
  EXPECT_EQ(stack.stats().timeouts, 2u);
  EXPECT_EQ(stack.stats().retries, 1u);
  EXPECT_EQ(stack.stats().retries_exhausted, 1u);
  // The timed-out attempts were NOT cancelled: the device still saw both.
  EXPECT_EQ(inner.submits(), 2u);
  // Caller-observed latency = 2 timeouts + 1 backoff, NOT device time.
  EXPECT_EQ(tc.latency(), Microseconds(100 + 10 + 100));
}

TEST(ResilientStack, FastAttemptBeatsTheTimeout) {
  sim::Simulator s;
  ScriptedStack inner(s);
  inner.service_time = Microseconds(10);
  ResilientStack stack(s, inner,
                       {.max_attempts = 4, .timeout = Microseconds(100)});
  nvme::TimedCompletion tc = RunOne(s, stack);
  EXPECT_TRUE(tc.completion.ok());
  EXPECT_EQ(stack.stats().timeouts, 0u);
  EXPECT_EQ(tc.latency(), Microseconds(10));
}

/// Inner stack whose first attempt takes 1ms and every later one 10us;
/// attempt n of a tag read-back writes `1000 * n + i` for LBA i.
class SlowFirstReadBackStack : public Stack {
 public:
  explicit SlowFirstReadBackStack(sim::Simulator& s) : sim_(s) {
    info_.capacity_lbas = 1 << 20;
  }

  sim::Task<nvme::TimedCompletion> Submit(nvme::Command cmd) override {
    const std::uint64_t n = ++submits_;
    nvme::TimedCompletion tc;
    tc.submitted = sim_.now();
    co_await sim_.Delay(n == 1 ? sim::Milliseconds(1) : Microseconds(10));
    tc.completed = sim_.now();
    auto* tags = static_cast<std::uint64_t*>(cmd.data);
    for (std::uint32_t i = 0; i < cmd.nlb; ++i) tags[i] = 1000 * n + i;
    tc.completion.count = cmd.nlb;
    co_return tc;
  }

  const nvme::NamespaceInfo& info() const override { return info_; }

 private:
  sim::Simulator& sim_;
  nvme::NamespaceInfo info_;
  std::uint64_t submits_ = 0;
};

// A timed-out attempt keeps running on the device. Its read-back lands
// in the attempt's own buffer, never in the caller's, which by then
// holds the retry's tags (and might be gone).
TEST(ResilientStack, LateReadBackOfATimedOutAttemptNeverReachesTheCaller) {
  sim::Simulator s;
  SlowFirstReadBackStack inner(s);
  ResilientStack stack(s, inner,
                       {.max_attempts = 2, .timeout = Microseconds(100)});
  std::uint64_t tags[4] = {};
  nvme::TimedCompletion tc;
  auto body = [&]() -> sim::Task<> {
    tc = co_await stack.Submit({.opcode = nvme::Opcode::kRead,
                                .nlb = 4,
                                .payload_tag = 1,
                                .data = tags});
  };
  auto t = body();
  s.Run();  // past the first attempt's late completion
  ASSERT_TRUE(tc.completion.ok());
  EXPECT_EQ(stack.stats().timeouts, 1u);
  EXPECT_EQ(tc.completion.count, 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(tags[i], 2000 + i);
}

TEST(ResilientStack, DeviceResetIsAbsorbedByRetry) {
  sim::Simulator s;
  ScriptedStack inner(s);
  inner.script = {nvme::Status::kDeviceReset, nvme::Status::kDeviceReset,
                  nvme::Status::kSuccess};
  ResilientStack stack(s, inner,
                       {.max_attempts = 4, .backoff = Microseconds(50)});
  nvme::TimedCompletion tc = RunOne(s, stack);
  EXPECT_TRUE(tc.completion.ok());
  EXPECT_EQ(stack.stats().device_resets_seen, 2u);
  EXPECT_EQ(stack.stats().recovered, 1u);
  // A read carries no dedupe hazard: no replay settles, plain re-drives.
  EXPECT_EQ(stack.stats().replayed_dupes, 0u);
}

/// Zoned fake for the append-replay path: appends follow the script (a
/// successful append lands at the tracked wp), and ZoneMgmtRecv reports
/// `recovered_wp` — the write pointer the device rediscovered after the
/// power loss.
class ZonedScriptedStack : public Stack {
 public:
  explicit ZonedScriptedStack(sim::Simulator& s) : sim_(s) {
    info_.capacity_lbas = 1 << 20;
    info_.zoned = true;
    info_.zone_size_lbas = 1024;
    info_.zone_cap_lbas = 1024;
    info_.num_zones = 1024;
  }

  sim::Task<nvme::TimedCompletion> Submit(nvme::Command cmd) override {
    nvme::TimedCompletion tc;
    tc.submitted = sim_.now();
    tc.trace_id = cmd.trace_id;
    co_await sim_.Delay(Microseconds(10));
    tc.completed = sim_.now();
    if (cmd.opcode == nvme::Opcode::kZoneMgmtRecv) {
      reports_++;
      tc.completion.status = nvme::Status::kSuccess;
      *static_cast<nvme::ZoneDescriptor*>(cmd.data) = {
          .zslba = cmd.slba, .write_pointer = recovered_wp};
      tc.completion.count = 1;
      co_return tc;
    }
    if (cmd.opcode == nvme::Opcode::kZoneMgmtSend) {
      tc.completion.status = nvme::Status::kSuccess;
      co_return tc;
    }
    appends_++;
    tc.completion.status = NextStatus();
    if (tc.completion.ok()) {
      tc.completion.result_lba = wp;
      wp += cmd.nlb;
    }
    co_return tc;
  }

  const nvme::NamespaceInfo& info() const override { return info_; }

  /// Per-append statuses. The cursor survives reassignment, so a script
  /// set mid-test lists the FULL append history from the start.
  std::vector<nvme::Status> script{nvme::Status::kSuccess};
  nvme::Lba wp = 0;            // where the next successful append lands
  nvme::Lba recovered_wp = 0;  // what a zone report claims after recovery
  std::uint64_t appends() const { return appends_; }
  std::uint64_t reports() const { return reports_; }

 private:
  nvme::Status NextStatus() {
    if (next_ < script.size()) return script[next_++];
    return script.back();
  }

  sim::Simulator& sim_;
  nvme::NamespaceInfo info_;
  std::size_t next_ = 0;
  std::uint64_t appends_ = 0;
  std::uint64_t reports_ = 0;
};

nvme::TimedCompletion RunAppend(sim::Simulator& s, ResilientStack& stack,
                                std::uint32_t nlb = 4) {
  nvme::TimedCompletion out;
  auto body = [&]() -> sim::Task<> {
    out = co_await stack.Submit(
        {.opcode = nvme::Opcode::kAppend, .slba = 0, .nlb = nlb});
  };
  auto t = body();
  s.Run();
  return out;
}

TEST(ResilientStack, DurableAppendLostToACrashIsSettledNotReDriven) {
  sim::Simulator s;
  ZonedScriptedStack inner(s);
  ResilientStack stack(s, inner, {.max_attempts = 4});

  // Append 1 succeeds: the stack learns the zone's expected wp (4).
  ASSERT_TRUE(RunAppend(s, stack).completion.ok());
  // Append 2's completion is swallowed by a power loss — but the data
  // landed before the cut: the recovered wp already covers it.
  inner.script = {nvme::Status::kSuccess, nvme::Status::kDeviceReset};
  inner.wp = 8;  // the device durably holds both appends
  inner.recovered_wp = 8;
  nvme::TimedCompletion tc = RunAppend(s, stack);

  EXPECT_TRUE(tc.completion.ok());
  EXPECT_EQ(tc.completion.result_lba, 4u);  // settled at the expected LBA
  EXPECT_EQ(stack.stats().replayed_dupes, 1u);
  EXPECT_EQ(stack.stats().recovered, 1u);
  EXPECT_EQ(inner.appends(), 2u);  // never re-driven: no duplicate
  EXPECT_EQ(inner.reports(), 1u);  // one wp re-validation query
}

TEST(ResilientStack, VolatileAppendLostToACrashIsReDriven) {
  sim::Simulator s;
  ZonedScriptedStack inner(s);
  ResilientStack stack(s, inner,
                       {.max_attempts = 4, .backoff = Microseconds(10)});

  ASSERT_TRUE(RunAppend(s, stack).completion.ok());  // expected wp: 4
  // Append 2 dies in the outage AND its buffered data was rolled back:
  // the recovered wp is still 4, so the retry must re-drive it.
  inner.script = {nvme::Status::kSuccess, nvme::Status::kDeviceReset,
                  nvme::Status::kSuccess};
  inner.wp = 4;
  inner.recovered_wp = 4;
  nvme::TimedCompletion tc = RunAppend(s, stack);

  EXPECT_TRUE(tc.completion.ok());
  EXPECT_EQ(tc.completion.result_lba, 4u);  // the re-drive landed there
  EXPECT_EQ(stack.stats().replayed_dupes, 0u);
  EXPECT_EQ(stack.stats().retries, 1u);
  EXPECT_EQ(inner.appends(), 3u);  // initial + failed + re-drive
  EXPECT_EQ(inner.reports(), 1u);
}

TEST(ResilientStack, AppendReplayWithoutACachedWpFallsBackToRetry) {
  sim::Simulator s;
  ZonedScriptedStack inner(s);
  ResilientStack stack(s, inner,
                       {.max_attempts = 4, .backoff = Microseconds(10)});
  // No prior successful append: the wp cache is cold, so the stack
  // cannot prove durability and must re-drive.
  inner.script = {nvme::Status::kDeviceReset, nvme::Status::kSuccess};
  nvme::TimedCompletion tc = RunAppend(s, stack);

  EXPECT_TRUE(tc.completion.ok());
  EXPECT_EQ(stack.stats().replayed_dupes, 0u);
  EXPECT_EQ(inner.reports(), 0u);  // nothing to validate against
  EXPECT_EQ(inner.appends(), 2u);
}

TEST(ResilientStack, ZoneResetReseedsTheWpCache) {
  sim::Simulator s;
  ZonedScriptedStack inner(s);
  ResilientStack stack(s, inner, {.max_attempts = 4});
  ASSERT_TRUE(RunAppend(s, stack).completion.ok());  // expected wp: 4

  // A zone reset moves the expectation back to the zone start.
  auto body = [&]() -> sim::Task<> {
    co_await stack.Submit({.opcode = nvme::Opcode::kZoneMgmtSend,
                           .slba = 0,
                           .zone_action = nvme::ZoneAction::kReset});
  };
  auto t = body();
  s.Run();

  // Post-reset append dies in a crash; the device holds it (wp 0 -> 4).
  inner.script = {nvme::Status::kDeviceReset};
  inner.wp = 4;
  inner.recovered_wp = 4;
  nvme::TimedCompletion tc = RunAppend(s, stack);
  EXPECT_TRUE(tc.completion.ok());
  EXPECT_EQ(tc.completion.result_lba, 0u);  // settled at the reseeded wp
  EXPECT_EQ(stack.stats().replayed_dupes, 1u);
}

TEST(ResilientStack, CountsAccumulateAcrossCommands) {
  sim::Simulator s;
  ScriptedStack inner(s);
  inner.script = {nvme::Status::kMediaReadError, nvme::Status::kSuccess,
                  nvme::Status::kSuccess};
  ResilientStack stack(s, inner,
                       {.max_attempts = 2, .backoff = Microseconds(1)});
  (void)RunOne(s, stack);  // fail then recover: 2 attempts
  (void)RunOne(s, stack);  // clean: 1 attempt
  EXPECT_EQ(stack.stats().commands, 2u);
  EXPECT_EQ(stack.stats().attempts, 3u);
  EXPECT_EQ(stack.stats().recovered, 1u);
}

}  // namespace
}  // namespace zstor::hostif
