// ResilientStack: host-side error handling wrapped around any Stack.
//
// Real deployments do not hand raw NVMe completions to the application —
// the kernel (and SPDK's bdev layer) retries transient media errors,
// enforces per-command timeouts, and only surfaces an error once the
// retry budget is spent or the failure is clearly permanent. This
// decorator reproduces that layer in virtual time:
//
//   * classification — Classify() splits statuses into retryable
//     (uncorrectable reads, internal errors, host timeouts: a re-issued
//     command may succeed) and terminal (validation failures and
//     state-machine rejections: re-issuing the same command cannot help;
//     kWriteFault is terminal because the data is gone and the zone is
//     degraded — recovery is a rewrite elsewhere, a caller decision);
//   * retry policy — up to max_attempts issues of the same command with
//     exponential backoff in virtual time between attempts;
//   * per-attempt timeout — an attempt that outlives `timeout` fails with
//     kHostTimeout and is re-issued. The timed-out attempt is NOT
//     cancelled (commands in flight cannot be revoked from a real device
//     either); its eventual completion is dropped, and the retry can
//     therefore duplicate device work — exactly the hazard real timeout
//     handling has. Each timed attempt is one spawned frame that races
//     the completion against a watchdog event (RaceAttempt).
//   * controller-reset replay (DESIGN.md §11) — kDeviceReset means a
//     power loss interrupted the command and the device recovered with
//     some prefix of its effects durable. For zone appends the blind
//     re-issue would be wrong twice over: if the append actually landed
//     before the cut, retrying duplicates it. The stack therefore keeps a
//     per-zone expected-write-pointer cache (valid under the one
//     in-flight-append-per-zone discipline the crash benches follow)
//     and, before retrying, re-reads the zone's recovered write
//     pointer: if it already advanced past the append, the attempt is
//     settled as a success at the remembered LBA (`replayed_dupes`)
//     instead of being re-driven.
//
// All attempts share one trace id, so a traced command shows its full
// retry history: per-failed-attempt "host.retry" spans, "host.timeout"
// instants, and a "host.error" instant when the surfaced completion is an
// error (ztrace derives per-op-class retry counts and error rates from
// these). ResilienceStats speaks the shared Describe protocol under the
// "hostif." prefix.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hostif/stack.h"
#include "nvme/types.h"
#include "sim/check.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "telemetry/telemetry.h"

namespace zstor::hostif {

/// How hard the host fights before surfacing an error to the caller.
struct RetryPolicy {
  /// Total issues of the command, including the first (>= 1).
  std::uint32_t max_attempts = 4;
  /// Virtual-time delay before the first re-issue...
  sim::Time backoff = sim::Microseconds(50);
  /// ...multiplied by this after every failed attempt.
  double backoff_multiplier = 2.0;
  /// Per-attempt timeout; 0 disables. Attempts that exceed it complete
  /// host-side with kHostTimeout and count as retryable.
  sim::Time timeout = 0;
};

enum class ErrorClass : std::uint8_t { kSuccess, kRetryable, kTerminal };

constexpr std::string_view ToString(ErrorClass c) {
  switch (c) {
    case ErrorClass::kSuccess: return "success";
    case ErrorClass::kRetryable: return "retryable";
    case ErrorClass::kTerminal: return "terminal";
  }
  return "unknown";
}

/// The host's triage of a completion status (see file comment).
constexpr ErrorClass Classify(nvme::Status s) {
  switch (s) {
    case nvme::Status::kSuccess:
      return ErrorClass::kSuccess;
    case nvme::Status::kMediaReadError:
    case nvme::Status::kInternalError:
    case nvme::Status::kHostTimeout:
    case nvme::Status::kDeviceReset:  // power-loss outage: device comes back
      return ErrorClass::kRetryable;
    default:
      return ErrorClass::kTerminal;
  }
}

struct ResilienceStats {
  std::uint64_t commands = 0;         // Submit() calls
  std::uint64_t attempts = 0;         // device issues (>= commands)
  std::uint64_t retries = 0;          // re-issues after a retryable error
  std::uint64_t timeouts = 0;         // attempts failed by the timeout
  std::uint64_t recovered = 0;        // commands that failed, then succeeded
  std::uint64_t terminal_errors = 0;  // gave up: terminal status
  std::uint64_t retries_exhausted = 0;  // gave up: attempt budget spent
  std::uint64_t device_resets_seen = 0;  // kDeviceReset completions observed
  std::uint64_t replayed_dupes = 0;   // appends settled by wp re-validation

  /// Every counter under the "hostif." prefix (the field-table protocol;
  /// see telemetry/metrics.h).
  static constexpr telemetry::CounterField<ResilienceStats> kFields[] = {
      {"hostif.commands", &ResilienceStats::commands},
      {"hostif.attempts", &ResilienceStats::attempts},
      {"hostif.retries", &ResilienceStats::retries},
      {"hostif.timeouts", &ResilienceStats::timeouts},
      {"hostif.recovered", &ResilienceStats::recovered},
      {"hostif.terminal_errors", &ResilienceStats::terminal_errors},
      {"hostif.retries_exhausted", &ResilienceStats::retries_exhausted},
      {"hostif.device_resets_seen", &ResilienceStats::device_resets_seen},
      {"hostif.replayed_dupes", &ResilienceStats::replayed_dupes},
  };

  void Describe(telemetry::MetricsRegistry& m) const {
    telemetry::SetFields(*this, m);
  }
};
static_assert(telemetry::ListsEveryFieldOnce<ResilienceStats>());

class ResilientStack : public Stack {
 public:
  ResilientStack(sim::Simulator& s, Stack& inner, RetryPolicy policy = {})
      : sim_(s), inner_(inner), policy_(policy) {
    ZSTOR_CHECK_MSG(policy_.max_attempts >= 1,
                    "RetryPolicy needs at least one attempt");
    ZSTOR_CHECK(policy_.backoff_multiplier >= 1.0);
  }

  sim::Task<nvme::TimedCompletion> Submit(nvme::Command cmd) override {
    telemetry::Tracer* tr = trace();
    if (tr != nullptr && cmd.trace_id == 0) {
      // One id for the whole command: every attempt's device spans and the
      // retry spans below correlate under it.
      cmd.trace_id = tr->NextId();
    }
    const sim::Time start = sim_.now();
    stats_.commands++;
    sim::Time backoff = policy_.backoff;
    nvme::TimedCompletion tc;
    std::uint32_t attempt = 1;
    for (;; ++attempt) {
      stats_.attempts++;
      const sim::Time attempt_begin = sim_.now();
      if (policy_.timeout == 0) {
        tc = co_await inner_.Submit(cmd);
      } else {
        Outcome out(sim_);
        sim::Spawn(RaceAttempt(cmd, &out));
        co_await out.done.Wait();
        tc = out.tc;
        if (out.timed_out) {
          stats_.timeouts++;
          if (tr != nullptr) {
            tr->Instant(sim_.now(), cmd.trace_id, telemetry::Layer::kHost,
                        "host.timeout", static_cast<std::int64_t>(attempt),
                        static_cast<std::int64_t>(policy_.timeout));
          }
        }
      }
      const ErrorClass cls = Classify(tc.completion.status);
      if (cls == ErrorClass::kSuccess) {
        if (attempt > 1) stats_.recovered++;
        break;
      }
      if (cls == ErrorClass::kTerminal) {
        stats_.terminal_errors++;
        break;
      }
      if (tc.completion.status == nvme::Status::kDeviceReset) {
        stats_.device_resets_seen++;
        if (tr != nullptr) {
          tr->Instant(sim_.now(), cmd.trace_id, telemetry::Layer::kHost,
                      "host.reset", static_cast<std::int64_t>(attempt));
        }
        if (cmd.opcode == nvme::Opcode::kAppend) {
          std::optional<nvme::Lba> landed = co_await TryAppendReplay(cmd);
          if (landed.has_value()) {
            // The lost append is already durable at the expected LBA:
            // settle it instead of re-driving a duplicate.
            stats_.replayed_dupes++;
            stats_.recovered++;
            tc.completion.status = nvme::Status::kSuccess;
            tc.completion.result_lba = *landed;
            if (tr != nullptr) {
              tr->Instant(sim_.now(), cmd.trace_id, telemetry::Layer::kHost,
                          "host.replay_dupe",
                          static_cast<std::int64_t>(*landed),
                          static_cast<std::int64_t>(cmd.nlb));
            }
            break;
          }
        }
      }
      if (attempt >= policy_.max_attempts) {
        stats_.retries_exhausted++;
        break;
      }
      stats_.retries++;
      if (tr != nullptr) {
        // One span per spent (about-to-be-retried) attempt; ztrace counts
        // these to report per-command retry totals.
        tr->Span(attempt_begin, sim_.now(), cmd.trace_id,
                 telemetry::Layer::kHost, "host.retry",
                 static_cast<std::int64_t>(attempt),
                 static_cast<std::int64_t>(tc.completion.status));
      }
      if (backoff > 0) {
        co_await sim_.Delay(backoff);
        backoff = static_cast<sim::Time>(static_cast<double>(backoff) *
                                         policy_.backoff_multiplier);
      }
    }
    if (tr != nullptr && !tc.completion.ok()) {
      // Terminal or budget-exhausted: the error reached the caller.
      // ztrace uses these instants for per-op-class error rates.
      tr->Instant(sim_.now(), cmd.trace_id, telemetry::Layer::kHost,
                  "host.error",
                  static_cast<std::int64_t>(tc.completion.status),
                  static_cast<std::int64_t>(attempt));
    }
    if (tc.completion.ok()) NoteSuccess(cmd, tc.completion);
    // The caller-observed window covers every attempt and backoff.
    tc.trace_id = cmd.trace_id;
    tc.submitted = start;
    tc.completed = sim_.now();
    co_return tc;
  }

  const nvme::NamespaceInfo& info() const override { return inner_.info(); }

  void AttachTelemetry(telemetry::Telemetry* t) override {
    telem_ = t;
    inner_.AttachTelemetry(t);
  }

  const RetryPolicy& policy() const { return policy_; }
  const ResilienceStats& stats() const { return stats_; }

 private:
  /// Where a timed attempt reports its outcome: lives in the waiting
  /// Submit frame, which the attempt touches only until it settles.
  struct Outcome {
    explicit Outcome(sim::Simulator& s) : done(s) { done.Add(); }
    nvme::TimedCompletion tc;
    bool timed_out = false;
    sim::WaitGroup done;
  };

  /// The race between the device completion and the watchdog, held in
  /// this one frame: whichever fires first settles `out`. The frame ends
  /// only after both have fired, since the watchdog event points into
  /// it; a completion that lost the race is dropped here. So is its data:
  /// a read-back or report lands in a buffer of this frame and is copied
  /// into the caller's only when the device wins, since the caller may
  /// have retried or returned by the time a timed-out attempt completes.
  sim::Task<> RaceAttempt(nvme::Command cmd, Outcome* out) {
    void* const dest = cmd.data;
    const DataShape shape = dest != nullptr ? ShapeOf(cmd) : DataShape{};
    std::vector<std::byte> bounce(shape.entry_bytes * shape.max_entries);
    if (!bounce.empty()) cmd.data = bounce.data();
    struct Race {
      Outcome* out;  // the waiter's; null once settled
      bool watchdog_fired = false;
      std::coroutine_handle<> parked;  // this frame, once the device is done
      bool await_ready() const noexcept { return watchdog_fired; }
      void await_suspend(std::coroutine_handle<> h) noexcept { parked = h; }
      void await_resume() const noexcept {}
    } race{out};
    sim::Task<nvme::TimedCompletion> device = inner_.Submit(cmd);
    // Armed after the attempt has scheduled its first events, so a tie
    // at the same instant goes to those.
    sim_.ScheduleIn(policy_.timeout, [&race] {
      race.watchdog_fired = true;
      if (Outcome* o = std::exchange(race.out, nullptr)) {
        o->timed_out = true;
        o->tc.completion.status = nvme::Status::kHostTimeout;
        o->done.Done();
      }
      if (race.parked) race.parked.resume();
    });
    nvme::TimedCompletion tc = co_await device;
    if (Outcome* o = std::exchange(race.out, nullptr)) {
      if (!bounce.empty() && tc.completion.ok()) {
        std::memcpy(dest, bounce.data(),
                    std::size_t{tc.completion.count} * shape.entry_bytes);
      }
      o->tc = tc;
      o->done.Done();
    }
    co_await race;  // until the watchdog has fired
  }

  /// What a device may write into `cmd.data`: `nlb` tags for a tag
  /// read-back, up to `report_max` (0 = all) zone descriptors for a
  /// report, nothing for any other command.
  struct DataShape {
    std::size_t entry_bytes = 0;
    std::size_t max_entries = 0;
  };
  DataShape ShapeOf(const nvme::Command& cmd) const {
    if (cmd.opcode == nvme::Opcode::kRead && cmd.payload_tag != 0) {
      return {sizeof(std::uint64_t), cmd.nlb};
    }
    if (cmd.opcode == nvme::Opcode::kZoneMgmtRecv) {
      const std::uint32_t zones = inner_.info().num_zones;
      return {sizeof(nvme::ZoneDescriptor),
              cmd.report_max == 0 ? zones : std::min(cmd.report_max, zones)};
    }
    return {};
  }

  /// Keeps the per-zone expected write pointer current. Appends teach it
  /// the next landing LBA; resets re-seed it at the zone start; finishes
  /// drop it (a finished zone takes no appends to dedupe).
  void NoteSuccess(const nvme::Command& cmd, const nvme::Completion& c) {
    const nvme::NamespaceInfo& ni = inner_.info();
    if (!ni.zoned || ni.zone_size_lbas == 0) return;
    if (cmd.opcode == nvme::Opcode::kAppend) {
      zone_wp_cache_[cmd.slba / ni.zone_size_lbas] =
          c.result_lba + cmd.nlb;
    } else if (cmd.opcode == nvme::Opcode::kZoneMgmtSend) {
      if (cmd.select_all) {
        zone_wp_cache_.clear();
      } else if (cmd.zone_action == nvme::ZoneAction::kReset) {
        zone_wp_cache_[cmd.slba / ni.zone_size_lbas] = cmd.slba;
      } else if (cmd.zone_action == nvme::ZoneAction::kFinish) {
        zone_wp_cache_.erase(cmd.slba / ni.zone_size_lbas);
      }
    }
  }

  /// After a kDeviceReset on an append: asks the recovered device for the
  /// zone's write pointer. Returns the landing LBA if the lost append is
  /// provably durable (wp advanced exactly past it), nullopt otherwise.
  /// Sound only while the caller keeps at most one append in flight per
  /// zone — the discipline the crash benches follow.
  sim::Task<std::optional<nvme::Lba>> TryAppendReplay(nvme::Command cmd) {
    const nvme::NamespaceInfo& ni = inner_.info();
    if (!ni.zoned || ni.zone_size_lbas == 0) co_return std::nullopt;
    auto it = zone_wp_cache_.find(cmd.slba / ni.zone_size_lbas);
    if (it == zone_wp_cache_.end()) co_return std::nullopt;
    const nvme::Lba expect = it->second;
    nvme::ZoneDescriptor zone;
    nvme::Command q;
    q.opcode = nvme::Opcode::kZoneMgmtRecv;
    q.slba = cmd.slba;
    q.report_max = 1;
    q.trace_id = cmd.trace_id;
    q.data = &zone;
    for (std::uint32_t i = 0; i < policy_.max_attempts; ++i) {
      nvme::TimedCompletion rtc = co_await inner_.Submit(q);
      if (rtc.completion.ok() && rtc.completion.count != 0) {
        const nvme::Lba wp = zone.write_pointer;
        it->second = wp;  // resync to the recovered truth
        if (wp == expect + cmd.nlb) co_return expect;
        co_return std::nullopt;  // lost (or torn): safe to re-drive
      }
      if (Classify(rtc.completion.status) == ErrorClass::kTerminal) break;
      if (policy_.backoff > 0) co_await sim_.Delay(policy_.backoff);
    }
    co_return std::nullopt;
  }

  sim::Simulator& sim_;
  Stack& inner_;
  RetryPolicy policy_;
  ResilienceStats stats_;
  /// Zone index -> expected write pointer after the last settled append.
  std::unordered_map<std::uint64_t, nvme::Lba> zone_wp_cache_;
};

}  // namespace zstor::hostif
