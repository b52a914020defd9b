// Token-bucket rate limiter, used to reproduce fio's bandwidth rate
// limiting (the paper rate-limits write bandwidth to 0/250/750/1155 MiB/s
// in §III-F). Tokens are abstract units — the workload engine uses bytes.
#pragma once

#include <coroutine>
#include <cstdint>

#include "sim/check.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace zstor::sim {

class TokenBucket {
 public:
  /// `rate_per_sec` tokens accrue per simulated second, up to `burst`.
  TokenBucket(Simulator& s, double rate_per_sec, double burst)
      : sim_(s), rate_(rate_per_sec), burst_(burst), level_(burst) {
    ZSTOR_CHECK(rate_per_sec > 0);
    ZSTOR_CHECK(burst > 0);
  }
  TokenBucket(const TokenBucket&) = delete;
  TokenBucket& operator=(const TokenBucket&) = delete;

  /// Queued with its token count: the pump reads `n` off the list.
  struct Awaiter : WaitNode {
    Awaiter(TokenBucket& bucket, double tokens) : b(bucket), n(tokens) {}
    TokenBucket& b;
    double n;
    bool await_ready() {
      if (!b.waiters_.empty()) return false;  // keep FIFO fairness
      b.Refill();
      if (b.level_ < n) return false;
      b.level_ -= n;
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) {
      b.waiters_.Push(*this, h);
      if (!b.pump_scheduled_) b.SchedulePump();
    }
    void await_resume() const noexcept {}
  };

  /// Suspends until `n` tokens are available, then consumes them.
  /// Requests larger than the burst size are served when the bucket is
  /// full; the resulting debt delays later requests (rate stays exact).
  Awaiter Take(double n) {
    ZSTOR_CHECK(n > 0);
    return Awaiter{*this, n};
  }

  double level() {
    Refill();
    return level_;
  }

 private:
  void Refill() {
    Time now = sim_.now();
    if (now == last_) return;
    level_ += rate_ * ToSeconds(now - last_);
    if (level_ > burst_) level_ = burst_;
    last_ = now;
  }

  void SchedulePump() {
    Refill();
    const Awaiter& w = waiters_.front();
    double need = w.n > burst_ ? burst_ : w.n;  // cap at achievable level
    double deficit = need - level_;
    Time wait = deficit <= 0 ? 0 : Seconds(deficit / rate_) + 1;
    pump_scheduled_ = true;
    sim_.ScheduleIn(wait, [this] { Pump(); });
  }

  void Pump() {
    pump_scheduled_ = false;
    Refill();
    while (!waiters_.empty()) {
      const Awaiter& w = waiters_.front();
      double need = w.n > burst_ ? burst_ : w.n;
      if (level_ < need) break;
      // Oversize requests (n > burst) leave the level negative: a debt that
      // delays later takers, preserving the long-run rate exactly.
      level_ -= w.n;
      waiters_.WakeOne(sim_);
    }
    if (!waiters_.empty()) SchedulePump();
  }

  Simulator& sim_;
  double rate_;
  double burst_;
  double level_;
  Time last_ = 0;
  bool pump_scheduled_ = false;
  WaitList<Awaiter> waiters_;
};

}  // namespace zstor::sim
