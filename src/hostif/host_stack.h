// The host stack: one Submit path for every StackChoice.
//
// The paper's stacks (§III-A, plus the psync path of its storage-API
// references [14], [82]) differ only in a constant per-command host cost
// and in whether an I/O scheduler sits in front of the queue pair
// (Obs. 2). So one class implements the path and each kind only picks
// its calibrated costs and a scheduler. The queue pair, the last step,
// bounds the commands in flight at the device (the experiment variable
// "queue depth", QD) over §III-B's window: "from the moment a request is
// submitted on the NVMe submission queue until a request is completed
// and visible on the completion queue".
//
//   * SpdkStack — polled userspace queue pairs, no scheduler, lowest
//     overhead. Calibrated so a 4 KiB write lands at the paper's
//     11.36 us (device-internal 10.35 us + ~1.01 us host). One in-flight
//     write per zone is the caller's problem.
//   * KernelStack — io_uring with submission-queue polling, with either
//     no scheduler or mq-deadline.
//   * PsyncStack — blocking pread/pwrite, the slowest option: each
//     operation pays a full syscall round trip and the kernel block
//     layer, so concurrency needs more workers.
//
// mq-deadline semantics for zoned writes (as in the Linux block layer):
// writes to a zone are staged per zone, contiguous staged writes are
// merged into one larger request, and a zone has at most one write in
// flight — which both preserves the sequential-write rule and produces
// the dramatic intra-zone write throughput of Obs. 7 (merged 4 KiB
// writes reach the device's bandwidth limit instead of its per-command
// rate).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "hostif/stack.h"
#include "nvme/controller.h"
#include "nvme/types.h"
#include "sim/check.h"
#include "sim/simulator.h"
#include "sim/sync.h"

namespace zstor::hostif {

enum class Scheduler { kNone, kMqDeadline };

struct SchedulerStats {
  std::uint64_t staged_writes = 0;     // writes that entered the scheduler
  std::uint64_t dispatched_writes = 0; // requests sent to the device
  std::uint64_t merged_writes = 0;     // writes coalesced into another
  double MergedFraction() const {
    return staged_writes == 0
               ? 0.0
               : static_cast<double>(merged_writes) /
                     static_cast<double>(staged_writes);
  }

  /// Every counter under the "sched." prefix (the field-table protocol;
  /// see telemetry/metrics.h).
  static constexpr telemetry::CounterField<SchedulerStats> kFields[] = {
      {"sched.staged_writes", &SchedulerStats::staged_writes},
      {"sched.dispatched_writes", &SchedulerStats::dispatched_writes},
      {"sched.merged_writes", &SchedulerStats::merged_writes},
  };

  void Describe(telemetry::MetricsRegistry& m) const {
    telemetry::SetFields(*this, m);
    m.GetGauge("sched.merged_fraction").Set(MergedFraction());
  }
};
static_assert(telemetry::ListsEveryFieldOnce<SchedulerStats>());

class HostStack : public Stack {
 public:
  sim::Task<nvme::TimedCompletion> Submit(nvme::Command cmd) override {
    telemetry::Tracer* tr = trace();
    if (tr != nullptr && cmd.trace_id == 0) {
      cmd.trace_id = tr->NextId();
    }
    sim::Time start = sim_.now();
    // Syscall entry / SQ write (and the scheduler) on the way down...
    sim::Time overhead =
        costs_.submit +
        (sched_ == Scheduler::kMqDeadline ? scheduler_cost_ : 0);
    co_await sim_.Delay(overhead);
    if (tr != nullptr) {
      tr->Span(start, sim_.now(), cmd.trace_id, telemetry::Layer::kHost,
               "host.submit", static_cast<std::int64_t>(cmd.opcode),
               static_cast<std::int64_t>(cmd.nlb));
    }
    nvme::TimedCompletion tc = co_await Issue(cmd);
    // ...and the completion path (interrupt or poll) on the way up.
    sim::Time device_done = sim_.now();
    co_await sim_.Delay(costs_.complete);
    tc.submitted = start;
    tc.completed = sim_.now();
    if (tr != nullptr) {
      tr->Span(device_done, tc.completed, cmd.trace_id,
               telemetry::Layer::kHost, "host.complete");
      telem_->metrics().GetHistogram("host.latency_ns").Record(tc.latency());
    }
    co_return tc;
  }

  const nvme::NamespaceInfo& info() const override { return ctrl_.info(); }

  void AttachTelemetry(telemetry::Telemetry* t) override { telem_ = t; }

 protected:
  HostStack(sim::Simulator& s, nvme::Controller& ctrl, Scheduler sched,
            HostCosts costs, const StackOptions& o)
      : sim_(s),
        ctrl_(ctrl),
        qp_depth_(o.qp_depth),
        qp_slots_(s, o.qp_depth),
        sched_(sched),
        costs_(costs),
        scheduler_cost_(o.scheduler_cost),
        max_merge_bytes_(o.max_merge_bytes) {
    ZSTOR_CHECK(qp_depth_ > 0);
    if (sched_ == Scheduler::kMqDeadline && info().zoned) {
      zones_.resize(info().num_zones);
    }
  }

  const SchedulerStats& scheduler_stats() const { return sched_stats_; }
  /// Commands holding a queue-pair slot right now.
  std::uint64_t queue_in_flight() const {
    return qp_depth_ - qp_slots_.available();
  }

 private:
  /// One staged write. Owned by the coroutine frame of the waiter in
  /// StageZonedWrite — it outlives every queue/batch reference because the
  /// waiter only returns after `done` fires. `next` chains it first into
  /// its zone's staged queue, then into the batch it was merged into.
  struct Request {
    nvme::Command cmd;
    nvme::Completion completion;
    sim::WaitGroup done;
    Request* next = nullptr;
    explicit Request(sim::Simulator& s, nvme::Command c)
        : cmd(c), done(s) { done.Add(); }
  };

  struct ZoneQueue {
    Request* head = nullptr;  // staged, in arrival order
    Request* tail = nullptr;
    bool in_flight = false;
  };

  std::uint32_t ZoneOf(nvme::Lba lba) const {
    return static_cast<std::uint32_t>(lba / info().zone_size_lbas);
  }

  /// Zone `zid`'s staging queue. A zone past the last one (its writes
  /// fail at the device) takes an entry in a short side list, so a wild
  /// LBA costs one queue, not a vector reaching it.
  ZoneQueue& Zone(std::uint32_t zid) {
    if (zid < zones_.size()) [[likely]] return zones_[zid];
    for (auto& [id, zq] : stray_zones_) {
      if (id == zid) return zq;
    }
    return stray_zones_.emplace_back(zid, ZoneQueue{}).second;
  }

  /// The device round trip: through mq-deadline's staging for zoned
  /// writes, straight to the queue pair otherwise. Returning the started
  /// task lets Submit initialise its completion in place (the per-command
  /// move-assignment measurably slowed SPDK-only runs); writing the choice
  /// as ?: between two co_awaits instead makes GCC destroy the awaited
  /// temporaries twice.
  sim::Task<nvme::TimedCompletion> Issue(const nvme::Command& cmd) {
    if (sched_ == Scheduler::kMqDeadline &&
        cmd.opcode == nvme::Opcode::kWrite && info().zoned) {
      return StageZonedWrite(cmd);
    }
    return QueueRoundTrip(cmd);
  }

  /// The queue pair: waits for one of the qp_depth slots (qp.wait is
  /// zero-length whenever one was free), rings the doorbell and holds the
  /// slot until the controller posts the completion. Submit stamps the
  /// host-observed times.
  sim::Task<nvme::TimedCompletion> QueueRoundTrip(nvme::Command cmd) {
    telemetry::Tracer* tr = trace();
    const sim::Time enqueued = sim_.now();
    co_await qp_slots_.Acquire();
    if (tr != nullptr) {
      tr->Span(enqueued, sim_.now(), cmd.trace_id, telemetry::Layer::kQueue,
               "qp.wait");
      tr->Instant(sim_.now(), cmd.trace_id, telemetry::Layer::kQueue,
                  "qp.doorbell", static_cast<std::int64_t>(cmd.opcode),
                  static_cast<std::int64_t>(cmd.nlb));
      telem_->metrics().GetGauge("qp.inflight").Set(
          static_cast<double>(queue_in_flight()));
    }
    nvme::TimedCompletion out;
    out.trace_id = cmd.trace_id;
    out.completion = co_await ctrl_.Execute(cmd);
    if (tr != nullptr) {
      tr->Instant(sim_.now(), cmd.trace_id, telemetry::Layer::kQueue,
                  "qp.cqe",
                  static_cast<std::int64_t>(out.completion.status));
      telem_->metrics().GetCounter("qp.completions").Add();
      telem_->metrics().GetGauge("qp.inflight").Set(
          static_cast<double>(queue_in_flight()) - 1.0);
    }
    qp_slots_.Release();
    co_return out;
  }

  sim::Task<nvme::TimedCompletion> StageZonedWrite(nvme::Command cmd) {
    std::uint32_t zid = ZoneOf(cmd.slba);
    sim::Time staged_at = sim_.now();
    Request req(sim_, cmd);  // lives in this coroutine frame
    ZoneQueue& zq = Zone(zid);
    (zq.tail != nullptr ? zq.tail->next : zq.head) = &req;
    zq.tail = &req;
    sched_stats_.staged_writes++;
    MaybeDispatch(zid);
    co_await req.done.Wait();
    if (telemetry::Tracer* tr = trace(); tr != nullptr) {
      // The whole scheduler round trip: staging, possibly merging into a
      // neighbor's request, device service of the dispatched batch.
      tr->Span(staged_at, sim_.now(), cmd.trace_id, telemetry::Layer::kHost,
               "sched.wait", static_cast<std::int64_t>(zid));
    }
    co_return nvme::TimedCompletion{.completion = req.completion,
                                    .trace_id = cmd.trace_id};
  }

  void MaybeDispatch(std::uint32_t zid) {
    ZoneQueue& zq = Zone(zid);
    if (zq.in_flight || zq.head == nullptr) return;
    // Merge the longest contiguous run from the head, bounded by the
    // block layer's maximum request size: the batch is that prefix of
    // the staged chain, cut off behind its last request.
    Request* first = zq.head;
    Request* last = first;
    const std::uint32_t lba_bytes = info().format.lba_bytes;
    nvme::Lba end = first->cmd.slba + first->cmd.nlb;
    std::uint64_t bytes =
        static_cast<std::uint64_t>(first->cmd.nlb) * lba_bytes;
    for (Request* next = last->next; next != nullptr; next = last->next) {
      std::uint64_t next_bytes =
          static_cast<std::uint64_t>(next->cmd.nlb) * lba_bytes;
      if (next->cmd.slba != end || bytes + next_bytes > max_merge_bytes_) {
        break;
      }
      end += next->cmd.nlb;
      bytes += next_bytes;
      sched_stats_.merged_writes++;
      last = next;
    }
    zq.head = std::exchange(last->next, nullptr);
    if (zq.head == nullptr) zq.tail = nullptr;
    zq.in_flight = true;
    sched_stats_.dispatched_writes++;
    sim::Spawn(DispatchBatch(zid, first));
  }

  sim::Task<> DispatchBatch(std::uint32_t zid, Request* batch) {
    nvme::Command merged = batch->cmd;
    std::uint32_t nlb = 0;
    std::int64_t requests = 0;
    for (const Request* r = batch; r != nullptr; r = r->next) {
      nlb += r->cmd.nlb;
      ++requests;
    }
    merged.nlb = nlb;
    if (telemetry::Tracer* tr = trace(); tr != nullptr) {
      // The merged request is a new device-visible command; give it its
      // own id so device spans aren't misattributed to the head write.
      merged.trace_id = tr->NextId();
      tr->Instant(sim_.now(), merged.trace_id, telemetry::Layer::kHost,
                  "sched.dispatch", static_cast<std::int64_t>(zid), requests);
    }
    nvme::TimedCompletion tc = co_await QueueRoundTrip(merged);
    for (Request* r = batch; r != nullptr;) {
      Request* next = r->next;  // read before r's waiter can free it
      r->completion = tc.completion;
      r->done.Done();
      r = next;
    }
    Zone(zid).in_flight = false;
    MaybeDispatch(zid);
  }

  sim::Simulator& sim_;
  nvme::Controller& ctrl_;
  std::uint32_t qp_depth_;
  sim::Semaphore qp_slots_;  // one unit per queue-pair slot
  Scheduler sched_;
  HostCosts costs_;
  sim::Time scheduler_cost_;
  std::uint64_t max_merge_bytes_;
  std::vector<ZoneQueue> zones_;  // by zone id, for mq-deadline on ZNS
  std::vector<std::pair<std::uint32_t, ZoneQueue>> stray_zones_;
  SchedulerStats sched_stats_;
};

class SpdkStack final : public HostStack {
 public:
  static constexpr HostCosts kDefaultCosts = {
      .submit = sim::Microseconds(0.6), .complete = sim::Microseconds(0.41)};

  SpdkStack(sim::Simulator& s, nvme::Controller& ctrl,
            const StackOptions& o = {})
      : HostStack(s, ctrl, Scheduler::kNone, kDefaultCosts, o) {}
};

class KernelStack final : public HostStack {
 public:
  static constexpr HostCosts kDefaultCosts = {
      .submit = sim::Microseconds(1.2), .complete = sim::Microseconds(1.07)};

  KernelStack(sim::Simulator& s, nvme::Controller& ctrl, Scheduler sched,
              const StackOptions& o = {})
      : HostStack(s, ctrl, sched, kDefaultCosts, o) {}

  using HostStack::scheduler_stats;
};

class PsyncStack final : public HostStack {
 public:
  static constexpr HostCosts kDefaultCosts = {
      .submit = sim::Microseconds(2.6), .complete = sim::Microseconds(2.3)};

  PsyncStack(sim::Simulator& s, nvme::Controller& ctrl,
             const StackOptions& o = {})
      : HostStack(s, ctrl, Scheduler::kNone, kDefaultCosts, o) {}
};

}  // namespace zstor::hostif
