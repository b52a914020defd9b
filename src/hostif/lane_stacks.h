// The parallel engine's split of a striped namespace (DESIGN.md §12).
//
// Under ParallelSimulator the per-device host stacks live in per-device
// lanes, so the classic StripedStack cannot call them directly — a
// direct call would run device code on the coordinator's thread. Two
// adapters reconnect the layers through lane mailboxes:
//
//  * MailboxStack — the coordinator-side proxy for one device's stack.
//    StripedStack (and ResilientStack above it) are reused unchanged,
//    built over one MailboxStack per device: Submit posts the command
//    into the device lane as a kRequest, a serve coroutine runs it
//    against the real stack there, and the completion returns as a
//    kReply that resumes the coordinator coroutine. Each direction
//    charges one interconnect hop (the engine lookahead), so proxied
//    commands observe 2×hop extra latency relative to the classic
//    direct call — the price of the conservative window protocol, paid
//    only by traffic that actually crosses lanes. The command and its
//    completion travel in a detail::RemoteOp in the coordinator's
//    Submit frame, and each message carries only a pointer to it; a
//    read-back or report lands straight in the coordinator's buffer.
//
//  * StripeLaneView — the device-side view for sharded workload
//    workers. A worker whose zones all live on one device runs inside
//    that device's lane and needs no cross-lane traffic at all; the
//    view presents the *logical* (striped) namespace geometry so specs,
//    zone slices and RNG streams are identical to the classic run, and
//    routes each command through StripedStack's own router
//    (detail::RouteOne in striped_stack.h): the same boundary reject,
//    "stripe.route" instant, LaneStats and append LBA translation.
#pragma once

#include <cstdint>
#include <utility>

#include "hostif/stack.h"
#include "hostif/stripe_map.h"
#include "hostif/striped_stack.h"
#include "nvme/types.h"
#include "sim/check.h"
#include "sim/parallel_sim.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "telemetry/telemetry.h"

namespace zstor::hostif {

class MailboxStack;

namespace detail {

/// One proxied command, owned by the coordinator-side Submit frame,
/// which stays suspended from the request's post until the reply lands.
/// The coordinator lane writes `cmd` before it posts the request; the
/// device lane reads it, then writes `tc` (and any returned data into
/// the coordinator's buffer that `cmd.data` names) before it posts the
/// reply, and the coordinator reads both once the reply has run. A
/// message is drained into its destination only at a window barrier,
/// after the window in which it was posted, so the barrier orders each
/// write before the other lane's read.
struct RemoteOp {
  RemoteOp(sim::Simulator& host_sim, const nvme::Command& c)
      : cmd(c), done(host_sim) {
    done.Add();
  }
  nvme::Command cmd;
  nvme::TimedCompletion tc;
  sim::WaitGroup done;
};

}  // namespace detail

/// Coordinator-side proxy for one device lane's host stack.
class MailboxStack : public Stack {
 public:
  MailboxStack(sim::ParallelSimulator& ps, std::uint32_t host_lane,
               std::uint32_t dev_lane, Stack& target)
      : ps_(ps),
        host_lane_(host_lane),
        dev_lane_(dev_lane),
        target_(target),
        info_(target.info()) {}

  sim::Task<nvme::TimedCompletion> Submit(nvme::Command cmd) override {
    telemetry::Tracer* tr = trace();
    if (tr != nullptr && cmd.trace_id == 0) cmd.trace_id = tr->NextId();
    const sim::Time start = ps_.lane(host_lane_).now();
    detail::RemoteOp op(ps_.lane(host_lane_), cmd);
    ps_.Post(host_lane_, dev_lane_, start + ps_.lookahead(),
             sim::MsgKind::kRequest,
             [this, op = &op] { sim::Spawn(Serve(op)); });
    co_await op.done.Wait();
    // Timestamps are rebased onto the coordinator's clock: submitted at
    // departure, completed when the reply lands (device service plus
    // one interconnect hop each way).
    op.tc.trace_id = cmd.trace_id;
    op.tc.submitted = start;
    op.tc.completed = ps_.lane(host_lane_).now();
    co_return op.tc;
  }

  const nvme::NamespaceInfo& info() const override { return info_; }

 private:
  /// Runs inside the device lane; `op` lives in the coordinator-side
  /// Submit frame, which stays suspended until the reply sets `done`.
  sim::Task<> Serve(detail::RemoteOp* op) {
    op->tc = co_await target_.Submit(op->cmd);
    ps_.Post(dev_lane_, host_lane_,
             ps_.lane(dev_lane_).now() + ps_.lookahead(),
             sim::MsgKind::kReply, [op] { op->done.Done(); });
  }

  sim::ParallelSimulator& ps_;
  std::uint32_t host_lane_;
  std::uint32_t dev_lane_;
  Stack& target_;
  nvme::NamespaceInfo info_;
};

/// Device-lane view of the logical striped namespace over one device.
class StripeLaneView : public Stack {
 public:
  StripeLaneView(sim::Simulator& dev_sim, Stack& target, StripeMap map,
                 std::uint32_t dev, nvme::NamespaceInfo logical_info)
      : sim_(dev_sim),
        target_(target),
        map_(map),
        dev_(dev),
        info_(std::move(logical_info)) {}

  sim::Task<nvme::TimedCompletion> Submit(nvme::Command cmd) override {
    ZSTOR_CHECK_MSG(cmd.opcode != nvme::Opcode::kFlush && !cmd.select_all &&
                        cmd.opcode != nvme::Opcode::kZoneMgmtRecv,
                    "broadcast/gather commands must run on the coordinator");
    telemetry::Tracer* tr = trace();
    if (tr != nullptr && cmd.trace_id == 0) cmd.trace_id = tr->NextId();
    return detail::RouteOne(
        sim_, map_, tr, &boundary_rejects_, cmd, [this](std::uint32_t d) {
          ZSTOR_CHECK_MSG(d == dev_,
                          "sharded worker routed to the wrong device lane");
          return detail::LaneRef{&target_, &stats_};
        });
  }

  const nvme::NamespaceInfo& info() const override { return info_; }

  /// Per-lane traffic seen by this view. NOT exported into any metrics
  /// registry here — the Testbed folds view stats into the coordinator
  /// StripedStack's StripeStats at the final describe, so "stripe.devN"
  /// counters account for both proxied and sharded traffic without
  /// double counting.
  const LaneStats& stats() const { return stats_; }
  std::uint64_t boundary_rejects() const { return boundary_rejects_; }

 private:
  sim::Simulator& sim_;
  Stack& target_;
  StripeMap map_;
  std::uint32_t dev_;
  nvme::NamespaceInfo info_;
  LaneStats stats_;
  std::uint64_t boundary_rejects_ = 0;
};

}  // namespace zstor::hostif
