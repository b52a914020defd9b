// StripedStack: one logical zoned namespace over N independently
// simulated devices — RAID-0 at zone granularity.
//
// Each backing device keeps its own full host stack (queue pair, host
// costs, firmware, NAND array), so per-device queue-depth bounds and
// FCP serialization still apply lane-by-lane; the striping layer itself
// charges no virtual time. The address map is round-robin by zone:
//
//   logical zone z  ->  device z % N, device zone z / N
//
// so a workload touching K consecutive logical zones spreads across
// min(K, N) devices, and throughput scales with N until the host-side
// workload (not the devices) is the bottleneck. This mirrors how zoned
// RAID-0 proposals stripe at zone (not LBA) granularity to keep the
// sequential-write rule intact per device: a logical zone IS a physical
// zone, just relocated.
//
// Cross-device semantics:
//   * I/O and per-zone management commands route to exactly one lane
//     (detail::RouteOne, the router StripeLaneView shares); an I/O
//     crossing a logical zone boundary is rejected host-side with
//     kZoneBoundaryError (it would otherwise silently span devices).
//   * Flush and select_all zone management broadcast to every lane and
//     complete when the slowest lane does; the first non-success status
//     (in lane order) is surfaced.
//   * Zone reports are gathered from every lane by the same fan-out and
//     re-interleaved in logical zone order with zslba/write_pointer
//     translated back into the logical address space.
//   * Every leg, routed or fanned out, starts in detail::SubmitLeg, the
//     one place a lane's LaneStats change: broadcast and report legs
//     count in flight like any I/O.
//
// What real zoned RAID would add that this deliberately does not: parity
// or mirroring (a lane failure here is surfaced, not repaired), write
// pointer resynchronization after crashes, and per-device capacity
// heterogeneity. See DESIGN.md §9.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "hostif/stack.h"
#include "hostif/stripe_map.h"
#include "nvme/types.h"
#include "sim/check.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "telemetry/telemetry.h"

namespace zstor::hostif {

/// Per-lane (per-device) traffic accounting, kept by the striping layer
/// itself so it works identically over any lane stack type.
struct LaneStats {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;        // completions with !ok()
  std::uint64_t in_flight = 0;     // instantaneous
  std::uint64_t max_in_flight = 0; // high-water mark

  /// The field table (telemetry/metrics.h). Names are suffixes: each
  /// lane exports under its own "stripe.devN." prefix.
  static constexpr telemetry::CounterField<LaneStats> kFields[] = {
      {"issued", &LaneStats::issued},
      {"completed", &LaneStats::completed},
      {"errors", &LaneStats::errors},
      {"in_flight", &LaneStats::in_flight},
      {"max_in_flight", &LaneStats::max_in_flight},
  };
};
static_assert(telemetry::ListsEveryFieldOnce<LaneStats>());

struct StripeStats {
  std::vector<LaneStats> lanes;
  /// I/O rejected host-side for crossing a logical zone boundary.
  std::uint64_t boundary_rejects = 0;

  /// Exports per-lane counters under the "stripe." prefix (the shared
  /// Describe protocol; see telemetry/metrics.h).
  void Describe(telemetry::MetricsRegistry& m) const {
    m.GetCounter("stripe.devices").Set(lanes.size());
    m.GetCounter("stripe.boundary_rejects").Set(boundary_rejects);
    for (std::size_t d = 0; d < lanes.size(); ++d) {
      const std::string p = "stripe.dev" + std::to_string(d) + ".";
      for (const auto& f : LaneStats::kFields) {
        // Instantaneous, so zero whenever a run has drained: not exported.
        if (f.member == &LaneStats::in_flight) continue;
        m.GetCounter(p + f.name).Set(lanes[d].*f.member);
      }
    }
  }
};

namespace detail {

/// One device's stack and its traffic counters, as the router sees them.
struct LaneRef {
  Stack* stack;
  LaneStats* stats;
};

/// A started leg on one lane. Awaiting it yields the lane's completion
/// and closes the leg's accounting (see SubmitLeg).
struct Leg {
  LaneStats& ls;
  sim::Task<nvme::TimedCompletion> task;  // the lane's Submit, started

  bool await_ready() const noexcept { return task.await_ready(); }
  void await_suspend(std::coroutine_handle<> h) noexcept {
    task.await_suspend(h);
  }
  nvme::TimedCompletion await_resume() {
    nvme::TimedCompletion tc = task.await_resume();
    ls.in_flight--;
    ls.completed++;
    if (!tc.completion.ok()) ls.errors++;
    return tc;
  }
};

/// Submits one leg on one lane, counted in that lane's LaneStats from
/// issue to completion: the one place they change. RouteOne awaits a
/// leg, and so does each FanOutLeg. An awaiter, not a coroutine, so a
/// routed command pays no frame for its accounting.
inline Leg SubmitLeg(LaneRef lane, const nvme::Command& cmd) {
  LaneStats& ls = *lane.stats;
  ls.issued++;
  ls.in_flight++;
  ls.max_in_flight = std::max(ls.max_in_flight, ls.in_flight);
  return Leg{ls, lane.stack->Submit(cmd)};
}

/// One lane's leg of a fan-out, spawned so every lane works at once. A
/// free coroutine (not a lambda) so the frame owns its parameters; `out`
/// and `wg` live in the fan-out's frame, which waits on `wg`.
inline sim::Task<> FanOutLeg(LaneRef lane, nvme::Command cmd,
                             nvme::TimedCompletion* out, sim::WaitGroup* wg) {
  *out = co_await SubmitLeg(lane, cmd);
  wg->Done();
}

/// The one routing path of the striping layers, shared by StripedStack
/// and the parallel engine's StripeLaneView: an I/O or per-zone
/// management command lands on exactly one device. An I/O crossing a
/// logical zone boundary is rejected host-side — in a single-device
/// namespace it would reach the controller and fail there; striped, its
/// tail would land on a different device. `lane_of(d)` resolves device d
/// to a LaneRef. An append's result LBA is translated back into the
/// logical address space.
template <class LaneOf>
sim::Task<nvme::TimedCompletion> RouteOne(sim::Simulator& sim,
                                          const StripeMap& map,
                                          telemetry::Tracer* tr,
                                          std::uint64_t* boundary_rejects,
                                          nvme::Command cmd, LaneOf lane_of) {
  nvme::TimedCompletion tc;
  if (map.CrossesZone(cmd.slba, cmd.nlb)) {
    ++*boundary_rejects;
    tc.completion.status = nvme::Status::kZoneBoundaryError;
    tc.trace_id = cmd.trace_id;
    tc.submitted = sim.now();
    tc.completed = sim.now();
    co_return tc;
  }
  const std::uint32_t lz = map.LogicalZoneOf(cmd.slba);
  const std::uint32_t d = map.DeviceOf(lz);
  const LaneRef lane = lane_of(d);
  if (tr != nullptr) {
    tr->Instant(sim.now(), cmd.trace_id, telemetry::Layer::kHost,
                "stripe.route", static_cast<std::int64_t>(d),
                static_cast<std::int64_t>(lz));
  }
  nvme::Command routed = cmd;
  routed.slba = map.ToDeviceLba(cmd.slba);
  tc = co_await SubmitLeg(lane, routed);
  if (cmd.opcode == nvme::Opcode::kAppend && tc.completion.ok()) {
    tc.completion.result_lba = map.ToLogicalLba(d, tc.completion.result_lba);
  }
  co_return tc;
}

}  // namespace detail

class StripedStack : public Stack {
 public:
  /// Takes ownership of one fully built stack per device. All lanes must
  /// expose identical zoned geometry (same zone size/cap and LBA format);
  /// capacity and open/active budgets are summed into the merged view.
  StripedStack(sim::Simulator& s,
               std::vector<std::unique_ptr<Stack>> lanes)
      : sim_(s), lanes_(std::move(lanes)) {
    ZSTOR_CHECK_MSG(!lanes_.empty(), "StripedStack needs >= 1 device");
    const nvme::NamespaceInfo& first = lanes_.front()->info();
    ZSTOR_CHECK_MSG(first.zoned, "StripedStack stripes zoned namespaces");
    info_ = first;
    for (std::size_t d = 1; d < lanes_.size(); ++d) {
      const nvme::NamespaceInfo& ni = lanes_[d]->info();
      ZSTOR_CHECK_MSG(ni.zoned && ni.zone_size_lbas == first.zone_size_lbas &&
                          ni.zone_cap_lbas == first.zone_cap_lbas &&
                          ni.num_zones == first.num_zones &&
                          ni.format.lba_bytes == first.format.lba_bytes,
                      "striped lanes must have identical zoned geometry");
      info_.capacity_lbas += ni.capacity_lbas;
      info_.num_zones += ni.num_zones;
      info_.max_open_zones += ni.max_open_zones;
      info_.max_active_zones += ni.max_active_zones;
    }
    map_ = StripeMap{first.zone_size_lbas,
                     static_cast<std::uint32_t>(lanes_.size())};
    stats_.lanes.resize(lanes_.size());
  }

  /// Returns the task of the path `cmd` takes: not a coroutine, as
  /// StripeLaneView::Submit is not.
  sim::Task<nvme::TimedCompletion> Submit(nvme::Command cmd) override {
    telemetry::Tracer* tr = trace();
    if (tr != nullptr && cmd.trace_id == 0) {
      cmd.trace_id = tr->NextId();
    }
    switch (cmd.opcode) {
      case nvme::Opcode::kFlush:
        return Broadcast(cmd);
      case nvme::Opcode::kZoneMgmtSend:
        if (cmd.select_all) return Broadcast(cmd);
        break;
      case nvme::Opcode::kZoneMgmtRecv:
        return GatherReport(cmd);
      default:
        break;
    }
    return detail::RouteOne(sim_, map_, tr, &stats_.boundary_rejects, cmd,
                            [this](std::uint32_t d) { return LaneRefOf(d); });
  }

  const nvme::NamespaceInfo& info() const override { return info_; }

  void AttachTelemetry(telemetry::Telemetry* t) override {
    telem_ = t;
    for (auto& lane : lanes_) lane->AttachTelemetry(t);
  }

  std::size_t num_lanes() const { return lanes_.size(); }
  Stack& lane(std::size_t d) { return *lanes_[d]; }
  const Stack& lane(std::size_t d) const { return *lanes_[d]; }
  const StripeStats& stats() const { return stats_; }

  /// The address map (stripe_map.h), shared with StripeLaneView.
  const StripeMap& map() const { return map_; }

 private:
  detail::LaneRef LaneRefOf(std::size_t d) {
    return detail::LaneRef{lanes_[d].get(), &stats_.lanes[d]};
  }

  /// Fans `cmd` out to every lane, one leg each into `legs`, and joins
  /// on the slowest; surfaces the first non-success status in lane order.
  /// With `reports`, lane d's leg transfers its zone report into
  /// `reports[d]` (sized to the lane's zone count).
  sim::Task<nvme::TimedCompletion> FanOut(
      nvme::Command cmd, std::vector<nvme::TimedCompletion>& legs,
      std::vector<std::vector<nvme::ZoneDescriptor>>* reports = nullptr) {
    const sim::Time start = sim_.now();
    legs.resize(lanes_.size());
    if (reports != nullptr) reports->resize(lanes_.size());
    sim::WaitGroup wg(sim_);
    for (std::size_t d = 0; d < lanes_.size(); ++d) {
      nvme::Command leg = cmd;
      if (reports != nullptr) {
        (*reports)[d].resize(lanes_[d]->info().num_zones);
        leg.data = (*reports)[d].data();
      }
      wg.Add();
      sim::Spawn(detail::FanOutLeg(LaneRefOf(d), leg, &legs[d], &wg));
    }
    co_await wg.Wait();
    nvme::TimedCompletion tc;
    tc.trace_id = cmd.trace_id;
    for (const nvme::TimedCompletion& leg : legs) {
      if (!leg.completion.ok()) {
        tc.completion.status = leg.completion.status;
        break;
      }
    }
    tc.submitted = start;
    tc.completed = sim_.now();
    co_return tc;
  }

  sim::Task<nvme::TimedCompletion> Broadcast(nvme::Command cmd) {
    std::vector<nvme::TimedCompletion> legs;
    co_return co_await FanOut(cmd, legs);
  }

  /// Full-report gather: every lane reports all of its zones into a
  /// buffer of its own (so legs are issued concurrently and join on the
  /// slowest), then descriptors are re-interleaved into the caller's
  /// buffer in logical zone order with addresses translated back.
  /// `cmd.slba`'s zone and `report_max` are applied to the logical view,
  /// matching single-device Zone Management Receive semantics, down to
  /// refusing a report without a buffer. A management command, so the
  /// per-lane buffers may allocate.
  sim::Task<nvme::TimedCompletion> GatherReport(nvme::Command cmd) {
    if (cmd.data == nullptr) {
      nvme::TimedCompletion tc;
      tc.completion.status = nvme::Status::kInvalidField;
      tc.trace_id = cmd.trace_id;
      tc.submitted = tc.completed = sim_.now();
      co_return tc;
    }
    nvme::Command full = cmd;
    full.slba = 0;
    full.report_max = 0;
    std::vector<nvme::TimedCompletion> legs;
    std::vector<std::vector<nvme::ZoneDescriptor>> reports;
    nvme::TimedCompletion tc = co_await FanOut(full, legs, &reports);
    if (tc.completion.ok()) {
      auto* out = static_cast<nvme::ZoneDescriptor*>(cmd.data);
      std::uint32_t& n = tc.completion.count;
      const std::uint32_t first_lz = map_.LogicalZoneOf(cmd.slba);
      for (std::uint32_t lz = first_lz; lz < info_.num_zones; ++lz) {
        if (cmd.report_max != 0 && n >= cmd.report_max) break;
        const std::uint32_t d = map_.DeviceOf(lz);
        const std::uint32_t dz = map_.DeviceZoneOf(lz);
        ZSTOR_CHECK(dz < legs[d].completion.count);
        nvme::ZoneDescriptor desc = reports[d][dz];
        map_.ToLogicalZone(d, desc);
        out[n++] = desc;
      }
    }
    co_return tc;
  }

  sim::Simulator& sim_;
  std::vector<std::unique_ptr<Stack>> lanes_;
  nvme::NamespaceInfo info_;
  StripeMap map_;
  StripeStats stats_;
};

}  // namespace zstor::hostif
