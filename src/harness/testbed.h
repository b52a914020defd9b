// The one-stop experiment facade: a Testbed owns a simulator, one or
// more devices (ZNS, possibly striped; or conventional), a host stack
// and — optionally — a telemetry bundle, wired together so benches and
// tests stop copy-pasting the same construction boilerplate.
//
//   auto tb = zstor::TestbedBuilder()
//                 .WithZnsProfile(zns::Zn540Profile())
//                 .WithStack(zstor::StackChoice::kSpdk)
//                 .WithTelemetry({.ring_capacity = 4096})
//                 .Build();
//   auto r = tb.RunJob(spec);        // described into tb's metrics
//   tb.Finish();                     // final snapshot; tb.ring() keeps
//                                    // the last 4096 trace events
//
// Multi-device: .WithDevices(n) builds n identical ZNS devices, each with
// its own host-stack lane, striped into one logical namespace by
// hostif::StripedStack (logical zone z -> device z % n). Log pages and
// FillZones aggregate/route across devices transparently.
//
// When no explicit telemetry config is given, Build() consults the
// process-wide BenchEnv (see bench_flags.h): a bench invoked with
// --trace=FILE / --metrics=FILE gets tracing on every testbed it builds,
// all sharing one JSONL sink, with per-testbed metrics snapshots written
// at exit. BenchEnv owns every output file; a Testbed only ever captures
// in memory (TelemetryConfig).
//
// Parallel engine: .WithSimThreads(n) (or the --sim-threads=N flag) runs
// a multi-device ZNS testbed on sim::ParallelSimulator — lane 0 hosts
// the coordinator (StripedStack over MailboxStack proxies, ResilientStack,
// rate-limited/broadcast workload workers), lanes 1..n each own one
// device plus its host-stack slice, and workload workers whose zones all
// live on one device run inside that device's lane against a
// StripeLaneView (hostif/lane_stacks.h). Output — results, trace,
// timeline, metrics — is byte-identical for every n >= 1 (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "ftl/conv_device.h"
#include "hostif/host_stack.h"
#include "hostif/lane_stacks.h"
#include "hostif/resilient_stack.h"
#include "hostif/stack.h"
#include "hostif/stack_factory.h"
#include "hostif/striped_stack.h"
#include "nvme/log_page.h"
#include "sim/parallel_sim.h"
#include "sim/simulator.h"
#include "telemetry/sampler.h"
#include "telemetry/telemetry.h"
#include "workload/job.h"
#include "workload/runner.h"
#include "zns/profile.h"
#include "zns/zns_device.h"

namespace zstor {

/// Which host software stack services submissions (§III-A). The enum and
/// its ToString live with the stacks (hostif/stack.h) and are re-exported
/// here for the many call sites that spell them zstor::StackChoice.
using StackChoice = hostif::StackChoice;
using hostif::ToString;

/// In-memory telemetry capture for one testbed. All fields optional; an
/// all-default config still enables metrics collection (no trace sink).
/// Files are harness::BenchEnv's job (--trace, --timeline, --metrics).
struct TelemetryConfig {
  /// Keep the last N trace events in an in-memory ring (0 = no tracing).
  std::size_t ring_capacity = 0;
  /// Capture timeline records (DESIGN.md §10) into this string and run a
  /// telemetry::MetricSampler at `sample_interval` (null = no timeline).
  /// Non-owning.
  std::string* timeline_capture = nullptr;
  /// Virtual-time cadence of the timeline's periodic metric samples.
  sim::Time sample_interval = sim::Milliseconds(100);
};

class TestbedBuilder;

/// Owns one experiment's worth of simulated hardware + host stack.
/// Movable (members are heap-allocated, so internal references stay
/// valid); destruction runs Finish() if the caller didn't.
class Testbed {
 public:
  Testbed(Testbed&&) = default;
  Testbed& operator=(Testbed&&) = default;
  ~Testbed();

  /// The host-side simulator: the only one in classic mode, the
  /// coordinator lane under the parallel engine.
  sim::Simulator& sim() { return psim_ != nullptr ? psim_->lane(0) : *sim_; }
  hostif::Stack& stack() { return *stack_; }
  /// The parallel engine; null in classic (single-simulator) mode.
  sim::ParallelSimulator* parallel_sim() { return psim_.get(); }
  /// Resolved worker-thread count for the parallel engine (>= 1), or 0
  /// in classic mode.
  int sim_threads() const { return sim_threads_; }
  /// Device 0 as its generic NVMe face (the only device unless
  /// WithDevices(n > 1) was used).
  nvme::Controller& controller();
  /// Concrete device accessors; null when the testbed holds the other
  /// kind. zns() is device 0; zns(d) indexes the striped set.
  zns::ZnsDevice* zns() { return zns_devs_.empty() ? nullptr : zns_devs_.front().get(); }
  zns::ZnsDevice* zns(std::size_t d) { return zns_devs_[d].get(); }
  std::size_t num_devices() const {
    return conv_ != nullptr ? 1 : zns_devs_.size();
  }
  ftl::ConvDevice* conv() { return conv_.get(); }
  /// The zone-striping layer; non-null only when WithDevices(n > 1).
  hostif::StripedStack* striped() { return striped_; }
  /// Non-null only for StackChoice::kKernelMq on a single device
  /// (scheduler stats live here).
  hostif::KernelStack* kernel() { return kernel_; }
  /// Null when telemetry is disabled.
  telemetry::Telemetry* telemetry() { return telem_.get(); }
  /// The periodic timeline sampler; null unless a timeline is configured
  /// (TelemetryConfig::timeline_* or the --timeline flag).
  telemetry::MetricSampler* sampler() { return sampler_.get(); }
  /// The injected fault plan; null when faults are disabled. Under the
  /// parallel engine faults are per-device plans instead (a shared plan's
  /// RNG would race across lanes) — this stays null.
  fault::FaultPlan* faults() { return faults_.get(); }
  /// Device d's lane-side view of the logical namespace (parallel mode
  /// only; null otherwise). Sharded workload workers submit here.
  hostif::StripeLaneView* lane_view(std::size_t d) {
    return d < lane_views_.size() ? lane_views_[d].get() : nullptr;
  }
  /// The host retry layer; null unless faults or WithRetryPolicy enabled
  /// it. When non-null, stack() IS this wrapper.
  hostif::ResilientStack* resilient() { return resilient_; }
  /// Null unless TelemetryConfig::ring_capacity was set.
  telemetry::RingBufferSink* ring() { return ring_.get(); }

  // ---- experiment conveniences ---------------------------------------
  /// DebugFillZone over logical zones [first, first+count) (ZNS testbeds
  /// only). Multi-device: each logical zone is filled on the device the
  /// stripe maps it to.
  void FillZones(std::uint32_t first, std::uint32_t count);
  std::vector<std::uint32_t> ZoneList(std::uint32_t first,
                                      std::uint32_t count) const;
  /// Runs a workload job to completion; the result is additionally
  /// Describe()d into this testbed's metrics when telemetry is on.
  workload::JobResult RunJob(const workload::JobSpec& spec);
  std::vector<workload::JobResult> RunJobs(
      const std::vector<workload::JobSpec>& specs);
  /// Starts the periodic timeline sampler(s) if configured. RunJob does
  /// this implicitly; benches that Spawn their own flows and drive
  /// sim().Run() directly must call it first or the timeline degenerates
  /// to a single final sample.
  void EnsureSamplersRunning();

  /// Batch-exports every layer's counters (device, NAND, scheduler,
  /// stripe) into the registry and freezes it. Multi-device testbeds
  /// export device/NAND counters summed across devices. Requires
  /// telemetry.
  telemetry::Snapshot TakeSnapshot();

  // ---- NVMe-style log pages (nvme/log_page.h) ------------------------
  // Live device introspection: free (no virtual time, no counters), works
  // with or without telemetry. Multi-device testbeds serve the aggregated
  // view: SMART counters summed, zone report in logical zone order with
  // stripe-translated addresses, die utilization concatenated with die
  // indices offset per device.
  /// The device's SMART-like log (either device kind).
  nvme::SmartLog Smart() const;
  /// Per-zone state + occupancy (ZNS testbeds only; checked).
  nvme::ZoneReportLog ZoneReport() const;
  /// Per-die utilization (either device kind).
  nvme::DieUtilLog DieUtil() const;
  /// All of the device's log pages as one JSON object:
  /// {"smart": ..., "die_util": ..., "zone_report": ...?}.
  std::string LogPagesJson() const;

  /// Idempotent teardown: final snapshot (handed to the BenchEnv
  /// collector under bench flags), lane replay and trace flush. Called by
  /// the destructor.
  void Finish();

 private:
  friend class TestbedBuilder;
  Testbed() = default;

  // Member order is destruction order in reverse: simulators outlive
  // telemetry, telemetry outlives devices, devices outlive the stacks
  // built over them, stacks outlive the views built over *them*.
  std::unique_ptr<sim::Simulator> sim_;  // null under the parallel engine
  std::unique_ptr<sim::ParallelSimulator> psim_;  // null in classic mode
  /// One lane's private telemetry buffer under the parallel engine: the
  /// lane's bundle points at `trace` / `writer` during the run, and Finish
  /// replays them into final_sink_ / final_timeline_.
  struct LaneCapture {
    telemetry::ShardSink trace;
    std::string timeline;
    telemetry::TimelineWriter writer{&timeline};
  };
  // The in-memory captures this testbed creates (TelemetryConfig); the
  // bundles below only point at them, or at BenchEnv's files. All are
  // heap-allocated so the pointers survive Testbed moves.
  std::unique_ptr<telemetry::RingBufferSink> ring_;
  std::unique_ptr<telemetry::TimelineWriter> capture_;
  /// Parallel mode: [0] = coordinator, [1 + d] = device d.
  std::vector<std::unique_ptr<LaneCapture>> lane_captures_;
  /// Parallel mode: the ring or BenchEnv sink/writer the lane captures
  /// replay into at Finish, in lane order.
  telemetry::TraceSink* final_sink_ = nullptr;
  telemetry::TimelineWriter* final_timeline_ = nullptr;
  std::unique_ptr<telemetry::Telemetry> telem_;
  /// Per-device-lane telemetry bundles (parallel mode with telemetry).
  std::vector<std::unique_ptr<telemetry::Telemetry>> lane_telems_;
  std::unique_ptr<telemetry::MetricSampler> sampler_;
  std::vector<std::unique_ptr<telemetry::MetricSampler>> lane_samplers_;
  std::unique_ptr<fault::FaultPlan> faults_;
  /// Per-device fault plans (parallel mode; faults_ stays null there).
  std::vector<std::unique_ptr<fault::FaultPlan>> lane_faults_;
  /// The ZNS device set: exactly one unless built WithDevices(n > 1);
  /// empty for conventional testbeds.
  std::vector<std::unique_ptr<zns::ZnsDevice>> zns_devs_;
  std::unique_ptr<ftl::ConvDevice> conv_;
  /// The raw stack when a ResilientStack wraps it (stack_ is the wrapper
  /// then); empty otherwise.
  std::unique_ptr<hostif::Stack> inner_stack_;
  std::unique_ptr<hostif::Stack> stack_;
  /// Parallel mode: device d's real host stack (lives in lane d+1; the
  /// coordinator's StripedStack holds MailboxStack proxies to these) and
  /// the lane-side logical view sharded workers submit to.
  std::vector<std::unique_ptr<hostif::Stack>> lane_stacks_;
  std::vector<std::unique_ptr<hostif::StripeLaneView>> lane_views_;
  hostif::ResilientStack* resilient_ = nullptr;
  hostif::KernelStack* kernel_ = nullptr;
  hostif::StripedStack* striped_ = nullptr;  // owned via stack_/inner_stack_
  std::string label_;
  int sim_threads_ = 0;
  bool lanes_merged_ = false;
  bool report_to_env_ = false;
  bool logpages_to_env_ = false;
  bool finished_ = false;

  workload::JobResult RunSharded(const workload::JobSpec& spec);
  std::vector<std::unique_ptr<workload::Job>> StartSharded(
      const workload::JobSpec& spec);
  workload::JobResult JoinSharded(
      std::vector<std::unique_ptr<workload::Job>>& parts);
  hostif::StripeStats CombinedStripeStats() const;
  void MergeLaneTelemetry();
};

class TestbedBuilder {
 public:
  /// Selects the simulated ZNS device (the default, with Zn540Profile()).
  TestbedBuilder& WithZnsProfile(const zns::ZnsProfile& p);
  /// Selects the conventional (device-side GC) device instead.
  TestbedBuilder& WithConvProfile(const ftl::ConvProfile& p);
  /// Builds n identical ZNS devices behind a hostif::StripedStack (n = 1,
  /// the default, keeps the classic single-device wiring). Each device
  /// gets its own host-stack lane and a distinct noise seed. Incompatible
  /// with WithConvProfile.
  TestbedBuilder& WithDevices(std::uint32_t n);
  TestbedBuilder& WithStack(StackChoice s);
  /// Namespace LBA format (ZNS only; the conventional model is 4 KiB).
  TestbedBuilder& WithLbaBytes(std::uint32_t lba_bytes);
  /// Explicitly enables telemetry with this config (otherwise Build()
  /// consults the BenchEnv --trace/--metrics flags).
  TestbedBuilder& WithTelemetry(TelemetryConfig cfg);
  /// Names this testbed's snapshot in shared metrics output.
  TestbedBuilder& WithLabel(std::string label);
  /// Injects media faults per `spec` (overrides the BenchEnv --faults
  /// flag, which otherwise applies to every built testbed). The testbed
  /// owns the FaultPlan. Also enables the host retry layer unless
  /// WithRetryPolicy set one explicitly.
  TestbedBuilder& WithFaults(const fault::FaultSpec& spec);
  /// Wraps the host stack in a hostif::ResilientStack with this policy
  /// (retries, backoff, per-attempt timeout).
  TestbedBuilder& WithRetryPolicy(const hostif::RetryPolicy& policy);
  /// Runs the simulation on the parallel per-device-lane engine with n
  /// worker threads (n = 1 executes the identical window schedule
  /// serially, so output is byte-identical for every n >= 1). n = 0
  /// forces the classic engine. Overrides the --sim-threads flag, which
  /// otherwise applies. Only effective on multi-device ZNS testbeds;
  /// single-device and conventional testbeds always use the classic
  /// engine.
  TestbedBuilder& WithSimThreads(int n);

  Testbed Build();

 private:
  std::optional<zns::ZnsProfile> zns_profile_;
  std::optional<ftl::ConvProfile> conv_profile_;
  std::uint32_t num_devices_ = 1;
  StackChoice stack_ = StackChoice::kSpdk;
  std::uint32_t lba_bytes_ = 4096;
  std::optional<TelemetryConfig> telem_cfg_;
  std::optional<fault::FaultSpec> fault_spec_;
  std::optional<hostif::RetryPolicy> retry_policy_;
  std::optional<int> sim_threads_;
  std::string label_;
};

}  // namespace zstor
