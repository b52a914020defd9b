#include "harness/testbed.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "harness/bench_flags.h"
#include "sim/check.h"
#include "workload/runner.h"

namespace zstor {

namespace {

/// Raw pointers to every counter-bearing layer. The layers are all
/// heap-allocated, so these stay valid across Testbed moves — which is
/// why the sampler's refresh closure captures a copy of this struct and
/// never `this` (a moved-from Testbed would dangle).
struct LayerPtrs {
  std::vector<zns::ZnsDevice*> zns;
  ftl::ConvDevice* conv = nullptr;
  hostif::KernelStack* kernel = nullptr;
  hostif::StripedStack* striped = nullptr;
  std::vector<fault::FaultPlan*> faults;
  hostif::ResilientStack* resilient = nullptr;
};

/// Batch-exports every layer's counters into the registry. With
/// `per_lane` (a timeline on a striped testbed), additionally exports
/// `laneN.zns.*` counters so timeline samples can attribute throughput
/// to individual stripe lanes; plain --metrics snapshots keep the
/// aggregate-only view.
void DescribeLayers(const LayerPtrs& l, telemetry::MetricsRegistry& m,
                    bool per_lane) {
  if (!l.zns.empty()) {
    // A striped set exports the field-wise sums of its devices (still
    // under the usual "zns."/"nand." names).
    zns::ZnsCounters sum;
    nand::FlashCounters flash;
    for (zns::ZnsDevice* d : l.zns) {
      telemetry::AddFields(sum, d->counters());
      if (d->flash() != nullptr) {
        telemetry::AddFields(flash, d->flash()->counters());
      }
    }
    sum.Describe(m);
    flash.Describe(m);
    if (per_lane && l.zns.size() > 1) {
      for (std::size_t d = 0; d < l.zns.size(); ++d) {
        const zns::ZnsCounters& c = l.zns[d]->counters();
        const std::string p = "lane" + std::to_string(d) + ".zns.";
        m.GetCounter(p + "bytes_written").Set(c.bytes_written);
        m.GetCounter(p + "bytes_read").Set(c.bytes_read);
        m.GetCounter(p + "appends").Set(c.appends);
        m.GetCounter(p + "resets").Set(c.resets);
      }
    }
  }
  if (l.conv != nullptr) {
    l.conv->counters().Describe(m);
    l.conv->flash().counters().Describe(m);
  }
  if (l.kernel != nullptr) l.kernel->scheduler_stats().Describe(m);
  if (l.striped != nullptr) l.striped->stats().Describe(m);
  if (!l.faults.empty()) {
    fault::FaultCounters sum;
    for (fault::FaultPlan* p : l.faults) {
      telemetry::AddFields(sum, p->counters());
    }
    sum.Describe(m);
  }
  if (l.resilient != nullptr) l.resilient->stats().Describe(m);
}

/// `tb`'s layers; `devices` adds devices and fault plans, which live in
/// other lanes than the coordinator under the parallel engine.
LayerPtrs LayersOf(Testbed& tb, bool devices) {
  LayerPtrs l;
  l.kernel = tb.kernel();
  l.striped = tb.striped();
  l.resilient = tb.resilient();
  if (devices) {
    for (std::size_t d = 0; d < tb.num_devices(); ++d) {
      if (tb.zns(d) != nullptr) l.zns.push_back(tb.zns(d));
      if (tb.faults(d) != nullptr) l.faults.push_back(tb.faults(d));
    }
    l.conv = tb.conv();
  }
  return l;
}

/// Exports one device's ZNS, NAND and fault counters (a lane registry).
void DescribeDevice(zns::ZnsDevice& dev, const fault::FaultPlan* faults,
                    telemetry::MetricsRegistry& m) {
  dev.counters().Describe(m);
  if (dev.flash() != nullptr) dev.flash()->counters().Describe(m);
  if (faults != nullptr) faults->counters().Describe(m);
}

/// Decides which lane each worker of `spec` runs in under the parallel
/// engine: index 0 = coordinator, 1 + d = device d's lane. A worker is
/// sharded to a device lane only when every zone it can touch lives on
/// that one device; whole-job properties that need shared host-side
/// state — a rate limiter, the retry layer, an explicit worker_ids list,
/// or an opcode that broadcasts/gathers — pin the entire job to the
/// coordinator. The decision depends only on the spec and the stripe
/// map, never on the thread count, so every lane's event schedule is
/// identical for any --sim-threads value.
std::vector<std::vector<std::uint32_t>> PlanShards(
    const workload::JobSpec& spec, const nvme::NamespaceInfo& info,
    const hostif::StripeMap& map, bool has_resilient) {
  std::vector<std::vector<std::uint32_t>> plan(1 + map.num_devices);
  const bool pinned =
      has_resilient || spec.rate_bytes_per_sec > 0 ||
      !spec.worker_ids.empty() ||
      (spec.op != nvme::Opcode::kRead && spec.op != nvme::Opcode::kWrite &&
       spec.op != nvme::Opcode::kAppend &&
       spec.op != nvme::Opcode::kZoneMgmtSend);
  // Resolve the zone list the way Job's constructor does, so per-worker
  // slices match the slices the sharded Jobs will compute.
  std::vector<std::uint32_t> zones = spec.zones;
  if (zones.empty()) {
    zones.reserve(info.num_zones);
    for (std::uint32_t z = 0; z < info.num_zones; ++z) zones.push_back(z);
  }
  for (std::uint32_t w = 0; w < spec.workers; ++w) {
    std::uint32_t lane = 0;
    if (!pinned) {
      const std::vector<std::uint32_t> mine =
          spec.partition_zones ? workload::ZoneSlice(zones, spec.workers, w)
                               : zones;
      if (!mine.empty()) {
        const std::uint32_t d = map.DeviceOf(mine.front());
        bool one_device = true;
        for (std::uint32_t z : mine) {
          one_device = one_device && map.DeviceOf(z) == d;
        }
        if (one_device) lane = 1 + d;
      }
    }
    plan[lane].push_back(w);
  }
  return plan;
}

/// The virtual-time host<->device interconnect hop charged to each
/// cross-lane message under the parallel engine — also the engine's
/// conservative-synchronization lookahead.
constexpr sim::Time kInterconnectHop = 250;  // ns

/// Device d's seed for its noise and fault streams; device 0 keeps `seed`.
std::uint64_t DeviceSeed(std::uint64_t seed, std::uint32_t d) {
  return seed + 0x9E3779B97F4A7C15ull * d;
}

/// The next testbed's trace-id epoch (Tracer::SetIdNamespace).
std::uint64_t NextIdEpoch() {
  static std::atomic<std::uint64_t> epoch{0};
  return epoch.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

Testbed::~Testbed() { Finish(); }

nvme::Controller& Testbed::controller() {
  if (!zns_devs_.empty()) return *zns_devs_.front();
  return *conv_;
}

hostif::StripeMap Testbed::stripe_map() const {
  if (striped_ != nullptr) return striped_->map();
  return {zns_devs_.front()->info().zone_size_lbas};
}

void Testbed::FillZones(std::uint32_t first, std::uint32_t count) {
  ZSTOR_CHECK_MSG(!zns_devs_.empty(), "FillZones needs a ZNS testbed");
  const hostif::StripeMap map = stripe_map();
  for (std::uint32_t z = first; z < first + count; ++z) {
    zns::ZnsDevice& dev = *zns_devs_[map.DeviceOf(z)];
    dev.DebugFillZone(map.DeviceZoneOf(z), dev.profile().zone_cap_bytes);
  }
}

std::vector<std::uint32_t> Testbed::ZoneList(std::uint32_t first,
                                             std::uint32_t count) const {
  std::vector<std::uint32_t> out;
  out.reserve(count);
  for (std::uint32_t z = first; z < first + count; ++z) out.push_back(z);
  return out;
}

void Testbed::EnsureSamplersRunning() {
  // Lane samplers are (re)scheduled from the driving thread before the
  // engine runs — legal per ParallelSimulator's threading contract.
  if (sampler_ != nullptr) sampler_->EnsureRunning();
  for (auto& s : lane_samplers_) s->EnsureRunning();
}

workload::JobResult Testbed::RunJob(const workload::JobSpec& spec) {
  return RunJobs({spec}).front();
}

std::vector<workload::JobResult> Testbed::RunJobs(
    const std::vector<workload::JobSpec>& specs) {
  EnsureSamplersRunning();
  std::vector<workload::JobResult> results;
  if (psim_ != nullptr) {
    // Start every spec's shards up front so concurrent jobs overlap in
    // virtual time exactly as workload::RunJobs makes them overlap.
    std::vector<std::vector<std::unique_ptr<workload::Job>>> all;
    all.reserve(specs.size());
    for (const auto& spec : specs) all.push_back(StartSharded(spec));
    psim_->Run(static_cast<unsigned>(sim_threads_));
    results.reserve(all.size());
    for (auto& parts : all) results.push_back(JoinSharded(parts));
  } else {
    std::vector<std::pair<hostif::Stack*, workload::JobSpec>> jobs;
    jobs.reserve(specs.size());
    for (const auto& spec : specs) jobs.emplace_back(stack_.get(), spec);
    results = workload::RunJobs(*sim_, jobs);
  }
  if (telem_ != nullptr) {
    for (const auto& r : results) r.Describe(telem_->metrics());
  }
  return results;
}

std::vector<std::unique_ptr<workload::Job>> Testbed::StartSharded(
    const workload::JobSpec& spec) {
  ZSTOR_CHECK(psim_ != nullptr && striped_ != nullptr);
  const std::vector<std::vector<std::uint32_t>> plan = PlanShards(
      spec, stack_->info(), striped_->map(), resilient_ != nullptr);
  std::vector<std::unique_ptr<workload::Job>> parts;
  // Coordinator part first, then device lanes in index order; JoinSharded
  // merges in this fixed order so results are layout-deterministic.
  for (std::uint32_t lane = 0; lane < plan.size(); ++lane) {
    if (plan[lane].empty()) continue;
    workload::JobSpec s = spec;
    s.worker_ids = plan[lane];
    hostif::Stack& target = lane == 0 ? *stack_ : *lane_views_[lane - 1];
    parts.push_back(
        std::make_unique<workload::Job>(psim_->lane(lane), target, s));
  }
  // All lanes share one clock at Run boundaries (the engine realigns
  // them at quiescence), so every part computes identical start/end
  // times — a worker's event schedule does not depend on its lane.
  for (auto& p : parts) p->Start();
  return parts;
}

workload::JobResult Testbed::JoinSharded(
    std::vector<std::unique_ptr<workload::Job>>& parts) {
  ZSTOR_CHECK_MSG(!parts.empty(), "job sharded to zero lanes");
  ZSTOR_CHECK_MSG(parts.front()->Done(),
                  "parallel run ended with an unfinished job shard");
  workload::JobResult r = parts.front()->result();
  for (std::size_t i = 1; i < parts.size(); ++i) {
    ZSTOR_CHECK_MSG(parts[i]->Done(),
                    "parallel run ended with an unfinished job shard");
    r.Merge(parts[i]->result());
  }
  return r;
}

hostif::StripeStats Testbed::CombinedStripeStats() const {
  hostif::StripeStats s = striped_->stats();
  for (std::size_t d = 0; d < lane_views_.size(); ++d) {
    // The summed max_in_flight is an upper bound, not the true joint
    // high-water mark: proxied and sharded traffic peak independently.
    telemetry::AddFields(s.lanes[d], lane_views_[d]->stats());
    s.boundary_rejects += lane_views_[d]->boundary_rejects();
  }
  return s;
}

telemetry::Snapshot Testbed::TakeSnapshot() {
  ZSTOR_CHECK_MSG(telem_ != nullptr,
                  "TakeSnapshot requires telemetry (WithTelemetry or "
                  "--trace/--metrics)");
  telemetry::MetricsRegistry& m = telem_->metrics();
  // Keep lane counters out of snapshots unless a timeline already
  // introduced them (the sampler's refresh uses per-lane mode, and mixing
  // per-lane presence across snapshots of one run would be confusing).
  DescribeLayers(LayersOf(*this, /*devices=*/true), m,
                 /*per_lane=*/sampler_ != nullptr);
  if (psim_ == nullptr) {
    // Classic engine shape: events run so far (a slice chain's skipped
    // wakes are not events).
    m.GetCounter("sim.events").Set(sim_->events());
  } else {
    // The describes above covered every device; fold in the lane views'
    // half of the stripe stats. Lane registries themselves merge only at
    // Finish — merging here too would double-count.
    CombinedStripeStats().Describe(m);
    // Engine shape: windows and cross-lane messages are fixed by the
    // window plan, so they are identical for every --sim-threads value.
    m.GetCounter("psim.windows").Set(psim_->windows());
    m.GetCounter("psim.messages").Set(psim_->messages());
  }
  return m.TakeSnapshot();
}

nvme::SmartLog Testbed::Smart() const {
  if (zns_devs_.empty()) return conv_->GetSmartLog();
  nvme::SmartLog agg = zns_devs_.front()->GetSmartLog();
  for (std::size_t d = 1; d < zns_devs_.size(); ++d) {
    telemetry::AddFields(agg, zns_devs_[d]->GetSmartLog());
  }
  return agg;
}

nvme::ZoneReportLog Testbed::ZoneReport() const {
  ZSTOR_CHECK_MSG(!zns_devs_.empty(), "ZoneReport needs a ZNS testbed");
  const hostif::StripeMap map = stripe_map();
  std::vector<nvme::ZoneReportLog> per_dev;
  per_dev.reserve(zns_devs_.size());
  nvme::ZoneReportLog agg;
  for (const auto& dev : zns_devs_) {
    per_dev.push_back(dev->GetZoneReportLog());
    const nvme::ZoneReportLog& r = per_dev.back();
    agg.num_zones += r.num_zones;
    agg.open_zones += r.open_zones;
    agg.active_zones += r.active_zones;
    agg.max_open += r.max_open;
    agg.max_active += r.max_active;
    agg.read_only_zones += r.read_only_zones;
    agg.offline_zones += r.offline_zones;
  }
  agg.zones.reserve(agg.num_zones);
  for (std::uint32_t lz = 0; lz < agg.num_zones; ++lz) {
    const std::uint32_t d = map.DeviceOf(lz);
    nvme::ZoneReportEntry e = per_dev[d].zones[map.DeviceZoneOf(lz)];
    e.zone = lz;
    map.ToLogicalZone(d, e);
    agg.zones.push_back(std::move(e));
  }
  return agg;
}

nvme::DieUtilLog Testbed::DieUtil() const {
  if (zns_devs_.empty()) return conv_->GetDieUtilLog();
  nvme::DieUtilLog agg;
  std::uint32_t die_base = 0;
  for (const auto& dev : zns_devs_) {
    nvme::DieUtilLog one = dev->GetDieUtilLog();
    agg.elapsed_ns = std::max(agg.elapsed_ns, one.elapsed_ns);
    for (nvme::DieUtilEntry& e : one.dies) {
      e.die += die_base;
      agg.dies.push_back(e);
    }
    die_base += static_cast<std::uint32_t>(one.dies.size());
  }
  return agg;
}

std::string Testbed::LogPagesJson() const {
  std::string out = "{\"smart\":" + Smart().ToJson();
  out += ",\"die_util\":" + DieUtil().ToJson();
  if (!zns_devs_.empty()) out += ",\"zone_report\":" + ZoneReport().ToJson();
  out += "}";
  return out;
}

void Testbed::Finish() {
  if (finished_ || telem_ == nullptr) return;
  finished_ = true;
  if (sampler_ != nullptr || !lane_samplers_.empty()) {
    // Close out the timeline: emit die-busy windows still open at end of
    // run, then a final partial-interval sample so no activity after the
    // last tick is lost.
    for (auto& dev : zns_devs_) {
      if (dev->flash() != nullptr) dev->flash()->FlushDieWindows();
    }
    if (conv_ != nullptr) conv_->flash().FlushDieWindows();
    for (auto& s : lane_samplers_) s->SampleFinal();
    if (sampler_ != nullptr) sampler_->SampleFinal();
  }
  for (std::size_t d = 0; d < lane_telems_.size(); ++d) {
    telemetry::MetricsRegistry& lm = lane_telems_[d]->metrics();
    // Final batch export so each lane registry holds end-of-run values
    // even when no timeline sampler ever refreshed it.
    DescribeDevice(*zns_devs_[d], faults(d), lm);
    // Counters Add (then TakeSnapshot's Set-based describes overwrite
    // the sums with the authoritative totals); histograms merge — the
    // whole point, since per-command latencies live lane-side.
    telem_->metrics().MergeFrom(lm);
  }
  if (logpages_to_env_) {
    harness::BenchEnv::Get().AddLogPages(label_, LogPagesJson());
  }
  telemetry::Snapshot snap = TakeSnapshot();
  if (report_to_env_) {
    harness::BenchEnv::Get().AddSnapshot(label_, std::move(snap));
  }
  // Replay buffered lane telemetry into the real outputs in fixed lane
  // order (coordinator, then devices) — byte-identical output for any
  // worker-thread count.
  if (final_sink_ != nullptr) {
    for (auto& lane : lane_captures_) lane->trace.ReplayInto(*final_sink_);
    final_sink_->Flush();
  }
  if (final_timeline_ != nullptr) {
    for (auto& lane : lane_captures_) {
      final_timeline_->AppendRaw(lane->timeline);
      lane->timeline.clear();
    }
    final_timeline_->Flush();
  }
  telem_->Flush();
}

TestbedBuilder& TestbedBuilder::WithZnsProfile(const zns::ZnsProfile& p) {
  zns_profile_ = p;
  conv_profile_.reset();
  return *this;
}

TestbedBuilder& TestbedBuilder::WithConvProfile(const ftl::ConvProfile& p) {
  conv_profile_ = p;
  zns_profile_.reset();
  return *this;
}

TestbedBuilder& TestbedBuilder::WithDevices(std::uint32_t n) {
  num_devices_ = n;
  return *this;
}

TestbedBuilder& TestbedBuilder::WithStack(StackChoice s) {
  stack_ = s;
  return *this;
}

TestbedBuilder& TestbedBuilder::WithLbaBytes(std::uint32_t lba_bytes) {
  lba_bytes_ = lba_bytes;
  return *this;
}

TestbedBuilder& TestbedBuilder::WithTelemetry(TelemetryConfig cfg) {
  telem_cfg_ = std::move(cfg);
  return *this;
}

TestbedBuilder& TestbedBuilder::WithLabel(std::string label) {
  label_ = std::move(label);
  return *this;
}

TestbedBuilder& TestbedBuilder::WithFaults(const fault::FaultSpec& spec) {
  fault_spec_ = spec;
  return *this;
}

TestbedBuilder& TestbedBuilder::WithRetryPolicy(
    const hostif::RetryPolicy& policy) {
  retry_policy_ = policy;
  return *this;
}

TestbedBuilder& TestbedBuilder::WithSimThreads(int n) {
  // n = 0 explicitly forces the classic engine even when --sim-threads
  // is set; n >= 1 selects the parallel engine with n workers.
  ZSTOR_CHECK_MSG(n >= 0, "WithSimThreads needs n >= 0");
  sim_threads_ = n;
  return *this;
}

Testbed TestbedBuilder::Build() {
  ZSTOR_CHECK_MSG(num_devices_ >= 1, "WithDevices needs n >= 1");
  ZSTOR_CHECK_MSG(num_devices_ == 1 || !conv_profile_.has_value(),
                  "multi-device testbeds stripe ZNS devices only");
  harness::BenchEnv& env = harness::BenchEnv::Get();
  // Engine selection: the builder override wins over --sim-threads; the
  // parallel engine needs >= 2 devices to have lanes worth splitting
  // (single-device and conventional testbeds keep the classic engine).
  const int sim_threads = sim_threads_.value_or(env.sim_threads_requested());
  const bool parallel =
      sim_threads >= 1 && num_devices_ >= 2 && !conv_profile_.has_value();
  Testbed tb;
  if (parallel) {
    tb.psim_ = std::make_unique<sim::ParallelSimulator>(num_devices_ + 1,
                                                        kInterconnectHop);
    // Only the coordinator originates work between messages (workload
    // workers, rate limiters, retry timers); device lanes react.
    tb.psim_->SetSpontaneous(0, true);
    tb.sim_threads_ = sim_threads;
  } else {
    tb.sim_ = std::make_unique<sim::Simulator>();
  }
  auto host_sim = [&tb]() -> sim::Simulator& { return tb.sim(); };
  auto dev_sim = [&tb, parallel](std::uint32_t d) -> sim::Simulator& {
    return parallel ? tb.psim_->lane(1 + d) : *tb.sim_;
  };
  auto device = [&tb](std::uint32_t d) -> zns::ControllerCore& {
    if (tb.conv_ != nullptr) return *tb.conv_;
    return *tb.zns_devs_[d];
  };

  // Devices.
  if (conv_profile_.has_value()) {
    tb.conv_ = std::make_unique<ftl::ConvDevice>(*tb.sim_, *conv_profile_);
  } else {
    const zns::ZnsProfile base = zns_profile_.value_or(zns::Zn540Profile());
    for (std::uint32_t d = 0; d < num_devices_; ++d) {
      zns::ZnsProfile p = base;
      // Distinct per-device noise streams; devices are otherwise twins.
      p.seed = DeviceSeed(base.seed, d);
      tb.zns_devs_.push_back(
          std::make_unique<zns::ZnsDevice>(dev_sim(d), p, lba_bytes_));
    }
  }

  // Faults: explicit builder spec wins; otherwise the --faults flag
  // applies to every testbed the bench builds. Every device draws from a
  // private plan — same spec, per-device seed — so one device's faults
  // never depend on another's traffic, nor on thread interleaving under
  // the parallel engine; a one-shot `sched=` fault fires once per device.
  fault::FaultSpec fspec =
      fault_spec_.value_or(env.faults_requested() ? env.fault_spec()
                                                  : fault::FaultSpec{});
  if (fspec.enabled) {
    for (std::uint32_t d = 0; d < num_devices_; ++d) {
      fault::FaultSpec per_dev = fspec;
      per_dev.seed = DeviceSeed(fspec.seed, d);
      tb.faults_.push_back(std::make_unique<fault::FaultPlan>(per_dev));
      device(d).AttachFaultPlan(tb.faults_.back().get());
    }
  }

  // Host stack(s): one per device via the shared factory; a multi-device
  // set is striped into one logical namespace. Under the parallel engine
  // each device's stack lives in that device's lane, the coordinator's
  // StripedStack reaches it through a MailboxStack proxy, and a
  // StripeLaneView per device serves sharded workers locally.
  if (num_devices_ == 1) {
    hostif::MadeStack made =
        hostif::MakeStack(stack_, *tb.sim_, tb.controller());
    tb.kernel_ = made.kernel;
    tb.stack_ = std::move(made.stack);
  } else {
    std::vector<std::unique_ptr<hostif::Stack>> lanes;
    lanes.reserve(num_devices_);
    for (std::uint32_t d = 0; d < num_devices_; ++d) {
      auto dev_stack =
          hostif::MakeStack(stack_, dev_sim(d), *tb.zns_devs_[d]).stack;
      if (!parallel) {
        lanes.push_back(std::move(dev_stack));
        continue;
      }
      tb.lane_stacks_.push_back(std::move(dev_stack));
      lanes.push_back(std::make_unique<hostif::MailboxStack>(
          *tb.psim_, /*host_lane=*/0, /*dev_lane=*/1 + d,
          *tb.lane_stacks_.back()));
    }
    auto striped =
        std::make_unique<hostif::StripedStack>(host_sim(), std::move(lanes));
    tb.striped_ = striped.get();
    tb.stack_ = std::move(striped);
    for (std::uint32_t d = 0; d < tb.lane_stacks_.size(); ++d) {
      tb.lane_views_.push_back(std::make_unique<hostif::StripeLaneView>(
          dev_sim(d), *tb.lane_stacks_[d], tb.striped_->map(), d,
          tb.striped_->info()));
    }
  }

  // Host resilience: wrap the stack when a policy was given, or by
  // default whenever faults are injected (a fault run without host
  // retries is almost never what an experiment wants; pass
  // WithRetryPolicy({.max_attempts = 1}) to observe raw errors).
  if (retry_policy_.has_value() || fspec.enabled) {
    tb.inner_stack_ = std::move(tb.stack_);
    auto resilient = std::make_unique<hostif::ResilientStack>(
        host_sim(), *tb.inner_stack_,
        retry_policy_.value_or(hostif::RetryPolicy{}));
    tb.resilient_ = resilient.get();
    tb.stack_ = std::move(resilient);
  }

  // Telemetry: explicit config wins; otherwise the bench flags decide.
  sim::Time sample_interval = sim::Milliseconds(100);
  if (telem_cfg_.has_value()) {
    tb.telem_ = std::make_unique<telemetry::Telemetry>();
    if (telem_cfg_->ring_capacity > 0) {
      tb.ring_ =
          std::make_unique<telemetry::RingBufferSink>(telem_cfg_->ring_capacity);
      tb.telem_->SetSink(tb.ring_.get());
    }
    sample_interval = telem_cfg_->sample_interval;
    if (telem_cfg_->timeline_capture != nullptr) {
      tb.capture_ = std::make_unique<telemetry::TimelineWriter>(
          telem_cfg_->timeline_capture);
      tb.capture_->set_die_merge_gap_ns(
          telemetry::TimelineWriter::DefaultMergeGap(sample_interval));
      tb.telem_->SetTimeline(tb.capture_.get());
    }
  } else if (env.telemetry_requested()) {
    tb.telem_ = std::make_unique<telemetry::Telemetry>();
    tb.telem_->SetSink(env.shared_sink());
    if (env.timeline_requested()) {
      tb.telem_->SetTimeline(env.shared_timeline());
      sample_interval = env.sample_interval();
    }
    tb.report_to_env_ = true;
    tb.logpages_to_env_ = env.logpages_requested();
  }
  if (tb.telem_ != nullptr) {
    tb.label_ = label_.empty() ? env.NextLabel() : label_;
    // Sweep benches rebuild same-labeled testbeds per point, each
    // restarting virtual time at 0 — in the shared timeline file those
    // must stay distinct record groups ("gc-conv", "gc-conv#2", ...).
    tb.telem_->set_timeline_label(
        telem_cfg_.has_value() ? tb.label_
                               : env.UniqueTimelineLabel(tb.label_));
    // Trace ids: one epoch per testbed, one id lane per engine lane (the
    // classic engine's one simulator is lane 0 for every device).
    const std::uint64_t epoch = NextIdEpoch();
    tb.telem_->tracer().SetIdNamespace(epoch, 0);
    if (parallel) {
      // Each lane buffers its telemetry privately during the run (a
      // shared sink or writer would interleave nondeterministically and
      // race); Finish replays the buffers into the real outputs in lane
      // order.
      tb.final_sink_ = tb.telem_->tracer().sink();
      tb.final_timeline_ = tb.telem_->timeline();
      auto capture_lane = [&tb](telemetry::Telemetry& t) {
        auto& lane = tb.lane_captures_.emplace_back(
            std::make_unique<Testbed::LaneCapture>());
        if (tb.final_sink_ != nullptr) t.SetSink(&lane->trace);
        if (tb.final_timeline_ != nullptr) {
          lane->writer.set_die_merge_gap_ns(
              tb.final_timeline_->die_merge_gap_ns());
          t.SetTimeline(&lane->writer);
        }
      };
      capture_lane(*tb.telem_);
      for (std::uint32_t d = 0; d < num_devices_; ++d) {
        auto lt = std::make_unique<telemetry::Telemetry>();
        lt->tracer().SetIdNamespace(epoch, 1 + d);
        lt->set_timeline_label(tb.telem_->timeline_label() + "/lane" +
                               std::to_string(d));
        capture_lane(*lt);
        tb.lane_telems_.push_back(std::move(lt));
      }
    }
    for (std::uint32_t d = 0; d < num_devices_; ++d) {
      telemetry::Telemetry* t =
          parallel ? tb.lane_telems_[d].get() : tb.telem_.get();
      device(d).AttachTelemetry(t, d);
      if (parallel) {
        tb.lane_stacks_[d]->AttachTelemetry(t);
        tb.lane_views_[d]->AttachTelemetry(t);
      }
    }
    tb.stack_->AttachTelemetry(tb.telem_.get());
    if (tb.telem_->timeline() != nullptr) {
      tb.sampler_ = std::make_unique<telemetry::MetricSampler>(
          host_sim(), tb.telem_->metrics(), *tb.telem_->timeline(),
          sample_interval, tb.telem_->timeline_label());
      // The refresh hook re-exports batch counters before each sample so
      // deltas reflect live device state, not the last TakeSnapshot().
      // Captures raw layer pointers (stable), never &tb (Testbed moves).
      // Under the parallel engine the coordinator's hook reads ONLY
      // coordinator-lane state (stripe proxies, retry layer): device and
      // fault counters mutate concurrently in other lanes and are
      // sampled by the per-lane hooks below instead.
      const LayerPtrs layers = LayersOf(tb, /*devices=*/!parallel);
      telemetry::MetricsRegistry* m = &tb.telem_->metrics();
      tb.sampler_->SetRefresh([layers, m] {
        DescribeLayers(layers, *m, /*per_lane=*/true);
      });
      for (std::uint32_t d = 0; d < tb.lane_telems_.size(); ++d) {
        telemetry::Telemetry& lt = *tb.lane_telems_[d];
        auto s = std::make_unique<telemetry::MetricSampler>(
            dev_sim(d), lt.metrics(), *lt.timeline(), sample_interval,
            lt.timeline_label());
        s->SetRefresh([dev = tb.zns(d), fp = tb.faults(d), lm = &lt.metrics()] {
          DescribeDevice(*dev, fp, *lm);
        });
        tb.lane_samplers_.push_back(std::move(s));
      }
    }
  }
  return tb;
}

}  // namespace zstor
