#include "workloads.h"

#include <cstdio>
#include <memory>

#include "stats.h"
#include "workload/runner.h"

namespace perfbench {

using namespace zstor;
using nvme::Opcode;
using workload::JobResult;
using workload::JobSpec;
using Clock = std::chrono::steady_clock;

namespace {

// Job lengths in virtual time, sized so one repetition costs about half a
// host second in a Release build on a 4-core x86 machine.
constexpr Time kConvJobs = sim::Milliseconds(600);
constexpr Time kZnsJobs = sim::Milliseconds(1600);
constexpr std::uint64_t kKvOps = 40000;
constexpr Time kStripeJobs = sim::Milliseconds(500);

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Steps `s` in slices of `slice` until no events remain, timing each.
void StepToIdle(sim::Simulator& s, Time slice, RepResult& r) {
  while (!s.idle()) {
    const auto t0 = Clock::now();
    s.RunUntil(s.now() + slice);
    r.slice_ms.push_back(SecondsSince(t0) * 1e3);
  }
}

/// Runs `specs` concurrently on a classic testbed, sliced or in one call.
std::vector<JobResult> RunClassicJobs(Testbed& tb,
                                      const std::vector<JobSpec>& specs,
                                      Time slice, const RunOptions& opt,
                                      RepResult& r) {
  const auto t0 = Clock::now();
  std::vector<JobResult> out;
  if (!opt.sliced) {
    out = tb.RunJobs(specs);
  } else {
    tb.EnsureSamplersRunning();
    std::vector<std::unique_ptr<workload::Job>> jobs;
    for (const JobSpec& s : specs) {
      jobs.push_back(std::make_unique<workload::Job>(tb.sim(), tb.stack(), s));
      jobs.back()->Start();
    }
    StepToIdle(tb.sim(), slice, r);
    for (auto& j : jobs) {
      ZSTOR_CHECK(j->Done());
      out.push_back(j->result());
    }
  }
  r.measured_s = SecondsSince(t0);
  return out;
}

// ---- conv-gc -------------------------------------------------------------

RepResult RunConvGc(std::uint64_t seed, const RunOptions& opt) {
  RepResult r;
  auto t0 = Clock::now();
  TestbedBuilder b;
  b.WithConvProfile(ConvGcProfile()).WithLabel("conv-gc");
  if (opt.telemetry) b.WithTelemetry(*opt.telemetry);
  Testbed tb = b.Build();
  tb.conv()->DebugPrefill();
  r.setup_s = SecondsSince(t0);
  auto jobs = RunClassicJobs(tb, ConvGcJobs(seed), sim::Milliseconds(10),
                             opt, r);
  AddConvOutputs(r.out, *tb.conv());
  TallyJobs(r, jobs);
  return r;
}

// ---- zns-mixed -----------------------------------------------------------

RepResult RunZnsMixed(std::uint64_t seed, const RunOptions& opt) {
  RepResult r;
  auto t0 = Clock::now();
  TestbedBuilder b;
  b.WithZnsProfile(zns::Zn540Profile())
      .WithStack(StackChoice::kKernelMq)
      .WithLabel("zns-mixed");
  if (opt.telemetry) b.WithTelemetry(*opt.telemetry);
  Testbed tb = b.Build();
  tb.FillZones(8, 8 + kZnsResetZones);
  r.setup_s = SecondsSince(t0);
  auto jobs = RunClassicJobs(tb, ZnsMixedJobs(seed), sim::Microseconds(1500),
                             opt, r);
  AddDeviceOutputs(r.out, *tb.zns(), "zns");
  AddSchedulerOutputs(r.out, tb.kernel()->scheduler_stats());
  TallyJobs(r, jobs);
  return r;
}

// ---- kv-ycsb -------------------------------------------------------------

RepResult RunKvYcsb(std::uint64_t seed, const RunOptions& opt) {
  RepResult r;
  auto t0 = Clock::now();
  TestbedBuilder b;
  b.WithZnsProfile(KvProfile()).WithLabel("kv-ycsb");
  if (opt.telemetry) b.WithTelemetry(*opt.telemetry);
  Testbed tb = b.Build();
  zkv::KvStore kv(tb.sim(), tb.stack(), KvOptions());
  kv.AttachTelemetry(tb.telemetry());
  workload::YcsbRunner runner(tb.sim(), kv, KvSpec(seed));
  tb.EnsureSamplersRunning();
  sim::Spawn(KvLoad(&runner, &kv));
  tb.sim().Run();
  r.setup_s = SecondsSince(t0);

  t0 = Clock::now();
  KvFlowOut flow;
  sim::Spawn(KvRun(&runner, &kv, &flow));
  if (opt.sliced) {
    StepToIdle(tb.sim(), sim::Milliseconds(20), r);
  } else {
    tb.sim().Run();
  }
  r.measured_s = SecondsSince(t0);
  ZSTOR_CHECK(flow.done);
  AddKvOutputs(r.out, flow.res, kv.stats());
  AddDeviceOutputs(r.out, *tb.zns(), "zns");
  r.ops = flow.res.ops;
  r.failed = flow.res.errors;
  r.attempted = r.ops + r.failed;
  return r;
}

// ---- stripe4 -------------------------------------------------------------

/// Records host time per virtual `slice` from inside the coordinator lane
/// (ParallelSimulator has no stepping call). The ticker only reads the
/// host clock, so it cannot change any simulated outcome; the oracle
/// check proves that on every run.
sim::Task<> SliceTicker(sim::Simulator* lane0, Time slice, Time until,
                        std::vector<double>* out) {
  auto last = Clock::now();
  for (Time t = slice; t <= until; t += slice) {
    co_await lane0->Delay(slice);
    const auto now = Clock::now();
    out->push_back(std::chrono::duration<double, std::milli>(now - last)
                       .count());
    last = now;
  }
}

RepResult RunStripe4(std::uint64_t seed, const RunOptions& opt) {
  RepResult r;
  auto t0 = Clock::now();
  TestbedBuilder b;
  b.WithZnsProfile(zns::Zn540Profile())
      .WithDevices(kStripeDevices)
      .WithStack(StackChoice::kSpdk)
      .WithSimThreads(opt.sim_threads)
      .WithLabel("stripe4");
  if (opt.telemetry) b.WithTelemetry(*opt.telemetry);
  Testbed tb = b.Build();
  tb.FillZones(8, 8);
  r.setup_s = SecondsSince(t0);

  t0 = Clock::now();
  const std::vector<JobSpec> specs = Stripe4Jobs(seed);
  if (opt.sliced) {
    sim::Spawn(SliceTicker(&tb.sim(), sim::Microseconds(500),
                           specs[0].duration, &r.slice_ms));
  }
  std::vector<JobResult> jobs = tb.RunJobs(specs);
  r.measured_s = SecondsSince(t0);
  if (tb.parallel_sim() != nullptr) {
    r.windows = tb.parallel_sim()->windows();
    r.messages = tb.parallel_sim()->messages();
  }
  for (std::uint32_t d = 0; d < kStripeDevices; ++d) {
    AddDeviceOutputs(r.out, *tb.zns(d), "zns" + std::to_string(d));
  }
  TallyJobs(r, jobs);
  return r;
}

}  // namespace

// ---- Outputs ---------------------------------------------------------------

void Outputs::Add(const std::string& name, std::uint64_t v) {
  kv_.emplace_back(name, std::to_string(v));
}

void Outputs::Add(const std::string& name, double v) {
  kv_.emplace_back(name, Num(v));
}

void Outputs::AddJob(const std::string& p, const JobResult& r) {
  Add(p + ".ops", r.ops);
  Add(p + ".bytes", r.bytes);
  Add(p + ".errors", r.errors);
  Add(p + ".lat_mean_ns", r.latency.count() ? r.latency.mean_ns() : 0.0);
  Add(p + ".read_p50_ns", r.read_latency.count() ? r.read_latency.p50_ns()
                                                 : 0.0);
  Add(p + ".read_p99_ns", r.read_latency.count() ? r.read_latency.p99_ns()
                                                 : 0.0);
  Add(p + ".write_p50_ns", r.write_latency.count() ? r.write_latency.p50_ns()
                                                   : 0.0);
  Add(p + ".write_p99_ns", r.write_latency.count() ? r.write_latency.p99_ns()
                                                   : 0.0);
  Add(p + ".resets", r.reset_latency.count());
}

std::string Outputs::Json() const {
  std::string s = "{";
  for (std::size_t i = 0; i < kv_.size(); ++i) {
    if (i != 0) s += ",";
    s += "\"" + kv_[i].first + "\":\"" + kv_[i].second + "\"";
  }
  return s + "}";
}

std::string Outputs::FirstDifference(const Outputs& o) const {
  for (std::size_t i = 0; i < kv_.size() || i < o.kv_.size(); ++i) {
    if (i >= kv_.size() || i >= o.kv_.size()) return "entry count differs";
    if (kv_[i] != o.kv_[i]) {
      return kv_[i].first + ": " + kv_[i].second + " vs " + o.kv_[i].first +
             ": " + o.kv_[i].second;
    }
  }
  return "";
}

// ---- workload definitions ------------------------------------------------

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

ftl::ConvProfile ConvGcProfile() { return ftl::Sn640Profile(); }

std::vector<JobSpec> ConvGcJobs(std::uint64_t seed) {
  // The Fig. 6 conventional arm: 4 x QD8 random 128 KiB writes beside
  // QD32 random 4 KiB reads, on an aged (prefilled) drive.
  JobSpec w;
  w.op = Opcode::kWrite;
  w.random = true;
  w.request_bytes = 128 * 1024;
  w.queue_depth = 8;
  w.workers = 4;
  w.duration = kConvJobs;
  w.seed = MixSeed(seed, 1);
  JobSpec rd;
  rd.op = Opcode::kRead;
  rd.random = true;
  rd.request_bytes = 4096;
  rd.queue_depth = 32;
  rd.duration = kConvJobs;
  rd.seed = MixSeed(seed, 2);
  return {w, rd};
}

std::vector<JobSpec> ZnsMixedJobs(std::uint64_t seed) {
  // Merged sequential writes (Obs. 7), random reads on full zones, and a
  // reset thread over full zones (Fig. 7), all at once.
  JobSpec w;
  w.op = Opcode::kWrite;
  w.request_bytes = 4096;
  w.queue_depth = 32;
  w.workers = 4;
  w.partition_zones = true;
  w.zones = {0, 1, 2, 3, 4, 5, 6, 7};
  w.duration = kZnsJobs;
  w.seed = MixSeed(seed, 1);
  JobSpec rd;
  rd.op = Opcode::kRead;
  rd.random = true;
  rd.request_bytes = 4096;
  rd.queue_depth = 32;
  rd.zones = {8, 9, 10, 11, 12, 13, 14, 15};
  rd.duration = kZnsJobs;
  rd.seed = MixSeed(seed, 2);
  JobSpec reset;
  reset.op = Opcode::kZoneMgmtSend;
  reset.zone_action = nvme::ZoneAction::kReset;
  for (std::uint32_t z = 16; z < 16 + kZnsResetZones; ++z) {
    reset.zones.push_back(z);
  }
  reset.duration = kZnsJobs;
  reset.seed = MixSeed(seed, 3);
  return {w, rd, reset};
}

zns::ZnsProfile KvProfile() {
  // The tiny profile stretched to 32 zones, as bench_kv uses it.
  zns::ZnsProfile p = zns::TinyProfile();
  p.num_zones = 32;
  p.max_open_zones = 8;
  p.max_active_zones = 10;
  p.nand_geometry.blocks_per_die = 96;
  return p;
}

zkv::KvStore::Options KvOptions() {
  // bench_kv's churn shape (small memtable, eager L0 compaction) over
  // the whole 32-zone device.
  zkv::KvStore::Options o;
  o.zone_count = 32;
  o.memtable_bytes = 64 * 1024;
  o.l0_compact_trigger = 2;
  o.l0_stall_limit = 4;
  return o;
}

workload::YcsbSpec KvSpec(std::uint64_t seed) {
  workload::YcsbSpec s;
  s.mix = workload::YcsbMix::kA;
  s.record_count = 2048;
  s.operations = kKvOps;
  s.value_bytes = 4096;
  s.zipf_theta = 0.99;
  s.workers = 4;
  s.seed = MixSeed(seed, 1);
  return s;
}

std::vector<JobSpec> Stripe4Jobs(std::uint64_t seed) {
  // Appends at QD4 per device: worker w owns logical zones {w, w + 4},
  // both on device w, so the parallel engine runs it inside that
  // device's lane. One reader spans every device and stays on the
  // coordinator, so its commands cross the lane mailboxes.
  JobSpec ap;
  ap.op = Opcode::kAppend;
  ap.request_bytes = 4096;
  ap.queue_depth = 4;
  ap.workers = kStripeDevices;
  ap.partition_zones = true;
  ap.zones = {0, 4, 1, 5, 2, 6, 3, 7};
  ap.duration = kStripeJobs;
  ap.seed = MixSeed(seed, 1);
  JobSpec rd;
  rd.op = Opcode::kRead;
  rd.random = true;
  rd.request_bytes = 4096;
  rd.queue_depth = 16;
  rd.zones = {8, 9, 10, 11, 12, 13, 14, 15};
  rd.duration = kStripeJobs;
  rd.seed = MixSeed(seed, 2);
  return {ap, rd};
}

void TallyJobs(RepResult& r, const std::vector<JobResult>& jobs) {
  AddJobOutputs(r.out, jobs);
  for (const JobResult& j : jobs) {
    r.ops += j.ops;
    r.failed += j.errors;
  }
  r.attempted = r.ops + r.failed;
}

void AddJobOutputs(Outputs& out, const std::vector<JobResult>& jobs) {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    out.AddJob("job" + std::to_string(i), jobs[i]);
  }
}

void AddSchedulerOutputs(Outputs& out, const hostif::SchedulerStats& s) {
  out.Add("sched.staged_writes", s.staged_writes);
  out.Add("sched.dispatched_writes", s.dispatched_writes);
  out.Add("sched.merged_writes", s.merged_writes);
}

void AddDeviceOutputs(Outputs& out, zns::ZnsDevice& dev,
                      const std::string& p) {
  const zns::ZnsCounters& c = dev.counters();
  out.Add(p + ".reads", c.reads);
  out.Add(p + ".writes", c.writes);
  out.Add(p + ".appends", c.appends);
  out.Add(p + ".resets", c.resets);
  out.Add(p + ".flushes", c.flushes);
  out.Add(p + ".implicit_opens", c.implicit_opens);
  out.Add(p + ".zone_transitions", c.zone_transitions);
  out.Add(p + ".bytes_written", c.bytes_written);
  out.Add(p + ".bytes_read", c.bytes_read);
  out.Add(p + ".host_rejects", c.host_rejects);
  const nand::FlashCounters& f = dev.flash()->counters();
  out.Add(p + ".nand.page_reads", f.page_reads);
  out.Add(p + ".nand.page_programs", f.page_programs);
  out.Add(p + ".nand.block_erases", f.block_erases);
}

void AddConvOutputs(Outputs& out, ftl::ConvDevice& dev) {
  const ftl::ConvCounters& c = dev.counters();
  out.Add("conv.reads", c.reads);
  out.Add("conv.writes", c.writes);
  out.Add("conv.host_units_programmed", c.host_units_programmed);
  out.Add("conv.gc_invocations", c.gc_invocations);
  out.Add("conv.gc_units_migrated", c.gc_units_migrated);
  out.Add("conv.gc_blocks_erased", c.gc_blocks_erased);
  out.Add("conv.journal_units_written", c.journal_units_written);
  out.Add("conv.write_amplification", c.WriteAmplification());
  const nand::FlashCounters& f = dev.flash().counters();
  out.Add("conv.nand.page_reads", f.page_reads);
  out.Add("conv.nand.page_programs", f.page_programs);
  out.Add("conv.nand.block_erases", f.block_erases);
}

void AddKvOutputs(Outputs& out, const workload::YcsbResult& res,
                  const zkv::KvStats& st) {
  out.Add("ycsb.ops", res.ops);
  out.Add("ycsb.reads", res.reads);
  out.Add("ycsb.updates", res.updates);
  out.Add("ycsb.not_found", res.not_found);
  out.Add("ycsb.errors", res.errors);
  out.Add("ycsb.span_ns", static_cast<std::uint64_t>(res.span));
  out.Add("ycsb.read_p50_ns", res.read_latency.count()
                                  ? res.read_latency.p50_ns() : 0.0);
  out.Add("ycsb.read_p99_ns", res.read_latency.count()
                                  ? res.read_latency.p99_ns() : 0.0);
  out.Add("ycsb.update_p50_ns", res.update_latency.count()
                                    ? res.update_latency.p50_ns() : 0.0);
  out.Add("ycsb.update_p99_ns", res.update_latency.count()
                                    ? res.update_latency.p99_ns() : 0.0);
  out.Add("kv.puts", st.puts);
  out.Add("kv.gets", st.gets);
  out.Add("kv.found", st.found);
  out.Add("kv.user_bytes", st.user_bytes);
  out.Add("kv.wal_appends", st.wal_appends);
  out.Add("kv.wal_bytes", st.wal_bytes);
  out.Add("kv.wal_resets", st.wal_resets);
  out.Add("kv.flushes", st.flushes);
  out.Add("kv.flush_bytes", st.flush_bytes);
  out.Add("kv.compactions", st.compactions);
  out.Add("kv.compact_bytes_read", st.compact_bytes_read);
  out.Add("kv.compact_bytes_written", st.compact_bytes_written);
  out.Add("kv.gc_passes", st.gc_passes);
  out.Add("kv.gc_relocated_bytes", st.gc_relocated_bytes);
  out.Add("kv.zone_resets", st.zone_resets);
  out.Add("kv.write_stall_ns", st.write_stall_ns);
  out.Add("kv.read_ios", st.read_ios);
  out.Add("kv.read_tag_mismatches", st.read_tag_mismatches);
  out.Add("kv.write_amplification", st.WriteAmplification());
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> all = {
      {"conv-gc", RunConvGc},
      {"zns-mixed", RunZnsMixed},
      {"kv-ycsb", RunKvYcsb},
      {"stripe4", RunStripe4},
  };
  return all;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
