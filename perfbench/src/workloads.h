// The benchmark's four fixed workloads, each run end to end through the
// public APIs (TestbedBuilder, workload::Job, workload::YcsbRunner,
// zkv::KvStore, sim::Simulator::RunUntil).
//
// A workload is fully determined by its input seed. Every run yields two
// kinds of numbers: virtual-time outputs (the simulator's results, checked
// byte for byte against the recorded oracle) and host-time costs (what
// the benchmark reports and gates).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ftl/conv_profile.h"
#include "harness/testbed.h"
#include "workload/job.h"
#include "workload/ycsb.h"
#include "zkv/kv_store.h"
#include "zns/profile.h"

namespace perfbench {

using zstor::sim::Time;

/// Virtual-time outputs of one run as ordered name/value pairs. Values are
/// kept as exact decimal strings so two runs compare byte for byte.
class Outputs {
 public:
  void Add(const std::string& name, std::uint64_t v);
  void Add(const std::string& name, double v);
  void AddJob(const std::string& prefix, const zstor::workload::JobResult& r);
  std::string Json() const;
  bool operator==(const Outputs& o) const { return kv_ == o.kv_; }
  /// First differing entry, for diagnostics ("" when equal).
  std::string FirstDifference(const Outputs& o) const;

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

/// One repetition of a workload: set-up, then the measured phase.
struct RepResult {
  Outputs out;
  double setup_s = 0;     // host seconds: build + preconditioning (+ load)
  double measured_s = 0;  // host seconds of the measured phase
  std::uint64_t ops = 0;  // operations completed (fio I/Os or YCSB ops)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t windows = 0, messages = 0;  // parallel engine only
  std::vector<double> slice_ms;  // host ms per fixed virtual-time slice
};

/// Adds the jobs' virtual outputs to `r` and counts their operations: an
/// attempt is a completed operation or a failed one (JobResult::errors).
void TallyJobs(RepResult& r,
               const std::vector<zstor::workload::JobResult>& jobs);

struct RunOptions {
  /// Step the measured phase in fixed virtual-time slices and time each
  /// one; otherwise run it in one call (the oracle's reference drive).
  bool sliced = true;
  /// Telemetry for the testbed; unset = telemetry off.
  std::optional<zstor::TelemetryConfig> telemetry;
  /// Parallel-engine worker threads for stripe4 (0 = classic engine).
  /// One thread runs the engine's exact window and mailbox schedule
  /// serially; with two, each window adds a cross-core barrier whose cost
  /// on a small shared machine swamps the simulation and swings from run
  /// to run, so the traced run measures that separately
  /// (psim.thread_speedup).
  int sim_threads = 1;
};

// ---- workload definitions (shared with the traced ladder) -------------
zstor::ftl::ConvProfile ConvGcProfile();
std::vector<zstor::workload::JobSpec> ConvGcJobs(std::uint64_t seed);

/// zns-mixed zones: writers own [0, 8), readers read [8, 16), the reset
/// thread walks [16, 16 + kZnsResetZones); everything from 8 is pre-filled.
inline constexpr std::uint32_t kZnsResetZones = 160;
std::vector<zstor::workload::JobSpec> ZnsMixedJobs(std::uint64_t seed);

zstor::zns::ZnsProfile KvProfile();
zstor::zkv::KvStore::Options KvOptions();
zstor::workload::YcsbSpec KvSpec(std::uint64_t seed);

inline constexpr std::uint32_t kStripeDevices = 4;
std::vector<zstor::workload::JobSpec> Stripe4Jobs(std::uint64_t seed);

/// Virtual outputs shared by every drive of a workload, in this order:
/// device counters (+ scheduler counters), then job or YCSB/KV results.
void AddJobOutputs(Outputs& out,
                   const std::vector<zstor::workload::JobResult>& jobs);
void AddSchedulerOutputs(Outputs& out, const zstor::hostif::SchedulerStats& s);
void AddDeviceOutputs(Outputs& out, zstor::zns::ZnsDevice& dev,
                      const std::string& prefix);
void AddConvOutputs(Outputs& out, zstor::ftl::ConvDevice& dev);
void AddKvOutputs(Outputs& out, const zstor::workload::YcsbResult& res,
                  const zstor::zkv::KvStats& st);

/// The kv-ycsb flow: the load phase and its drain are set-up, the run
/// phase and its drain are measured. `Kv` is zkv::KvStore or a decorator
/// with the same Drain().
struct KvFlowOut {
  zstor::workload::YcsbResult res;
  bool done = false;
};

template <typename Kv>
zstor::sim::Task<> KvLoad(zstor::workload::YcsbRunner* runner, Kv* kv) {
  co_await runner->Load();
  co_await kv->Drain();
}

template <typename Kv>
zstor::sim::Task<> KvRun(zstor::workload::YcsbRunner* runner, Kv* kv,
                         KvFlowOut* out) {
  out->res = co_await runner->Run();
  co_await kv->Drain();
  out->done = true;
}

struct Workload {
  const char* name;
  RepResult (*run)(std::uint64_t seed, const RunOptions& opt);
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

/// Deterministic per-purpose seed derivation (splitmix64).
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench
