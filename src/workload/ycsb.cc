#include "workload/ycsb.h"

#include <utility>

#include "sim/check.h"
#include "sim/rng.h"
#include "workload/zipf.h"

namespace zstor::workload {

YcsbRunner::YcsbRunner(sim::Simulator& s, KvBackend& kv, YcsbSpec spec)
    : sim_(s), kv_(kv), spec_(spec) {
  ZSTOR_CHECK(spec_.record_count > 0);
  ZSTOR_CHECK(spec_.workers > 0);
  ZSTOR_CHECK(spec_.zipf_theta >= 0.0 && spec_.zipf_theta < 1.0);
}

std::uint64_t YcsbRunner::RankToKey(std::uint64_t rank) const {
  // FNV-1a over the rank's bytes, folded into the key space.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int i = 0; i < 8; ++i) {
    h ^= (rank >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h % spec_.record_count;
}

sim::Task<> YcsbRunner::LoadWorker(std::uint64_t first, std::uint64_t count,
                                   sim::WaitGroup* wg) {
  for (std::uint64_t i = 0; i < count; ++i) {
    co_await kv_.Put(first + i, spec_.value_bytes);
  }
  wg->Done();
}

sim::Task<> YcsbRunner::Load() {
  sim::WaitGroup wg(sim_);
  const std::uint64_t per =
      (spec_.record_count + spec_.workers - 1) / spec_.workers;
  for (std::uint64_t first = 0; first < spec_.record_count; first += per) {
    const std::uint64_t count =
        std::min<std::uint64_t>(per, spec_.record_count - first);
    wg.Add();
    sim::Spawn(LoadWorker(first, count, &wg));
  }
  co_await wg.Wait();
}

sim::Task<> YcsbRunner::RunWorker(std::uint32_t worker, std::uint64_t ops,
                                  YcsbResult* out, sim::WaitGroup* wg) {
  sim::Rng rng(spec_.seed * 0x9E3779B97F4A7C15ull + worker + 1);
  // Each worker owns a generator: ZipfGenerator::Next is const but the
  // draw order must be private to keep worker streams independent.
  ZipfGenerator zipf(spec_.record_count,
                     spec_.zipf_theta > 0.0 ? spec_.zipf_theta : 0.5);
  for (std::uint64_t i = 0; i < ops; ++i) {
    const std::uint64_t rank = spec_.zipf_theta > 0.0
                                   ? zipf.Next(rng)
                                   : rng.UniformU64(spec_.record_count);
    const std::uint64_t key = RankToKey(rank);
    // Mix probabilities (YCSB core): read fraction first, remainder is
    // the mix's write-flavored op.
    double read_frac = 0.5;
    bool rmw = false;
    switch (spec_.mix) {
      case YcsbMix::kA: read_frac = 0.5; break;
      case YcsbMix::kB: read_frac = 0.95; break;
      case YcsbMix::kC: read_frac = 1.0; break;
      case YcsbMix::kF: read_frac = 0.5; rmw = true; break;
    }
    const bool is_read = rng.UniformDouble() < read_frac;
    if (is_read) {
      const sim::Time t0 = sim_.now();
      bool found = false;
      nvme::Status st = co_await kv_.Get(key, &found);
      out->read_latency.Record(sim_.now() - t0);
      out->reads++;
      if (!found) out->not_found++;
      if (st != nvme::Status::kSuccess) out->errors++;
    } else {
      const sim::Time t0 = sim_.now();
      if (rmw) {
        bool found = false;
        nvme::Status rst = co_await kv_.Get(key, &found);
        if (rst != nvme::Status::kSuccess) out->errors++;
        if (!found) out->not_found++;
        out->rmws++;
      }
      nvme::Status st = co_await kv_.Put(key, spec_.value_bytes);
      out->update_latency.Record(sim_.now() - t0);
      out->updates++;
      if (st != nvme::Status::kSuccess) out->errors++;
    }
    out->ops++;
  }
  wg->Done();
}

sim::Task<YcsbResult> YcsbRunner::Run() {
  std::vector<YcsbResult> parts(spec_.workers);
  sim::WaitGroup wg(sim_);
  const sim::Time start = sim_.now();
  const std::uint64_t per = spec_.operations / spec_.workers;
  const std::uint64_t extra = spec_.operations % spec_.workers;
  for (std::uint32_t w = 0; w < spec_.workers; ++w) {
    const std::uint64_t ops = per + (w < extra ? 1 : 0);
    if (ops == 0) continue;
    wg.Add();
    sim::Spawn(RunWorker(w, ops, &parts[w], &wg));
  }
  co_await wg.Wait();
  YcsbResult merged;
  for (YcsbResult& p : parts) {
    merged.ops += p.ops;
    merged.reads += p.reads;
    merged.updates += p.updates;
    merged.rmws += p.rmws;
    merged.not_found += p.not_found;
    merged.errors += p.errors;
    merged.read_latency.Merge(p.read_latency);
    merged.update_latency.Merge(p.update_latency);
  }
  merged.span = sim_.now() - start;
  co_return merged;
}

}  // namespace zstor::workload
