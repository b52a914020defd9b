#include "workload/runner.h"

#include <algorithm>
#include <vector>

#include "sim/check.h"
#include "workload/zipf.h"

namespace zstor::workload {

using nvme::Command;
using nvme::Opcode;
using nvme::ZoneAction;
using sim::Time;

Job::Job(sim::Simulator& s, hostif::Stack& stack, JobSpec spec)
    : sim_(s),
      stack_(stack),
      spec_(std::move(spec)),
      join_(s),
      rng_(spec_.seed) {
  ZSTOR_CHECK(spec_.workers > 0);
  ZSTOR_CHECK(spec_.queue_depth > 0);
  ZSTOR_CHECK(spec_.request_bytes % stack_.info().format.lba_bytes == 0);
  ZSTOR_CHECK(spec_.warmup <= spec_.duration);
  if (stack_.info().zoned) {
    if (spec_.zones.empty()) {
      for (std::uint32_t z = 0; z < stack_.info().num_zones; ++z) {
        spec_.zones.push_back(z);
      }
    }
    if (spec_.op == Opcode::kWrite && spec_.workers > 1) {
      // Sequential writes need a single writer per zone.
      ZSTOR_CHECK_MSG(spec_.partition_zones,
                      "multi-worker write jobs must partition zones");
    }
  } else {
    // Conventional namespace: no zones; appends/mgmt are meaningless.
    ZSTOR_CHECK(spec_.op == Opcode::kRead || spec_.op == Opcode::kWrite);
    spec_.zones = {0};
    spec_.partition_zones = false;
  }
  if (spec_.rate_bytes_per_sec > 0) {
    double burst = std::max(static_cast<double>(spec_.request_bytes),
                            spec_.rate_bytes_per_sec * 0.01);
    bucket_ = std::make_unique<sim::TokenBucket>(
        s, spec_.rate_bytes_per_sec, burst);
  }
  result_.series = sim::TimeSeries(spec_.series_bin);
  result_.measured_span = spec_.duration - spec_.warmup;
}

std::vector<std::uint32_t> ZoneSlice(const std::vector<std::uint32_t>& zones,
                                     std::uint32_t workers,
                                     std::uint32_t wid) {
  // Contiguous even split; earlier workers take the remainder.
  std::vector<std::uint32_t> out;
  std::size_t n = zones.size();
  std::size_t base = n / workers;
  std::size_t extra = n % workers;
  std::size_t begin = wid * base + std::min<std::size_t>(wid, extra);
  std::size_t len = base + (wid < extra ? 1 : 0);
  for (std::size_t i = begin; i < begin + len; ++i) {
    out.push_back(zones[i]);
  }
  return out;
}

std::vector<std::uint32_t> Job::ZonesForWorker(std::uint32_t wid) const {
  if (!spec_.partition_zones) return spec_.zones;
  return ZoneSlice(spec_.zones, spec_.workers, wid);
}

void Job::Start() {
  ZSTOR_CHECK(!started_);
  started_ = true;
  start_time_ = sim_.now();
  end_time_ = start_time_ + spec_.duration;
  auto spawn = [this](std::uint32_t w) {
    ZSTOR_CHECK(w < spec_.workers);
    join_.Add();
    if (spec_.op == Opcode::kZoneMgmtSend) {
      sim::Spawn(MgmtWorker(w));
    } else {
      sim::Spawn(IoWorker(w));
    }
  };
  if (spec_.worker_ids.empty()) {
    for (std::uint32_t w = 0; w < spec_.workers; ++w) spawn(w);
  } else {
    // A shard of the job: only these worker ids run here, but each
    // behaves exactly as it would in the full job (same RNG stream,
    // same zone slice — both keyed on the id and the full count).
    for (std::uint32_t w : spec_.worker_ids) spawn(w);
  }
}

void Job::Stop() {
  ZSTOR_CHECK(started_);
  if (sim_.now() < end_time_) {
    end_time_ = sim_.now();
    result_.measured_span =
        end_time_ > start_time_ + spec_.warmup
            ? end_time_ - start_time_ - spec_.warmup
            : 0;
  }
}

void Job::RecordCompletion(const nvme::TimedCompletion& tc,
                           std::uint64_t bytes, bool is_read) {
  result_.series.Record(tc.completed - start_time_,
                        static_cast<double>(bytes));
  if (tc.completed < start_time_ + spec_.warmup || tc.completed > end_time_) {
    return;  // outside the measurement window
  }
  if (!tc.completion.ok()) {
    result_.errors++;
    return;
  }
  result_.latency.Record(tc.latency());
  if (is_read) {
    result_.read_latency.Record(tc.latency());
  } else {
    result_.write_latency.Record(tc.latency());
  }
  result_.ops++;
  result_.bytes += bytes;
}

sim::Task<> Job::IssueOne(Command cmd, std::uint64_t bytes,
                          sim::Semaphore* slots,
                          sim::WaitGroup* outstanding) {
  nvme::TimedCompletion tc = co_await stack_.Submit(cmd);
  RecordCompletion(tc, bytes, cmd.opcode == Opcode::kRead);
  slots->Release();
  outstanding->Done();
}

sim::Task<> Job::IoWorker(std::uint32_t wid) {
  const std::vector<std::uint32_t> zones = ZonesForWorker(wid);
  const nvme::NamespaceInfo& info = stack_.info();
  const std::uint32_t lba = info.format.lba_bytes;
  // On a conventional namespace the whole LBA space is one "region".
  const std::uint64_t cap_bytes = info.zoned
                                      ? info.zone_cap_lbas * lba
                                      : info.capacity_lbas * lba;
  const std::uint64_t zone_size_lbas = info.zoned ? info.zone_size_lbas : 0;
  const std::uint64_t req = spec_.request_bytes;
  const auto nlb = static_cast<std::uint32_t>(req / lba);
  ZSTOR_CHECK(req <= cap_bytes);
  if (zones.empty()) {
    join_.Done();
    co_return;
  }

  sim::Semaphore slots(sim_, spec_.queue_depth);
  sim::WaitGroup outstanding(sim_);
  sim::Rng rng(spec_.seed * 0x9E3779B97F4A7C15ull + wid + 1);

  std::size_t zi = 0;           // current zone index (sequential modes)
  std::uint64_t next_off = 0;   // sequential offset within current zone
  // Host-side estimate of zone fill for writers (bytes issued so far),
  // by zone id.
  std::vector<std::uint64_t> fill(
      *std::max_element(zones.begin(), zones.end()) + 1);

  // Skewed offset distribution (over request-aligned slots).
  const std::uint64_t slots_per_region = (cap_bytes - req) / req + 1;
  std::unique_ptr<ZipfGenerator> zipf;
  if (spec_.zipf_theta > 0) {
    zipf = std::make_unique<ZipfGenerator>(slots_per_region,
                                           spec_.zipf_theta);
  }
  auto random_slot = [&]() {
    return zipf ? zipf->Next(rng) : rng.UniformU64(slots_per_region);
  };
  const bool mixed = spec_.read_fraction >= 0.0;
  if (mixed) {
    ZSTOR_CHECK(spec_.read_fraction <= 1.0);
    ZSTOR_CHECK(spec_.op == Opcode::kWrite || spec_.op == Opcode::kAppend);
  }

  bool stop = false;
  while (!stop && sim_.now() < end_time_) {
    Command cmd{};
    std::uint32_t target_zone = 0;

    Opcode op_now = spec_.op;
    if (mixed && rng.UniformDouble() < spec_.read_fraction) {
      op_now = Opcode::kRead;
    }
    if (mixed && op_now == Opcode::kRead && info.zoned) {
      // Zoned mixed reads target data this worker has appended; before
      // anything exists, write instead.
      std::uint32_t z = zones[rng.UniformU64(zones.size())];
      if (fill[z] >= req) {
        std::uint64_t zslots = fill[z] / req;
        std::uint64_t off = (zipf ? zipf->Next(rng) % zslots
                                  : rng.UniformU64(zslots)) *
                            req;
        cmd = {.opcode = Opcode::kRead,
               .slba = static_cast<nvme::Lba>(z) * zone_size_lbas +
                       off / lba,
               .nlb = nlb};
        if (bucket_ != nullptr) {
          co_await bucket_->Take(static_cast<double>(req));
        }
        co_await slots.Acquire();
        if (sim_.now() >= end_time_) {
          slots.Release();
          break;
        }
        outstanding.Add();
        sim::Spawn(IssueOne(cmd, req, &slots, &outstanding));
        continue;
      }
      op_now = spec_.op;  // nothing to read yet
    }

    if (op_now == Opcode::kRead || !info.zoned) {
      // Reads (zoned or not) and conventional-namespace writes address a
      // region directly, randomly or sequentially with wraparound.
      std::uint32_t z =
          spec_.random
              ? zones[rng.UniformU64(zones.size())]
              : zones[zi++ % zones.size()];
      std::uint64_t off;
      if (spec_.random) {
        off = random_slot() * req;
      } else {
        off = next_off;
        next_off += req;
        if (next_off + req > cap_bytes) next_off = 0;
      }
      cmd = {.opcode = op_now,
             .slba = static_cast<nvme::Lba>(z) * zone_size_lbas + off / lba,
             .nlb = nlb};
    } else {
      // Writers (write or append): pick a zone with room, applying the
      // on-full policy. May need to reset (drain first) or advance.
      for (;;) {
        target_zone = spec_.random && spec_.op == Opcode::kAppend
                          ? zones[rng.UniformU64(zones.size())]
                          : zones[zi % zones.size()];
        std::uint64_t used = spec_.op == Opcode::kWrite
                                 ? next_off
                                 : fill[target_zone];
        if (used + req <= cap_bytes) break;
        if (spec_.on_full == JobSpec::OnFull::kStop) {
          stop = true;
          break;
        }
        if (spec_.on_full == JobSpec::OnFull::kAdvance) {
          ++zi;
          next_off = 0;
          if (zi >= zones.size() && spec_.op == Opcode::kWrite) {
            stop = true;  // sequential writers exhaust their zone list
            break;
          }
          if (spec_.op == Opcode::kAppend) {
            // With random zone choice, a full pool means stop.
            bool any_room = false;
            for (auto z : zones) {
              if (fill[z] + req <= cap_bytes) any_room = true;
            }
            if (!any_room) {
              stop = true;
              break;
            }
          }
          continue;
        }
        // OnFull::kReset — host-side garbage collection: drain our
        // outstanding I/O, then reset and reuse the zone.
        co_await outstanding.Wait();
        nvme::TimedCompletion tc = co_await stack_.Submit(
            {.opcode = Opcode::kZoneMgmtSend,
             .slba = static_cast<nvme::Lba>(target_zone) *
                     info.zone_size_lbas,
             .zone_action = ZoneAction::kReset});
        if (tc.completed >= start_time_ + spec_.warmup &&
            tc.completed <= end_time_) {
          result_.reset_latency.Record(tc.latency());
        }
        fill[target_zone] = 0;
        if (spec_.op == Opcode::kWrite) next_off = 0;
      }
      if (stop) break;
    }

    if (bucket_ != nullptr) {
      co_await bucket_->Take(static_cast<double>(req));
    }
    co_await slots.Acquire();
    if (sim_.now() >= end_time_) {
      slots.Release();
      break;
    }

    if (info.zoned && spec_.op == Opcode::kWrite) {
      cmd = {.opcode = Opcode::kWrite,
             .slba = static_cast<nvme::Lba>(target_zone) *
                         info.zone_size_lbas +
                     next_off / lba,
             .nlb = nlb};
      next_off += req;
    } else if (spec_.op == Opcode::kAppend) {
      cmd = {.opcode = Opcode::kAppend,
             .slba = static_cast<nvme::Lba>(target_zone) *
                     info.zone_size_lbas,
             .nlb = nlb};
      fill[target_zone] += req;
    }
    outstanding.Add();
    sim::Spawn(IssueOne(cmd, req, &slots, &outstanding));
  }
  co_await outstanding.Wait();
  join_.Done();
}

sim::Task<> Job::MgmtWorker(std::uint32_t wid) {
  const std::vector<std::uint32_t> zones = ZonesForWorker(wid);
  const nvme::NamespaceInfo& info = stack_.info();
  for (std::uint32_t z : zones) {
    if (sim_.now() >= end_time_) break;
    nvme::TimedCompletion tc = co_await stack_.Submit(
        {.opcode = Opcode::kZoneMgmtSend,
         .slba = static_cast<nvme::Lba>(z) * info.zone_size_lbas,
         .zone_action = spec_.zone_action});
    RecordCompletion(tc, 0, false);
  }
  join_.Done();
}

JobResult RunJob(sim::Simulator& s, hostif::Stack& stack, JobSpec spec) {
  Job job(s, stack, std::move(spec));
  job.Start();
  s.Run();
  ZSTOR_CHECK(job.Done());
  return job.result();
}

std::vector<JobResult> RunJobs(
    sim::Simulator& s,
    std::vector<std::pair<hostif::Stack*, JobSpec>> jobs) {
  std::vector<std::unique_ptr<Job>> running;
  running.reserve(jobs.size());
  for (auto& [stack, spec] : jobs) {
    running.push_back(std::make_unique<Job>(s, *stack, std::move(spec)));
    running.back()->Start();
  }
  s.Run();
  std::vector<JobResult> out;
  out.reserve(running.size());
  for (auto& j : running) {
    ZSTOR_CHECK(j->Done());
    out.push_back(j->result());
  }
  return out;
}

}  // namespace zstor::workload
