#include "harness/experiments.h"

#include <memory>

#include "sim/check.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "workload/runner.h"
#include "zns/zns_device.h"

namespace zstor::harness {

using nvme::Opcode;
using sim::Time;
using workload::JobResult;
using workload::JobSpec;

namespace {

/// One experiment's worth of simulated hardware + host stack. Telemetry
/// rides along automatically when the bench was started with --trace /
/// --metrics (see bench_flags.h).
Testbed MakeBench(const zns::ZnsProfile& profile, StackChoice kind,
                  const char* label, std::uint32_t lba_bytes = 4096) {
  return TestbedBuilder()
      .WithZnsProfile(profile)
      .WithStack(kind)
      .WithLbaBytes(lba_bytes)
      .WithLabel(label)
      .Build();
}

}  // namespace

double Qd1LatencyUs(const zns::ZnsProfile& profile, StackChoice kind,
                    Opcode op, std::uint64_t request_bytes,
                    std::uint32_t lba_bytes, int ops) {
  Testbed b = MakeBench(profile, kind, "qd1-latency", lba_bytes);
  const auto nlb =
      static_cast<std::uint32_t>(request_bytes / lba_bytes);
  sim::Welford lat;
  auto body = [&]() -> sim::Task<> {
    nvme::Lba wp = 0;
    for (int i = 0; i < ops + 1; ++i) {
      nvme::Command cmd{.opcode = op, .slba = op == Opcode::kAppend ? 0 : wp,
                        .nlb = nlb};
      auto tc = co_await b.stack().Submit(cmd);
      ZSTOR_CHECK_MSG(tc.completion.ok(), "QD1 op failed");
      wp += nlb;
      if (i > 0) lat.Record(static_cast<double>(tc.latency()));
    }
  };
  auto t = body();
  b.sim().Run();
  return lat.mean() / 1000.0;
}

double Qd1Kiops(const zns::ZnsProfile& profile, Opcode op,
                std::uint64_t request_bytes) {
  // Synchronous requests: throughput is the inverse of latency (§III-C) —
  // but measured at steady state. Large requests outrun the NAND drain
  // until the write-back buffer fills, so warm past the buffer first.
  Testbed b = MakeBench(profile, StackChoice::kSpdk, "qd1-kiops");
  zns::ZnsDevice& dev = *b.zns();
  const std::uint32_t nlb = static_cast<std::uint32_t>(request_bytes / 4096);
  const std::uint64_t cap_lbas = dev.info().zone_cap_lbas;
  auto meas_ops = static_cast<std::uint64_t>(std::max<std::uint64_t>(
      300, 3 * profile.write_buffer_bytes / request_bytes));
  sim::Time t0 = 0, t1 = 0;
  auto body = [&]() -> sim::Task<> {
    std::uint32_t zone = 0;
    std::uint64_t off = 0;  // LBA offset within the zone
    auto issue_one = [&]() -> sim::Task<> {
      if (off + nlb > cap_lbas) {  // roll to the next zone
        ++zone;
        off = 0;
      }
      nvme::Command cmd{
          .opcode = op,
          .slba = dev.ZoneStartLba(zone) + (op == Opcode::kAppend ? 0 : off),
          .nlb = nlb};
      auto tc = co_await b.stack().Submit(cmd);
      ZSTOR_CHECK(tc.completion.ok());
      off += nlb;
    };
    // Warm until either the write-back buffer has filled (the drain now
    // paces us) or its occupancy has stopped growing (demand below the
    // drain rate: no transient to outlast).
    const std::uint64_t total_pages =
        profile.write_buffer_bytes / profile.nand_geometry.page_bytes;
    std::uint64_t occ_prev = 0;
    for (std::uint64_t i = 0;; ++i) {
      std::uint64_t occ = total_pages - dev.buffer_free_pages();
      if (occ >= total_pages - total_pages / 16) break;  // ~full: throttled
      if (i >= 3000 && i % 3000 == 0) {
        if (occ <= occ_prev + 16) break;  // occupancy flat: no transient
        occ_prev = occ;
      }
      if (i >= 300'000) break;  // safety bound
      co_await issue_one();
    }
    t0 = b.sim().now();
    for (std::uint64_t i = 0; i < meas_ops; ++i) co_await issue_one();
    t1 = b.sim().now();
  };
  auto t = body();
  b.sim().Run();
  return static_cast<double>(meas_ops) / sim::ToSeconds(t1 - t0) / 1000.0;
}

workload::JobResult IntraZone(const zns::ZnsProfile& profile, Opcode op,
                              std::uint64_t request_bytes, std::uint32_t qd,
                              double* merged_fraction) {
  StackChoice kind =
      op == Opcode::kWrite ? StackChoice::kKernelMq : StackChoice::kSpdk;
  Testbed b = MakeBench(profile, kind, "intra-zone");
  JobSpec spec;
  spec.op = op;
  spec.request_bytes = request_bytes;
  spec.queue_depth = qd;
  spec.zones = {0};
  spec.on_full = JobSpec::OnFull::kStop;
  if (op == Opcode::kRead) {
    b.FillZones(0, 1);
    spec.random = true;
    spec.duration = sim::Milliseconds(400);
    spec.warmup = sim::Milliseconds(100);
  } else if (op == Opcode::kWrite) {
    // Merged writes can exceed the NAND drain rate; measure after the
    // write-back buffer reaches steady state.
    spec.duration = sim::Milliseconds(700);
    spec.warmup = sim::Milliseconds(350);
  } else {
    // Large appends can outrun the NAND drain; measure past the
    // write-back buffer transient.
    spec.duration = sim::Milliseconds(700);
    spec.warmup = sim::Milliseconds(350);
  }
  JobResult r = b.RunJob(spec);
  if (merged_fraction != nullptr) {
    *merged_fraction =
        b.kernel() != nullptr ? b.kernel()->scheduler_stats().MergedFraction()
                              : 0.0;
  }
  return r;
}

workload::JobResult InterZone(const zns::ZnsProfile& profile, Opcode op,
                              std::uint64_t request_bytes,
                              std::uint32_t zones) {
  Testbed b = MakeBench(profile, StackChoice::kSpdk, "inter-zone");
  JobSpec spec;
  spec.op = op;
  spec.request_bytes = request_bytes;
  spec.queue_depth = 1;
  spec.workers = zones;
  spec.partition_zones = true;
  spec.on_full = JobSpec::OnFull::kAdvance;
  if (op == Opcode::kRead) {
    b.FillZones(0, zones);
    spec.random = true;
    spec.zones = b.ZoneList(0, zones);
    spec.duration = sim::Milliseconds(500);
    spec.warmup = sim::Milliseconds(200);
  } else {
    // Writers outrun the NAND drain only slightly at some request sizes,
    // so the write-back buffer transient can last ~0.5 s: measure well
    // past it. Two zones per worker so nobody runs out of capacity.
    spec.zones = b.ZoneList(0, 2 * zones);
    spec.duration = sim::Milliseconds(1600);
    spec.warmup = sim::Milliseconds(1100);
  }
  return b.RunJob(spec);
}

OpenCloseCosts MeasureOpenClose(const zns::ZnsProfile& profile) {
  OpenCloseCosts out;
  const int kZones = 10;
  {  // explicit open + close
    Testbed b = MakeBench(profile, StackChoice::kSpdk, "open-close");
    sim::Welford open_us, close_us;
    auto body = [&]() -> sim::Task<> {
      for (std::uint32_t z = 0; z < kZones; ++z) {
        nvme::Lba zslba = b.zns()->ZoneStartLba(z);
        auto o = co_await b.stack().Submit(
            {.opcode = Opcode::kZoneMgmtSend,
             .slba = zslba,
             .zone_action = nvme::ZoneAction::kOpen});
        open_us.Record(static_cast<double>(o.latency()));
        (void)co_await b.stack().Submit(
            {.opcode = Opcode::kWrite, .slba = zslba, .nlb = 1});
        auto c = co_await b.stack().Submit(
            {.opcode = Opcode::kZoneMgmtSend,
             .slba = zslba,
             .zone_action = nvme::ZoneAction::kClose});
        close_us.Record(static_cast<double>(c.latency()));
      }
    };
    auto t = body();
    b.sim().Run();
    out.explicit_open_us = open_us.mean() / 1000.0;
    out.close_us = close_us.mean() / 1000.0;
  }
  {  // implicit-open penalty: first vs second write/append on fresh zones
    Testbed b = MakeBench(profile, StackChoice::kSpdk, "implicit-open");
    sim::Welford first_w, second_w, first_a, second_a;
    auto body = [&]() -> sim::Task<> {
      auto reset = [&](std::uint32_t z) -> sim::Task<> {
        auto r = co_await b.stack().Submit(
            {.opcode = Opcode::kZoneMgmtSend,
             .slba = b.zns()->ZoneStartLba(z),
             .zone_action = nvme::ZoneAction::kReset});
        ZSTOR_CHECK(r.completion.ok());
      };
      for (std::uint32_t z = 0; z < kZones; ++z) {
        nvme::Lba zslba = b.zns()->ZoneStartLba(z);
        auto w1 = co_await b.stack().Submit(
            {.opcode = Opcode::kWrite, .slba = zslba, .nlb = 1});
        auto w2 = co_await b.stack().Submit(
            {.opcode = Opcode::kWrite, .slba = zslba + 1, .nlb = 1});
        ZSTOR_CHECK(w1.completion.ok() && w2.completion.ok());
        first_w.Record(static_cast<double>(w1.latency()));
        second_w.Record(static_cast<double>(w2.latency()));
        co_await reset(z);  // stay well under the active-zone limit
      }
      for (std::uint32_t z = 0; z < kZones; ++z) {
        nvme::Lba zslba = b.zns()->ZoneStartLba(z);
        auto a1 = co_await b.stack().Submit(
            {.opcode = Opcode::kAppend, .slba = zslba, .nlb = 1});
        auto a2 = co_await b.stack().Submit(
            {.opcode = Opcode::kAppend, .slba = zslba, .nlb = 1});
        ZSTOR_CHECK(a1.completion.ok() && a2.completion.ok());
        first_a.Record(static_cast<double>(a1.latency()));
        second_a.Record(static_cast<double>(a2.latency()));
        co_await reset(z);
      }
    };
    auto t = body();
    b.sim().Run();
    out.implicit_write_extra_us = (first_w.mean() - second_w.mean()) / 1000.0;
    out.implicit_append_extra_us =
        (first_a.mean() - second_a.mean()) / 1000.0;
  }
  return out;
}

double ResetLatencyMs(const zns::ZnsProfile& profile, double occupancy,
                      bool finish_first, int zones_per_point) {
  Testbed b = MakeBench(profile, StackChoice::kSpdk, "reset-latency");
  std::uint64_t cap = profile.zone_cap_bytes;
  auto bytes = static_cast<std::uint64_t>(
      occupancy * static_cast<double>(cap));
  bytes -= bytes % 4096;
  sim::Welford ms;
  auto body = [&](std::uint32_t z) -> sim::Task<> {
    if (finish_first && bytes < cap) {
      auto f = co_await b.stack().Submit(
          {.opcode = Opcode::kZoneMgmtSend,
           .slba = b.zns()->ZoneStartLba(z),
           .zone_action = nvme::ZoneAction::kFinish});
      ZSTOR_CHECK(f.completion.ok());
    }
    // Paper protocol: pause for the device to stabilize before reset.
    co_await b.sim().Delay(sim::Milliseconds(1));
    auto r = co_await b.stack().Submit(
        {.opcode = Opcode::kZoneMgmtSend,
         .slba = b.zns()->ZoneStartLba(z),
         .zone_action = nvme::ZoneAction::kReset});
    ZSTOR_CHECK(r.completion.ok());
    ms.Record(sim::ToMilliseconds(r.latency()));
  };
  // Fill-then-reset per zone keeps the active count at one, so an
  // arbitrary number of zones can be swept (the paper resets 3000).
  for (std::uint32_t z = 0; static_cast<int>(ms.count()) < zones_per_point;
       ++z) {
    ZSTOR_CHECK(z < profile.num_zones);
    if (bytes > 0) b.zns()->DebugFillZone(z, bytes);
    auto t = body(z);
    b.sim().Run();
  }
  return ms.mean();
}

double FinishLatencyMs(const zns::ZnsProfile& profile, double occupancy,
                       int zones_per_point) {
  Testbed b = MakeBench(profile, StackChoice::kSpdk, "finish-latency");
  std::uint64_t cap = profile.zone_cap_bytes;
  auto bytes = static_cast<std::uint64_t>(
      occupancy * static_cast<double>(cap));
  bytes -= bytes % 4096;
  if (bytes == 0) bytes = 4096;            // "< 0.1%": one page
  if (bytes >= cap) bytes = cap - 4096;    // "~100%": all but one page
  sim::Welford ms;
  auto body = [&](std::uint32_t z) -> sim::Task<> {
    auto f = co_await b.stack().Submit(
        {.opcode = Opcode::kZoneMgmtSend,
         .slba = b.zns()->ZoneStartLba(z),
         .zone_action = nvme::ZoneAction::kFinish});
    ZSTOR_CHECK(f.completion.ok());
    ms.Record(sim::ToMilliseconds(f.latency()));
    // Recycle so the next batch has active slots.
    auto r = co_await b.stack().Submit(
        {.opcode = Opcode::kZoneMgmtSend,
         .slba = b.zns()->ZoneStartLba(z),
         .zone_action = nvme::ZoneAction::kReset});
    ZSTOR_CHECK(r.completion.ok());
  };
  for (std::uint32_t z = 0; static_cast<int>(ms.count()) < zones_per_point;
       ++z) {
    ZSTOR_CHECK(z < profile.num_zones);
    b.zns()->DebugFillZone(z, bytes);
    auto t = body(z);
    b.sim().Run();
  }
  return ms.mean();
}

ResetInterferenceResult ResetInterference(const zns::ZnsProfile& profile,
                                          Opcode op,
                                          std::uint32_t reset_zones) {
  Testbed b = MakeBench(profile, StackChoice::kSpdk, "reset-interference");
  // First half of the device: full zones to reset. Second half: I/O.
  b.FillZones(0, reset_zones);
  std::uint32_t io_zone = profile.num_zones / 2;

  JobSpec reset_job;
  reset_job.op = Opcode::kZoneMgmtSend;
  reset_job.zone_action = nvme::ZoneAction::kReset;
  reset_job.zones = b.ZoneList(0, reset_zones);
  reset_job.duration = sim::Seconds(30);  // ends when zones run out

  std::vector<std::pair<hostif::Stack*, JobSpec>> jobs;
  jobs.emplace_back(&b.stack(), reset_job);

  bool with_io = op == Opcode::kRead || op == Opcode::kWrite ||
                 op == Opcode::kAppend;
  if (with_io) {
    JobSpec io_job;
    io_job.op = op;
    io_job.request_bytes = 4096;
    if (op == Opcode::kRead) {
      // Random reads need data: pre-fill the I/O region.
      b.FillZones(io_zone, 8);
      io_job.random = true;
      io_job.queue_depth = 12;
      io_job.zones = b.ZoneList(io_zone, 8);
    } else {
      io_job.queue_depth = 1;
      io_job.zones = b.ZoneList(io_zone, 8);
      io_job.on_full = JobSpec::OnFull::kAdvance;
    }
    io_job.duration = sim::Seconds(30);
    jobs.emplace_back(&b.stack(), io_job);
  }

  // Run until the reset job exhausts its zone list, then stop the I/O
  // job and drain.
  std::vector<workload::JobResult> results;
  {
    std::vector<std::unique_ptr<workload::Job>> running;
    for (auto& [stack, spec] : jobs) {
      running.push_back(
          std::make_unique<workload::Job>(b.sim(), *stack, spec));
      running.back()->Start();
    }
    while (!running[0]->Done() && !b.sim().idle()) {
      b.sim().RunUntil(b.sim().now() + sim::Milliseconds(10));
    }
    for (auto& j : running) j->Stop();
    b.sim().Run();
    for (auto& j : running) results.push_back(j->result());
  }

  ResetInterferenceResult out;
  out.reset_p95_ms = results[0].latency.p95_ns() / 1e6;
  out.reset_mean_ms = results[0].latency.mean_ns() / 1e6;
  out.resets = results[0].ops;
  if (with_io) out.io_mean_us = results[1].latency.mean_ns() / 1e3;
  return out;
}

QdPoint AppendQdPoint(const zns::ZnsProfile& profile,
                      std::uint64_t request_bytes, std::uint32_t qd) {
  JobResult r = IntraZone(profile, Opcode::kAppend, request_bytes, qd);
  return {r.Kiops(), r.latency.mean_ns() / 1e3, r.latency.p95_ns() / 1e3};
}

QdPoint WriteQdPoint(const zns::ZnsProfile& profile,
                     std::uint64_t request_bytes, std::uint32_t qd) {
  JobResult r = IntraZone(profile, Opcode::kWrite, request_bytes, qd);
  return {r.Kiops(), r.latency.mean_ns() / 1e3, r.latency.p95_ns() / 1e3};
}

}  // namespace zstor::harness
