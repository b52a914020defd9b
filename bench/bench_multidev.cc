// Multi-device scale-out: zone-striped throughput across N simulated
// devices (hostif::StripedStack behind TestbedBuilder::WithDevices).
//
// Each device keeps its own host-stack lane, queue pair and firmware
// command processor, so per-op IOPS ceilings are per-device (§IV: append
// ~132 KIOPS, read ~424 KIOPS on one ZN540) and striping N devices
// multiplies the aggregate until the workload stops supplying enough
// concurrency:
//
//  (a) scaling: 4 KiB append and random read throughput at 1/2/4 devices
//      with fixed per-device load (one worker per device), plus the
//      scaling ratio vs one device. Each point's per-device breakdown
//      goes into the result JSON as `parts` (schema v2).
//  (b) device count x per-device queue depth: the append throughput
//      matrix, showing the ceiling move with N while the QD knee stays
//      per-device.
//
// There is no paper figure for this — the paper measures one device —
// but Obs. 6/7 fix each device's ceilings, which makes near-linear
// scaling the predicted outcome. The bench asserts it: a full sweep
// exits 1 unless appends scale >= 1.8x at 2 devices and >= 3.2x at 4.
// See DESIGN.md §9.
#include <cstdio>
#include <string>
#include <vector>

#include "harness/bench_flags.h"
#include "harness/parallel.h"
#include "harness/table.h"
#include "harness/testbed.h"
#include "sim/time.h"
#include "workload/job.h"
#include "zns/profile.h"

using namespace zstor;
using nvme::Opcode;

namespace {

constexpr std::uint64_t kRequestBytes = 4096;
// The default sweep; --devices=N restricts it to one point (the speedup
// gate and identity checks time a single device count at several
// --sim-threads values). A restricted run has no 1-device baseline, so
// its scaling ratios are 1 by construction and the floors do not apply.
std::vector<std::uint32_t> kDevices = {1, 2, 4};

Testbed MakeBed(std::uint32_t ndev, const std::string& label) {
  return TestbedBuilder()
      .WithZnsProfile(zns::Zn540Profile())
      .WithDevices(ndev)
      .WithStack(StackChoice::kSpdk)
      .WithLabel(label)
      .Build();
}

/// One worker per device: logical zones 0..ndev-1 map to devices
/// 0..ndev-1 (zone z -> device z % ndev), so partitioning the zone list
/// across workers gives every device exactly one zone's worth of load.
workload::JobSpec PerDeviceSpec(Testbed& tb, std::uint32_t ndev,
                                Opcode op, std::uint32_t per_device_qd,
                                std::uint64_t seed) {
  workload::JobSpec spec;
  spec.op = op;
  spec.random = (op == Opcode::kRead);
  spec.request_bytes = kRequestBytes;
  spec.queue_depth = per_device_qd;
  spec.workers = ndev;
  spec.zones = tb.ZoneList(0, ndev);
  spec.partition_zones = true;
  spec.duration = sim::Milliseconds(500);
  spec.seed = seed;
  return spec;
}

/// Per-device share of the point's throughput, from each device's own
/// command counters (the stripe's ground truth), in KIOPS.
std::vector<double> DeviceParts(Testbed& tb, std::uint32_t ndev, Opcode op,
                                sim::Time span) {
  std::vector<double> parts;
  parts.reserve(ndev);
  const double secs = sim::ToSeconds(span);
  for (std::uint32_t d = 0; d < ndev; ++d) {
    const zns::ZnsCounters& c = tb.zns(d)->counters();
    const std::uint64_t ops = (op == Opcode::kRead) ? c.reads : c.appends;
    parts.push_back(secs > 0 ? static_cast<double>(ops) / secs / 1000.0
                             : 0.0);
  }
  return parts;
}

struct ScalePoint {
  workload::JobResult append, read;
  std::vector<double> append_parts, read_parts;
};

ScalePoint RunScalePoint(std::uint32_t ndev, std::uint32_t per_device_qd) {
  ScalePoint p;
  {
    Testbed tb = MakeBed(ndev, "multidev/append/n" + std::to_string(ndev));
    p.append = tb.RunJob(
        PerDeviceSpec(tb, ndev, Opcode::kAppend, per_device_qd, ndev));
    p.append_parts =
        DeviceParts(tb, ndev, Opcode::kAppend, p.append.measured_span);
  }
  {
    Testbed tb = MakeBed(ndev, "multidev/read/n" + std::to_string(ndev));
    tb.FillZones(0, ndev);
    p.read = tb.RunJob(
        PerDeviceSpec(tb, ndev, Opcode::kRead, 16, 100 + ndev));
    p.read_parts =
        DeviceParts(tb, ndev, Opcode::kRead, p.read.measured_span);
  }
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  int devices = 0;
  harness::InitBench(argc, argv, {{"--devices", &devices}});
  if (devices > 0) kDevices = {static_cast<std::uint32_t>(devices)};
  const bool full_sweep = kDevices.front() == 1;
  bool scaling_ok = true;
  auto& results = harness::Results();
  results.Config("profile", "ZN540");
  results.Config("stack", ToString(StackChoice::kSpdk));
  results.Config("request_bytes", static_cast<double>(kRequestBytes));
  results.Config("append_per_device_qd", 4.0);
  results.Config("read_per_device_qd", 16.0);

  harness::Banner(
      "Multi-device scaling — 4 KiB, fixed per-device load (KIOPS)");
  {
    std::vector<ScalePoint> sweep =
        harness::ParallelSweep(kDevices.size(), [&](std::size_t i) {
          return RunScalePoint(kDevices[i], 4);
        });
    harness::Table t({"devices", "append", "append x", "read", "read x"});
    const double append1 = sweep[0].append.Kiops();
    const double read1 = sweep[0].read.Kiops();
    for (std::size_t i = 0; i < kDevices.size(); ++i) {
      const std::uint32_t n = kDevices[i];
      const ScalePoint& p = sweep[i];
      const double ax = append1 > 0 ? p.append.Kiops() / append1 : 0;
      const double rx = read1 > 0 ? p.read.Kiops() / read1 : 0;
      results.Series("multidev_append_kiops", "KIOPS")
          .Add(n, p.append.Kiops(), p.append.latency)
          .WithParts(p.append_parts);
      results.Series("multidev_read_kiops", "KIOPS")
          .Add(n, p.read.Kiops(), p.read.latency)
          .WithParts(p.read_parts);
      results.Series("multidev_append_scaling", "x").Add(n, ax);
      results.Series("multidev_read_scaling", "x").Add(n, rx);
      const double min_ax = n == 2 ? 1.8 : n == 4 ? 3.2 : 0.0;
      if (full_sweep && ax < min_ax) scaling_ok = false;
      t.AddRow({std::to_string(n), harness::FmtKiops(p.append.Kiops()),
                harness::Fmt(ax, 2), harness::FmtKiops(p.read.Kiops()),
                harness::Fmt(rx, 2)});
    }
    t.Print();
    std::printf(
        "  expected: per-device ceilings (append ~132K, Obs. 6) make the\n"
        "            stripe scale near-linearly: >= 1.8x at 2, >= 3.2x at 4\n");
  }

  harness::Banner(
      "Append throughput — devices x per-device queue depth (KIOPS)");
  {
    const std::vector<std::uint32_t> qds = {1, 2, 4, 8};
    std::vector<workload::JobResult> sweep = harness::ParallelSweep(
        kDevices.size() * qds.size(), [&](std::size_t i) {
          const std::uint32_t n = kDevices[i / qds.size()];
          const std::uint32_t qd = qds[i % qds.size()];
          Testbed tb =
              MakeBed(n, "multidev/matrix/n" + std::to_string(n) + "/qd" +
                             std::to_string(qd));
          return tb.RunJob(
              PerDeviceSpec(tb, n, Opcode::kAppend, qd, 1000 + i));
        });
    harness::Table t({"devices", "qd=1", "qd=2", "qd=4", "qd=8"});
    for (std::size_t di = 0; di < kDevices.size(); ++di) {
      const std::uint32_t n = kDevices[di];
      std::vector<std::string> row = {std::to_string(n)};
      for (std::size_t qi = 0; qi < qds.size(); ++qi) {
        const workload::JobResult& r = sweep[di * qds.size() + qi];
        // Built by appends: GCC 12's -Wrestrict misfires on the
        // operator+ chain at -O2.
        std::string label = "n";
        label += std::to_string(n);
        label += "/qd";
        label += std::to_string(qds[qi]);
        results.Series("multidev_qd_append_kiops", "KIOPS")
            .AddLabeled(label, qds[qi], r.Kiops());
        row.push_back(harness::FmtKiops(r.Kiops()));
      }
      t.AddRow(row);
    }
    t.Print();
    std::printf(
        "  expected: the QD knee (~4 for appends) stays per-device while\n"
        "            the plateau rises with the device count\n");
  }

  if (!full_sweep) return 0;
  std::printf("\nscaling: %s\n",
              scaling_ok ? "PASS (appends >= 1.8x at 2 devices, >= 3.2x at 4)"
                         : "FAIL — append scaling below its floor");
  return scaling_ok ? 0 : 1;
}
