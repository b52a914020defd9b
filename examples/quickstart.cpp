// Quickstart: bring up a simulated ZNS device through the Testbed facade,
// explore the zone state machine, measure the basic operations, and peek
// at the telemetry a run leaves behind — a short tour of the public API.
//
//   $ ./quickstart
//
// Everything runs in virtual time: the device below executes hundreds of
// commands and reports microsecond-accurate latencies, instantly.
#include <cstdio>

#include "harness/testbed.h"
#include "sim/task.h"

using namespace zstor;

int main() {
  // 1. A Testbed bundles the simulator (clock + event loop), a device
  //    calibrated to the WD Ultrastar DC ZN540 the paper characterizes
  //    (904 zones of 1077 MiB capacity, max 14 open/active), and a host
  //    stack — SpdkStack here, the low-latency polled path; see
  //    hostif/host_stack.h for the io_uring + mq-deadline model.
  //    Telemetry keeps the last 512 trace events in memory.
  Testbed tb = TestbedBuilder()
                   .WithZnsProfile(zns::Zn540Profile())
                   .WithStack(StackChoice::kSpdk)
                   .WithTelemetry({.ring_capacity = 512})
                   .Build();
  zns::ZnsDevice& device = *tb.zns();
  const auto& info = device.info();
  std::printf("namespace: %u zones, %llu LBAs/zone (%llu writable), "
              "max open %u, max active %u\n",
              info.num_zones,
              static_cast<unsigned long long>(info.zone_size_lbas),
              static_cast<unsigned long long>(info.zone_cap_lbas),
              info.max_open_zones, info.max_active_zones);

  // 2. Applications are coroutines. Issue a few commands and look at
  //    zone state as it changes.
  std::uint64_t first_write = 0;  // its trace id, for step 3
  auto app = [&]() -> sim::Task<> {
    // A write implicitly opens zone 0 (one full 16 KiB NAND page).
    auto w = co_await tb.stack().Submit(
        {.opcode = nvme::Opcode::kWrite, .slba = 0, .nlb = 4});
    first_write = w.trace_id;
    std::printf("write:  %s, %.2f us  (zone 0 is now %s)\n",
                nvme::ToString(w.completion.status).data(),
                sim::ToMicroseconds(w.latency()),
                zns::ToString(device.GetZoneState(0)).data());

    // Appends pick their own LBA — the device tells us where data went.
    auto a = co_await tb.stack().Submit(
        {.opcode = nvme::Opcode::kAppend,
         .slba = device.ZoneStartLba(1),
         .nlb = 2});
    std::printf("append: %s, %.2f us  (data landed at LBA %llu)\n",
                nvme::ToString(a.completion.status).data(),
                sim::ToMicroseconds(a.latency()),
                static_cast<unsigned long long>(a.completion.result_lba));

    // Writes must hit the write pointer exactly; this one does not.
    auto bad = co_await tb.stack().Submit(
        {.opcode = nvme::Opcode::kWrite, .slba = 100, .nlb = 1});
    std::printf("write at wrong LBA: %s\n",
                nvme::ToString(bad.completion.status).data());

    // Reads pay the NAND tR (~70 us) once data has drained out of the
    // device's write-back buffer; buffered data reads back in ~4 us.
    co_await tb.sim().Delay(sim::Milliseconds(5));
    auto r = co_await tb.stack().Submit(
        {.opcode = nvme::Opcode::kRead, .slba = 0, .nlb = 1});
    std::printf("read:   %s, %.2f us (NAND tR-bound)\n",
                nvme::ToString(r.completion.status).data(),
                sim::ToMicroseconds(r.latency()));

    // Zone management: finish pads the rest of the zone — the paper's
    // most expensive operation (up to ~900 ms!).
    auto f = co_await tb.stack().Submit(
        {.opcode = nvme::Opcode::kZoneMgmtSend,
         .slba = 0,
         .zone_action = nvme::ZoneAction::kFinish});
    std::printf("finish: %s, %.2f ms (zone 0 is now %s)\n",
                nvme::ToString(f.completion.status).data(),
                sim::ToMilliseconds(f.latency()),
                zns::ToString(device.GetZoneState(0)).data());

    // Reset returns it to Empty; cost depends on how much was mapped.
    auto rst = co_await tb.stack().Submit(
        {.opcode = nvme::Opcode::kZoneMgmtSend,
         .slba = 0,
         .zone_action = nvme::ZoneAction::kReset});
    std::printf("reset:  %s, %.2f ms (zone 0 is now %s)\n",
                nvme::ToString(rst.completion.status).data(),
                sim::ToMilliseconds(rst.latency()),
                zns::ToString(device.GetZoneState(0)).data());
  };
  auto task = app();
  tb.sim().Run();

  std::printf("\nsimulated %.3f ms of device time; counters: %llu writes, "
              "%llu appends, %llu reads, %llu resets\n",
              sim::ToMilliseconds(tb.sim().now()),
              static_cast<unsigned long long>(device.counters().writes),
              static_cast<unsigned long long>(device.counters().appends),
              static_cast<unsigned long long>(device.counters().reads),
              static_cast<unsigned long long>(device.counters().resets));

  // 3. Telemetry: every layer emitted spans into the ring sink — the
  //    per-command breakdown of where virtual time went. Show the first
  //    write's phases (host submit -> queue pair -> FCP -> NAND buffer).
  std::printf("\ntrace of the first write (%llu events buffered):\n",
              static_cast<unsigned long long>(tb.ring()->total_events()));
  for (const auto& e : tb.ring()->Events()) {
    if (e.cmd != first_write) continue;
    std::printf("  %8llu ns  +%-6llu %-8s %s\n",
                static_cast<unsigned long long>(e.begin),
                static_cast<unsigned long long>(e.duration()),
                telemetry::ToString(e.layer), e.name);
  }
  return 0;
}
