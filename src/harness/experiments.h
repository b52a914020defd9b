// Canned experiment protocols shared by the calibration tests and the
// bench binaries. Each function builds a fresh simulator + device + stack,
// runs the paper's protocol, and returns the measured quantities.
//
// Protocol choices that the paper leaves implicit (exact queue depths,
// durations) are centralized here and documented in EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <vector>

#include "harness/testbed.h"
#include "nvme/types.h"
#include "sim/stats.h"
#include "workload/job.h"
#include "zns/profile.h"

namespace zstor::harness {

/// QD=1 single-op latency through a host stack (Fig. 2). Returns the mean
/// latency in microseconds over `ops` back-to-back operations (the first
/// operation per zone is excluded: it pays the one-time implicit-open
/// cost, which Obs. 9 measures separately).
double Qd1LatencyUs(const zns::ZnsProfile& profile, StackChoice stack,
                    nvme::Opcode op, std::uint64_t request_bytes,
                    std::uint32_t lba_bytes, int ops = 200);

/// QD=1 throughput vs request size via SPDK (Fig. 3). KIOPS.
double Qd1Kiops(const zns::ZnsProfile& profile, nvme::Opcode op,
                std::uint64_t request_bytes);

/// Intra-zone scalability (Fig. 4a): one zone, one worker, variable QD.
/// Reads and appends use SPDK; writes use the kernel stack with
/// mq-deadline (the only stack that can keep multiple writes in flight on
/// one zone, §III-D). Reads are random over a pre-filled zone.
workload::JobResult IntraZone(const zns::ZnsProfile& profile,
                              nvme::Opcode op, std::uint64_t request_bytes,
                              std::uint32_t qd,
                              double* merged_fraction = nullptr);

/// Inter-zone scalability (Fig. 4b/4c): one worker per zone at QD 1, all
/// via SPDK. Reads are random over pre-filled zones.
workload::JobResult InterZone(const zns::ZnsProfile& profile,
                              nvme::Opcode op, std::uint64_t request_bytes,
                              std::uint32_t zones);

/// Obs. 9: explicit open / close / first-write / first-append costs (us),
/// measured end-to-end through SPDK.
struct OpenCloseCosts {
  double explicit_open_us = 0;
  double close_us = 0;
  double implicit_write_extra_us = 0;
  double implicit_append_extra_us = 0;
};
OpenCloseCosts MeasureOpenClose(const zns::ZnsProfile& profile);

/// Fig. 5: reset/finish latency (ms) at a given occupancy, via SPDK, on
/// zones pre-filled with DebugFillZone (see DESIGN.md §6). Averaged over
/// `zones_per_point` zones (paper: 3000 resets across runs).
double ResetLatencyMs(const zns::ZnsProfile& profile, double occupancy,
                      bool finish_first, int zones_per_point = 12);
double FinishLatencyMs(const zns::ZnsProfile& profile, double occupancy,
                       int zones_per_point = 6);

/// Fig. 7 / Obs. 12-13: resets of full zones on the first half of the
/// device concurrent with an I/O workload on the second half.
struct ResetInterferenceResult {
  double reset_p95_ms = 0;
  double reset_mean_ms = 0;
  double io_mean_us = 0;   // mean latency of the concurrent I/O (0 if none)
  std::uint64_t resets = 0;
};
/// `op` = kRead (random, QD 12), kWrite (sequential, QD 1) or kAppend
/// (sequential, QD 1); anything else means reset-only (the baseline).
ResetInterferenceResult ResetInterference(const zns::ZnsProfile& profile,
                                          nvme::Opcode op,
                                          std::uint32_t reset_zones = 24);

/// Appendix Fig. 8 point: latency/throughput at a queue depth.
struct QdPoint {
  double kiops = 0;
  double mean_latency_us = 0;
  double p95_latency_us = 0;
};
QdPoint AppendQdPoint(const zns::ZnsProfile& profile,
                      std::uint64_t request_bytes, std::uint32_t qd);
QdPoint WriteQdPoint(const zns::ZnsProfile& profile,
                     std::uint64_t request_bytes, std::uint32_t qd);

}  // namespace zstor::harness
