// Device profiles: every constant of the ZNS performance model in one
// place, with three presets.
//
//  * Zn540Profile()     — calibrated to the paper's measurements of the
//                         Western Digital Ultrastar DC ZN540 (see Table II
//                         and §5 of DESIGN.md for the calibration targets).
//  * FemuLikeProfile()  — reproduces FEMU's (lack of a) latency model for
//                         the §IV emulator-fidelity study: requests are as
//                         fast as the host permits, no NAND backend, no
//                         cost for zone transitions.
//  * NvmeVirtLikeProfile() — reproduces NVMeVirt's model: a real NAND
//                         timing model, but append priced identically to
//                         write, reset at a static NAND-erase cost, and no
//                         cost for open/close/finish.
//  * TinyProfile()      — scaled-down geometry for fast unit tests.
//
// The device-internal structure the constants parameterize:
//
//   host ──> FCP (serialized firmware command processor; priority queue,
//             I/O above background reset work) ──> post stage (DMA + fw
//             completion path, pipelined) ──> write-back buffer ──> NAND
//             dies (program drain; reads contend here)
//
// The FCP per-op costs set the device's saturation IOPS; the post stage
// sets the QD=1 latency floor; the NAND array sets the bandwidth ceiling
// and the read tails under load.
#pragma once

#include <cstdint>

#include "nand/geometry.h"
#include "sim/time.h"

namespace zstor::zns {

/// Serialized firmware command processor costs (device IOPS ceilings:
/// saturation IOPS for an op class = 1 / its FCP occupancy).
struct FcpCosts {
  sim::Time read = sim::Microseconds(2.36);    // -> ~424 KIOPS (Obs. 7)
  sim::Time write = sim::Microseconds(5.37);   // -> ~186 KIOPS (Obs. 7)
  sim::Time append = sim::Microseconds(7.58);  // -> ~132 KIOPS (Obs. 6/7)
  /// Extra FCP time per additional 4 KiB mapping unit beyond the first
  /// (large requests need more mapping work but amortize well).
  sim::Time per_extra_unit = sim::Microseconds(0.35);
  /// The firmware maps in 4 KiB units. A write/append smaller than (or not
  /// aligned to) one unit pays a read-modify-write of the unit's mapping —
  /// the mechanism behind Observation #1: a 512 B request on the 512 B LBA
  /// format is up to ~2x slower than a 4 KiB request on the 4 KiB format.
  sim::Time sub_unit_rmw = sim::Microseconds(9.5);
  /// Per-LBA tracking cost when the LBA is smaller than the mapping unit
  /// (a 4 KiB request on the 512 B format carries 8 LBAs).
  sim::Time small_lba_per_lba = sim::Microseconds(0.5);
  /// The firmware mapping unit.
  std::uint32_t map_unit_bytes = 4096;
};

/// Pipelined (non-serialized) per-command costs after the FCP.
struct PostCosts {
  sim::Time write_fixed = sim::Microseconds(3.7);
  sim::Time read_fixed = sim::Microseconds(0.5);
  /// Sub-stripe appends pay extra firmware work in the completion path;
  /// this makes 4 KiB appends slower than 8 KiB ones (Observation #3:
  /// 66 -> 69 KIOPS when doubling the request size).
  sim::Time append_substripe_extra = sim::Microseconds(2.4);
  std::uint64_t substripe_threshold_bytes = 8192;
  /// Host<->device DMA, ns per byte (PCIe 3.0 x4-ish: 3.2 GB/s).
  double dma_ns_per_byte = 0.3125;
};

/// Zone open/close costs (Observation #9).
struct ZoneOpenCosts {
  sim::Time explicit_open = sim::Microseconds(8.55);   // +1.01 host = 9.56
  sim::Time close = sim::Microseconds(10.0);           // +1.01 host = 11.01
  sim::Time implicit_first_write_extra = sim::Microseconds(2.02);
  sim::Time implicit_first_append_extra = sim::Microseconds(2.83);
};

/// Zone reset cost model (Observation #10, Fig. 5a). For a zone with
/// written fraction `occ` in (0, 1]:
///     cost = base + coef * occ^exponent          (unfinished)
///     cost += finished_extra_coef * (1 - occ)    (if the zone was
///                                                 finished first: finish
///                                                 extends the mapped
///                                                 region reset must unmap)
/// Calibrated: 11.60 ms at 50%, 16.19 ms at 100%, +3.08 ms at 50% for
/// finished zones. Empty zones pay only `empty_cost`.
/// If `static_cost` is set (NVMeVirt-like), every reset costs
/// `static_value` regardless of occupancy.
struct ResetModel {
  sim::Time empty_cost = sim::Microseconds(25);
  sim::Time base = sim::Milliseconds(2.5);
  sim::Time coef = sim::Milliseconds(13.69);
  double exponent = 0.589;
  sim::Time finished_extra_coef = sim::Milliseconds(6.16);
  bool static_cost = false;
  sim::Time static_value = sim::Milliseconds(3.5);  // one NAND block erase
  /// Reset metadata work executes on the FCP in background-priority slices
  /// this long. The slice is tiny compared to per-command I/O costs, so
  /// host I/O is essentially never delayed by a reset (Obs. 12) while
  /// concurrent I/O stretches the reset's elapsed time by ~1/(1-rho),
  /// rho being the FCP's I/O utilization (Obs. 13). When the device is
  /// fully idle the remaining work is charged in one step instead.
  sim::Time slice = sim::Microseconds(1);
  double sigma = 0.06;  // lognormal service noise
};

/// Zone finish cost model (Observation #10, Fig. 5b): the device pads the
/// zone's remaining capacity, so cost = base + per_byte * remaining_bytes.
/// Calibrated: 907.51 ms on an almost-empty zone, 3.07 ms on an almost-full
/// one. The padding rate (0.80 ns/B ~ 1.19 GiB/s) is the device's program
/// bandwidth — finishing IS writing the rest of the zone.
struct FinishModel {
  sim::Time base = sim::Milliseconds(3.07);
  double per_byte_ns = 0.801;
  double sigma = 0.03;
  bool zero_cost = false;  // emulators that do not model finish at all
};

struct ZnsProfile {
  // ---- namespace geometry -------------------------------------------
  std::uint64_t zone_size_bytes = 2048ull << 20;  // LBA-address span
  std::uint64_t zone_cap_bytes = 1077ull << 20;   // writable capacity
  std::uint32_t num_zones = 904;
  std::uint32_t max_open_zones = 14;
  std::uint32_t max_active_zones = 14;

  // ---- device internals ----------------------------------------------
  nand::Geometry nand_geometry;
  nand::Timing nand_timing;
  bool use_nand_backend = true;  // FEMU-like profiles bypass NAND entirely
  std::uint64_t write_buffer_bytes = 96ull << 20;
  FcpCosts fcp;
  PostCosts post;
  ZoneOpenCosts open_close;
  ResetModel reset;
  FinishModel finish;
  double io_sigma = 0.045;  // lognormal noise on I/O service segments
  std::uint64_t seed = 0x5EED'2023'C1A5'7E12ull;

  /// NAND endurance: when any of a zone's blocks reaches this many P/E
  /// cycles, the zone transitions to Offline at its next reset (flash has
  /// limited program/erase endurance — §II-A of the paper). 0 = unlimited.
  std::uint32_t pe_cycle_limit = 0;

  /// Spare-block budget for program-failure handling: each block retired
  /// after a failed program consumes one spare, and the owning zone
  /// degrades to ReadOnly. Once spares are exhausted, further failing
  /// zones go Offline instead. Only consulted when a fault plan actually
  /// retires blocks — with faults disabled the value is inert.
  std::uint32_t spare_blocks = 4;

  /// Zone-report cost model: fixed command admission plus a per-returned-
  /// descriptor metadata walk.
  sim::Time report_fixed = sim::Microseconds(6.0);
  sim::Time report_per_zone = sim::Nanoseconds(45);

  // ---- power-loss recovery (DESIGN.md §11) ----------------------------
  /// Fixed controller-boot cost after a power loss (firmware reload,
  /// metadata superblock read) before zone scanning starts.
  sim::Time recovery_boot_cost = sim::Milliseconds(2.0);
  /// Per-zone metadata inspection during recovery — charged for every
  /// zone; zones whose durable metadata already pins the write pointer
  /// (Empty, Full, Offline) cost only this, active zones additionally
  /// pay a binary-search ProbePage scan on the NAND array.
  sim::Time recovery_per_zone = sim::Microseconds(2.0);
};

/// The calibrated WD Ultrastar DC ZN540 profile (Table II of the paper).
ZnsProfile Zn540Profile();

/// FEMU-like: no latency model at all (§IV).
ZnsProfile FemuLikeProfile();

/// NVMeVirt-like: NAND-timing-based model, but append == write, static
/// reset cost, and free open/close/finish (§IV).
ZnsProfile NvmeVirtLikeProfile();

/// Small geometry (16 zones of 4 MiB) for fast unit tests.
ZnsProfile TinyProfile();

}  // namespace zstor::zns
