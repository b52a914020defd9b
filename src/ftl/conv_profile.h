// Profile for the conventional (non-zoned) NVMe SSD model — the WD
// Ultrastar DC SN640 stand-in used as the baseline in the paper's §III-F
// garbage-collection interference experiment (Fig. 6).
//
// The device runs on the same controller as the ZNS model
// (zns::ControllerCore: firmware command processor, write-back buffer,
// NAND array, power-loss skeleton) but replaces the zone state machine
// with a page-mapped FTL: 4 KiB mapping units packed into 16 KiB
// NAND pages, greedy (min-valid) victim selection, and device-initiated
// garbage collection — the defining difference from ZNS, where reclaim is
// host-triggered (the whole point of Obs. 11).
#pragma once

#include <cstdint>

#include "nand/geometry.h"
#include "sim/time.h"
#include "zns/profile.h"

namespace zstor::ftl {

struct ConvProfile {
  /// NAND array. Default: same channel/die structure as the ZN540 model
  /// but scaled down in capacity so GC steady state is reached in seconds
  /// of virtual time (DESIGN.md §6; GC dynamics depend on the *fraction*
  /// of free space, not absolute capacity).
  nand::Geometry nand_geometry{.channels = 8,
                               .dies_per_channel = 4,
                               .blocks_per_die = 80,  // 10 GiB physical
                               .pages_per_block = 256,
                               .page_bytes = 16 * 1024};
  nand::Timing nand_timing;

  /// Fraction of physical capacity reserved as overprovisioning; the
  /// logical (host-visible) capacity is physical * (1 - op_fraction).
  double op_fraction = 0.125;

  /// Firmware mapping unit (the LBA-facing granularity).
  std::uint32_t map_unit_bytes = 4096;

  /// Host-visible LBA format.
  std::uint32_t lba_bytes = 4096;

  std::uint64_t write_buffer_bytes = 320ull << 20;

  /// Same firmware command processor and post-stage cost structure as the
  /// ZNS model (the two drives in the paper share hardware platform).
  zns::FcpCosts fcp;
  zns::PostCosts post;
  double io_sigma = 0.045;

  /// Deallocate (TRIM) cost: command admission plus per-unit mapping
  /// updates — "the trim operation ... also incurs overheads due to
  /// metadata updates" (the paper's Obs. 10 analogy to zone reset).
  sim::Time trim_fixed = sim::Microseconds(5.0);
  sim::Time trim_per_unit = sim::Nanoseconds(60);

  /// GC policy: start when free blocks drop below `gc_low_blocks`, stop
  /// above `gc_high_blocks`; `gc_workers` victims migrate concurrently.
  /// Wide watermark hysteresis produces the boom–bust cycle of Fig. 6a:
  /// with GC idle the host bursts at device bandwidth until the pool
  /// drains to `gc_low_blocks`; GC then reclaims hard (competing with
  /// host I/O at the dies) up to `gc_high_blocks` and stops.
  std::uint32_t gc_low_blocks = 64;
  std::uint32_t gc_high_blocks = 240;
  std::uint32_t gc_workers = 24;

  /// Mapping-journal sync interval (DESIGN.md §11): volatile L2P deltas
  /// are buffered and flushed to flash every this many entries. Small
  /// values shrink the power-loss data-loss window and the recovery
  /// replay tail at the price of extra journal programs (write
  /// amplification); large values do the opposite. A GC block erase
  /// always forces a sync first — unsynced entries must never reference
  /// an erased block.
  std::uint32_t journal_sync_interval = 1024;
  /// Journal entries that fit one flash-programmed journal unit; each
  /// sync charges ceil(pending/entries) units of journal WA.
  std::uint32_t journal_entries_per_unit = 256;
  /// A full mapping-table checkpoint is written every this many journal
  /// syncs; recovery replays only the journal tail since the last
  /// checkpoint. Each checkpoint charges `checkpoint_units` of WA.
  std::uint32_t journal_checkpoint_syncs = 32;
  std::uint32_t checkpoint_units = 32;
  /// Fixed controller-boot cost after a power loss, before journal replay.
  sim::Time recovery_boot_cost = sim::Milliseconds(2.0);
  /// Replay cost per journal-tail entry (mapping rebuild is a metadata
  /// walk in controller SRAM fed by sequential journal reads).
  sim::Time recovery_per_entry = sim::Nanoseconds(250);

  std::uint64_t seed = 0xC0DE'2023'5E40'0001ull;

  std::uint64_t physical_bytes() const {
    return nand_geometry.total_bytes();
  }
  std::uint64_t logical_bytes() const {
    auto usable = static_cast<std::uint64_t>(
        static_cast<double>(physical_bytes()) * (1.0 - op_fraction));
    return usable - usable % map_unit_bytes;
  }
  std::uint32_t units_per_page() const {
    return nand_geometry.page_bytes / map_unit_bytes;
  }
};

/// Calibrated SN640-like profile (scaled capacity, matched bandwidth).
ConvProfile Sn640Profile();

/// Small geometry for fast unit tests.
ConvProfile TinyConvProfile();

}  // namespace zstor::ftl
