// Zone descriptor and the zone state machine (Fig. 1 of the paper).
//
// States follow the NVMe ZNS specification: a zone is *open* when it holds
// device write resources (implicitly after a write/append, or explicitly
// via the Open command), *active* when it is open or closed with a write
// pointer inside the zone. The max-open and max-active limits bound these
// two populations (14 each on the ZN540).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/sync.h"

namespace zstor::zns {

enum class ZoneState : std::uint8_t {
  kEmpty,
  kImplicitlyOpened,
  kExplicitlyOpened,
  kClosed,
  kFull,
  kReadOnly,
  kOffline,
};

constexpr std::string_view ToString(ZoneState s) {
  switch (s) {
    case ZoneState::kEmpty: return "Empty";
    case ZoneState::kImplicitlyOpened: return "ImplicitlyOpened";
    case ZoneState::kExplicitlyOpened: return "ExplicitlyOpened";
    case ZoneState::kClosed: return "Closed";
    case ZoneState::kFull: return "Full";
    case ZoneState::kReadOnly: return "ReadOnly";
    case ZoneState::kOffline: return "Offline";
  }
  return "Unknown";
}

constexpr bool IsOpen(ZoneState s) {
  return s == ZoneState::kImplicitlyOpened ||
         s == ZoneState::kExplicitlyOpened;
}

/// Open or closed-with-resources: counts against the max-active limit.
constexpr bool IsActive(ZoneState s) {
  return IsOpen(s) || s == ZoneState::kClosed;
}

struct Zone {
  ZoneState state = ZoneState::kEmpty;
  /// Write pointer as an offset (in bytes) from the start of the zone's
  /// data area. Equals zone capacity when the zone is full. Bytes past
  /// the settled pages still sit in the device write-back buffer.
  std::uint64_t wp_bytes = 0;
  /// Next zone data page (stripe unit) to hand to the NAND drain.
  std::uint64_t next_program_page = 0;
  /// Durable-prefix tracking: the contiguous count of settled NAND
  /// programs from page 0 (what a power loss preserves), plus the pages
  /// settled out of order beyond it (torn on a crash — multi-die striping
  /// completes programs in die-queue order, not page order). Those are
  /// kept sorted descending, so the prefix drains them off the back; a
  /// drained list goes back to the device for the next zone to reuse.
  std::uint64_t settled_prefix_pages = 0;
  std::vector<std::uint64_t> settled_oo_pages;
  /// Pages handed to the NAND drain and not yet settled; reset and finish
  /// quiesce until it is zero, waiting on `quiesce_waiters`.
  std::uint32_t inflight_programs = 0;
  sim::WaitList<> quiesce_waiters;
  /// Payload tags indexed by in-zone LBA; empty until the first tagged
  /// write touches the zone.
  std::vector<std::uint64_t> tags;
  /// Set when the zone reached Full via the Finish command; resets of
  /// finished zones must also unmap the finish-marked region (Obs. 10).
  bool finished = false;
  /// Bytes of real data at the moment the zone was finished (the reset
  /// cost model distinguishes data from finish-padding).
  std::uint64_t data_bytes_at_finish = 0;
  /// Monotonic counter for LRU eviction of implicitly-opened zones.
  std::uint64_t opened_at_seq = 0;
  /// Set by a NAND program failure; the next write-class command on the
  /// zone (or a flush) completes kWriteFault to report the lost buffered
  /// data, then the flag clears.
  bool write_fault_pending = false;
  /// NAND blocks of this zone retired after program failures.
  std::uint32_t retired_blocks = 0;

  /// The zone holds its first `pages` pages, all settled: the one way
  /// reset, finish, crash rollback and fill set program progress.
  void SetSettledPages(std::uint64_t pages) {
    next_program_page = settled_prefix_pages = pages;
    settled_oo_pages.clear();
  }
};

}  // namespace zstor::zns
