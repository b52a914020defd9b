// NVMe-style log pages: structured, queryable device self-reports,
// modeled on the SMART / Health Information and Zone Report log pages a
// real controller serves through Get Log Page.
//
// Unlike trace events (what happened over time) these are *state*
// snapshots: free-function introspection with no virtual-time cost and no
// counter side effects, so tests and benches can interrogate a device
// mid-experiment without perturbing it. Both simulated devices produce
// them — zns::ZnsDevice::GetSmartLog()/GetZoneReportLog() and
// ftl::ConvDevice::GetSmartLog() — and zstor::Testbed bundles all of a
// device's pages into one JSON document (--logpages=FILE in benches).
//
// JSON schemas are documented in DESIGN.md §7.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/metrics.h"

namespace zstor::nvme {

/// SMART-like device health/activity log. One struct serves both device
/// models: fields that do not apply to a model are zero (e.g. zone_*
/// for the conventional FTL, gc_* for ZNS) and `device` says which model
/// produced the page.
struct SmartLog {
  std::string device;  // "zns" or "conv"

  // Host-visible command activity.
  std::uint64_t host_reads = 0;
  std::uint64_t host_writes = 0;  // writes + appends for ZNS
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  /// Commands rejected for host-side reasons (bad range, wrong zone
  /// state, open/active limits): caller bugs, not device faults.
  std::uint64_t host_rejects = 0;
  /// Commands completed with a media/hardware fault status. Together with
  /// host_rejects this replaces the old undifferentiated io_errors field.
  std::uint64_t media_errors = 0;

  // Media-fault detail (all zero without injected faults).
  std::uint64_t read_faults = 0;       // uncorrectable-read commands
  std::uint64_t write_faults = 0;      // NAND program failures observed
  std::uint64_t retired_blocks = 0;    // blocks taken out of service
  std::uint64_t spare_blocks_used = 0;
  std::uint64_t spare_blocks_total = 0;
  std::uint64_t media_read_retries = 0;  // correctable read-retry episodes

  // Media (NAND) activity — what the device did to flash to serve the
  // host, including padding/GC traffic the host never issued.
  std::uint64_t media_page_reads = 0;
  std::uint64_t media_page_programs = 0;
  std::uint64_t media_block_erases = 0;
  std::uint64_t media_bytes_read = 0;
  std::uint64_t media_bytes_programmed = 0;

  // Zone-management activity (ZNS only).
  std::uint64_t zone_resets = 0;
  std::uint64_t zone_finishes = 0;
  std::uint64_t zone_explicit_opens = 0;
  std::uint64_t zone_implicit_opens = 0;
  std::uint64_t zone_closes = 0;
  std::uint64_t zone_transitions = 0;
  std::uint64_t zones_worn_offline = 0;
  std::uint64_t zones_degraded_readonly = 0;  // via program failures
  std::uint64_t zones_failed_offline = 0;     // via spare exhaustion

  // Garbage-collection activity (conventional FTL only).
  std::uint64_t gc_invocations = 0;
  std::uint64_t gc_units_migrated = 0;
  std::uint64_t gc_blocks_erased = 0;

  /// NAND programs per host write; exactly 1.0 for ZNS (no device GC).
  double write_amplification = 1.0;

  /// Every integer field, named by its JSON key (the field-table protocol
  /// of telemetry/metrics.h). Drives ToJson() and the summed SMART page
  /// of a striped testbed.
  static constexpr telemetry::CounterField<SmartLog> kFields[] = {
      {"host_reads", &SmartLog::host_reads},
      {"host_writes", &SmartLog::host_writes},
      {"bytes_read", &SmartLog::bytes_read},
      {"bytes_written", &SmartLog::bytes_written},
      {"host_rejects", &SmartLog::host_rejects},
      {"media_errors", &SmartLog::media_errors},
      {"read_faults", &SmartLog::read_faults},
      {"write_faults", &SmartLog::write_faults},
      {"retired_blocks", &SmartLog::retired_blocks},
      {"spare_blocks_used", &SmartLog::spare_blocks_used},
      {"spare_blocks_total", &SmartLog::spare_blocks_total},
      {"media_read_retries", &SmartLog::media_read_retries},
      {"media_page_reads", &SmartLog::media_page_reads},
      {"media_page_programs", &SmartLog::media_page_programs},
      {"media_block_erases", &SmartLog::media_block_erases},
      {"media_bytes_read", &SmartLog::media_bytes_read},
      {"media_bytes_programmed", &SmartLog::media_bytes_programmed},
      {"zone_resets", &SmartLog::zone_resets},
      {"zone_finishes", &SmartLog::zone_finishes},
      {"zone_explicit_opens", &SmartLog::zone_explicit_opens},
      {"zone_implicit_opens", &SmartLog::zone_implicit_opens},
      {"zone_closes", &SmartLog::zone_closes},
      {"zone_transitions", &SmartLog::zone_transitions},
      {"zones_worn_offline", &SmartLog::zones_worn_offline},
      {"zones_degraded_readonly", &SmartLog::zones_degraded_readonly},
      {"zones_failed_offline", &SmartLog::zones_failed_offline},
      {"gc_invocations", &SmartLog::gc_invocations},
      {"gc_units_migrated", &SmartLog::gc_units_migrated},
      {"gc_blocks_erased", &SmartLog::gc_blocks_erased},
  };

  std::string ToJson() const;
};
static_assert(telemetry::ListsEveryFieldOnce<SmartLog>(sizeof(std::string) +
                                                       sizeof(double)));

/// One zone's row in the Zone Report log.
struct ZoneReportEntry {
  std::uint32_t zone = 0;
  std::uint32_t state_raw = 0;  // numeric ZoneState value
  std::string state;            // "Empty", "ExplicitlyOpened", ...
  std::uint64_t zslba = 0;
  std::uint64_t write_pointer = 0;  // absolute LBA
  std::uint64_t written_bytes = 0;
  std::uint64_t cap_bytes = 0;
  /// NAND blocks of this zone retired after program failures (degraded
  /// zones report how much redundancy they lost).
  std::uint32_t retired_blocks = 0;

  /// written_bytes / cap_bytes in [0,1].
  double Occupancy() const {
    return cap_bytes == 0
               ? 0.0
               : static_cast<double>(written_bytes) /
                     static_cast<double>(cap_bytes);
  }
};

/// Zone Report log: per-zone state + occupancy plus the device-wide
/// open/active accounting the state machine enforces.
struct ZoneReportLog {
  std::uint32_t num_zones = 0;
  std::uint32_t open_zones = 0;
  std::uint32_t active_zones = 0;
  std::uint32_t max_open = 0;
  std::uint32_t max_active = 0;
  /// Degraded-zone populations (point-in-time counts over `zones`).
  std::uint32_t read_only_zones = 0;
  std::uint32_t offline_zones = 0;
  std::vector<ZoneReportEntry> zones;

  std::string ToJson() const;
};

/// One die's row in the Die Utilization log.
struct DieUtilEntry {
  std::uint32_t die = 0;
  std::uint64_t reads = 0;
  std::uint64_t programs = 0;
  std::uint64_t erases = 0;
  std::uint64_t busy_ns = 0;
  double utilization = 0.0;  // busy_ns / elapsed_ns, in [0,1]
};

/// Die Utilization log: how evenly work spread across the flash array —
/// the striping/contention ground truth behind the scalability figures.
struct DieUtilLog {
  std::uint64_t elapsed_ns = 0;  // virtual time the page covers
  std::vector<DieUtilEntry> dies;

  std::string ToJson() const;
};

}  // namespace zstor::nvme
