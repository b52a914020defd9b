// Pins the metric names every counters struct exports through its
// Describe(): ztrace, the timeline baselines and the committed result files
// read these names, so a rename must fail here. That each field table
// lists every struct member once is checked at compile time, next to
// the table (telemetry::ListsEveryFieldOnce).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "ftl/conv_device.h"
#include "hostif/host_stack.h"
#include "hostif/resilient_stack.h"
#include "nand/flash_array.h"
#include "telemetry/metrics.h"
#include "zkv/kv_store.h"
#include "zns/zns_device.h"

namespace zstor {
namespace {

std::vector<std::string> SnapshotNames(
    const telemetry::MetricsRegistry& reg) {
  std::vector<std::string> out;
  for (const auto& m : reg.TakeSnapshot().metrics) out.push_back(m.name);
  return out;
}

void ExpectAll(const std::vector<std::string>& have,
               const std::vector<std::string>& want) {
  for (const std::string& name : want) {
    EXPECT_NE(std::find(have.begin(), have.end(), name), have.end())
        << "counter not registered by Describe(): " << name;
  }
}

TEST(CountersCoverage, ZnsDescribeExportsEveryField) {
  telemetry::MetricsRegistry reg;
  zns::ZnsCounters{}.Describe(reg);
  std::vector<std::string> names = SnapshotNames(reg);
  EXPECT_EQ(names.size(), 30u);
  ExpectAll(names,
            {"zns.reads", "zns.writes", "zns.appends", "zns.flushes",
             "zns.zone_reports", "zns.zones_worn_offline",
             "zns.explicit_opens", "zns.implicit_opens",
             "zns.implicit_open_evictions", "zns.closes", "zns.finishes",
             "zns.resets", "zns.bytes_written", "zns.bytes_read",
             "zns.host_rejects", "zns.media_errors", "zns.read_faults",
             "zns.write_faults", "zns.retired_blocks",
             "zns.zones_degraded_readonly", "zns.zones_failed_offline",
             "zns.spare_blocks_used", "zns.zone_transitions",
             "zns.crashes", "zns.recoveries", "zns.torn_pages",
             "zns.crash_lost_bytes", "zns.recovery_zone_scans",
             "zns.recovery_ns_total", "zns.reset_drops"});
}

TEST(CountersCoverage, ConvDescribeExportsEveryFieldPlusWa) {
  telemetry::MetricsRegistry reg;
  ftl::ConvCounters{}.Describe(reg);
  std::vector<std::string> names = SnapshotNames(reg);
  // 27 counters + the derived write_amplification gauge.
  EXPECT_EQ(names.size(), 28u);
  ExpectAll(names,
            {"conv.reads", "conv.writes", "conv.deallocates",
             "conv.units_trimmed", "conv.bytes_read", "conv.bytes_written",
             "conv.host_units_programmed", "conv.gc_invocations",
             "conv.gc_units_migrated", "conv.gc_blocks_erased",
             "conv.host_rejects", "conv.media_errors", "conv.read_faults",
             "conv.write_faults", "conv.retired_blocks",
             "conv.program_retries", "conv.flushes", "conv.journal_syncs",
             "conv.checkpoints", "conv.journal_units_written",
             "conv.crashes", "conv.recoveries", "conv.crash_lost_units",
             "conv.journal_reverted_entries",
             "conv.recovery_replay_entries", "conv.recovery_ns_total",
             "conv.reset_drops", "conv.write_amplification"});
}

TEST(CountersCoverage, FlashDescribeExportsEveryField) {
  telemetry::MetricsRegistry reg;
  nand::FlashCounters{}.Describe(reg);
  std::vector<std::string> names = SnapshotNames(reg);
  EXPECT_EQ(names.size(), 11u);
  ExpectAll(names, {"nand.page_reads", "nand.page_programs",
                    "nand.block_erases", "nand.bytes_read",
                    "nand.bytes_programmed", "nand.read_retries",
                    "nand.read_errors", "nand.program_failures",
                    "nand.blocks_retired", "nand.recovery_probes",
                    "nand.crash_discarded_pages"});
}

TEST(CountersCoverage, FaultDescribeExportsEveryField) {
  telemetry::MetricsRegistry reg;
  fault::FaultCounters{}.Describe(reg);
  std::vector<std::string> names = SnapshotNames(reg);
  EXPECT_EQ(names.size(), 6u);
  ExpectAll(names,
            {"fault.correctable_read_errors",
             "fault.uncorrectable_read_errors", "fault.program_failures",
             "fault.read_retry_steps", "fault.scheduled_fired",
             "fault.wear_boosted_ops"});
}

TEST(CountersCoverage, ResilienceDescribeExportsEveryField) {
  telemetry::MetricsRegistry reg;
  hostif::ResilienceStats{}.Describe(reg);
  std::vector<std::string> names = SnapshotNames(reg);
  EXPECT_EQ(names.size(), 9u);
  ExpectAll(names,
            {"hostif.commands", "hostif.attempts", "hostif.retries",
             "hostif.timeouts", "hostif.recovered",
             "hostif.terminal_errors", "hostif.retries_exhausted",
             "hostif.device_resets_seen", "hostif.replayed_dupes"});
}

TEST(CountersCoverage, KvDescribeExportsEveryFieldPlusWa) {
  telemetry::MetricsRegistry reg;
  zkv::KvStats{}.Describe(reg);
  std::vector<std::string> names = SnapshotNames(reg);
  // 27 counters + the derived write_amplification gauge.
  EXPECT_EQ(names.size(), 28u);
  ExpectAll(names,
            {"kv.puts", "kv.gets", "kv.deletes", "kv.found", "kv.missing",
             "kv.user_bytes", "kv.wal_appends", "kv.wal_bytes",
             "kv.wal_resets", "kv.memtable_rotations", "kv.flushes",
             "kv.flush_bytes", "kv.tables_written", "kv.tables_deleted",
             "kv.compactions", "kv.compact_bytes_read",
             "kv.compact_bytes_written", "kv.gc_passes",
             "kv.gc_relocated_bytes", "kv.zone_resets", "kv.write_stall_ns",
             "kv.read_ios", "kv.read_tag_mismatches", "kv.crash_recoveries",
             "kv.wal_replayed", "kv.wal_lost", "kv.tables_dropped",
             "kv.write_amplification"});
}

TEST(CountersCoverage, SchedulerDescribeExportsEveryFieldPlusFraction) {
  telemetry::MetricsRegistry reg;
  hostif::SchedulerStats{}.Describe(reg);
  std::vector<std::string> names = SnapshotNames(reg);
  EXPECT_EQ(names.size(), 4u);
  ExpectAll(names, {"sched.staged_writes", "sched.dispatched_writes",
                    "sched.merged_writes", "sched.merged_fraction"});
}

}  // namespace
}  // namespace zstor
