// ZnsDevice: the simulated ZNS SSD — the core model of this repository.
//
// Implements the NVMe ZNS command set (read, write, zone append, zone
// management send: open/close/finish/reset) over the internal structure
// described in profile.h. The controller skeleton it shares with
// ftl::ConvDevice (FCP, buffer slots, noise RNG, NAND array, fault and
// telemetry attach, power-loss outage) is ControllerCore; this class adds
// the zone policy:
//
//   * a serialized firmware command processor (FCP) with strict priority —
//     I/O commands above background reset work — whose per-op costs set
//     the device's saturation IOPS per op class;
//   * a pipelined post stage (DMA + firmware completion path) that sets
//     the QD=1 latency floor;
//   * a write-back buffer draining to the NAND array, whose program
//     bandwidth caps sustained write/append throughput and whose die
//     queues produce read tail latency under write load;
//   * the full Fig.-1 zone state machine with max-open / max-active
//     limits, implicit opens (with the measured first-I/O penalty), and
//     LRU eviction of implicitly-opened zones at the open limit;
//   * occupancy-dependent reset and finish cost models executed in
//     background-priority slices on the FCP.
//
// Thread model: everything runs on one Simulator; concurrency is
// coroutine-level (many Execute() calls in flight).
#pragma once

#include <coroutine>
#include <cstdint>
#include <optional>
#include <vector>

#include "nand/flash_array.h"
#include "nvme/log_page.h"
#include "nvme/types.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "telemetry/telemetry.h"
#include "zns/controller_core.h"
#include "zns/profile.h"
#include "zns/zone.h"

namespace zstor::zns {

struct ZnsCounters : DeviceCounters {
  std::uint64_t zone_reports = 0;
  std::uint64_t zones_worn_offline = 0;
  std::uint64_t appends = 0;  // bytes_written counts writes + appends
  std::uint64_t explicit_opens = 0;
  std::uint64_t implicit_opens = 0;
  std::uint64_t implicit_open_evictions = 0;
  std::uint64_t closes = 0;
  std::uint64_t finishes = 0;
  std::uint64_t resets = 0;
  std::uint64_t zones_degraded_readonly = 0;
  std::uint64_t zones_failed_offline = 0;  // via spare exhaustion
  std::uint64_t spare_blocks_used = 0;
  std::uint64_t zone_transitions = 0;  // zone state-machine edges taken
  // Power-loss detail (DESIGN.md §11; zero without injected crashes).
  std::uint64_t torn_pages = 0;        // out-of-order settled pages dropped
  std::uint64_t crash_lost_bytes = 0;  // acked-but-volatile bytes dropped
  std::uint64_t recovery_zone_scans = 0;  // zones probed for their wp

  /// Every counter under the "zns." prefix (the field-table protocol;
  /// see telemetry/metrics.h).
  static constexpr telemetry::CounterField<ZnsCounters> kFields[] = {
      {"zns.reads", &ZnsCounters::reads},
      {"zns.flushes", &ZnsCounters::flushes},
      {"zns.zone_reports", &ZnsCounters::zone_reports},
      {"zns.zones_worn_offline", &ZnsCounters::zones_worn_offline},
      {"zns.writes", &ZnsCounters::writes},
      {"zns.appends", &ZnsCounters::appends},
      {"zns.explicit_opens", &ZnsCounters::explicit_opens},
      {"zns.implicit_opens", &ZnsCounters::implicit_opens},
      {"zns.implicit_open_evictions", &ZnsCounters::implicit_open_evictions},
      {"zns.closes", &ZnsCounters::closes},
      {"zns.finishes", &ZnsCounters::finishes},
      {"zns.resets", &ZnsCounters::resets},
      {"zns.bytes_written", &ZnsCounters::bytes_written},
      {"zns.bytes_read", &ZnsCounters::bytes_read},
      {"zns.host_rejects", &ZnsCounters::host_rejects},
      {"zns.media_errors", &ZnsCounters::media_errors},
      {"zns.read_faults", &ZnsCounters::read_faults},
      {"zns.write_faults", &ZnsCounters::write_faults},
      {"zns.retired_blocks", &ZnsCounters::retired_blocks},
      {"zns.zones_degraded_readonly", &ZnsCounters::zones_degraded_readonly},
      {"zns.zones_failed_offline", &ZnsCounters::zones_failed_offline},
      {"zns.spare_blocks_used", &ZnsCounters::spare_blocks_used},
      {"zns.zone_transitions", &ZnsCounters::zone_transitions},
      {"zns.crashes", &ZnsCounters::crashes},
      {"zns.recoveries", &ZnsCounters::recoveries},
      {"zns.torn_pages", &ZnsCounters::torn_pages},
      {"zns.crash_lost_bytes", &ZnsCounters::crash_lost_bytes},
      {"zns.recovery_zone_scans", &ZnsCounters::recovery_zone_scans},
      {"zns.recovery_ns_total", &ZnsCounters::recovery_ns_total},
      {"zns.reset_drops", &ZnsCounters::reset_drops},
  };

  void Describe(telemetry::MetricsRegistry& m) const {
    telemetry::SetFields(*this, m);
  }
};
static_assert(telemetry::ListsEveryFieldOnce<ZnsCounters>());

/// Where a zone's pages live on NAND, derived from the profile once when
/// the device is built. Zone page p sits on die p % dies, in the zone's
/// block (p / dies) / pages_per_block of that die; each zone owns
/// `blocks_per_zone_per_die` consecutive blocks on every die.
struct ZoneLayout {
  std::uint32_t dies = 0;
  std::uint32_t pages_per_block = 0;
  std::uint32_t blocks_per_zone_per_die = 0;
  std::uint64_t zone_cap_pages = 0;
};

class ZnsDevice : public ControllerCore {
 public:
  /// `lba_bytes` selects the namespace LBA format (512 or 4096 in the
  /// paper's experiments; any power of two <= the NAND page works).
  ZnsDevice(sim::Simulator& s, ZnsProfile profile,
            std::uint32_t lba_bytes = 4096);

  /// Injects a power loss right now, then runs the modeled recovery
  /// (controller boot + per-zone write-pointer rediscovery). Loss
  /// semantics (DESIGN.md §11): every write-buffer byte not yet settled
  /// on NAND is gone, out-of-order settled pages beyond the contiguous
  /// durable prefix are torn (discarded), and every in-flight command
  /// completes with kDeviceReset.
  sim::Task<> CrashNow() override;

  // ---- introspection --------------------------------------------------
  const ZnsProfile& profile() const { return profile_; }
  const ZoneLayout& layout() const { return layout_; }
  const ZnsCounters& counters() const { return counters_; }
  ZoneState GetZoneState(std::uint32_t zone) const;
  /// Write pointer as an absolute LBA (== ZSLBA when the zone is empty).
  nvme::Lba ZoneWritePointerLba(std::uint32_t zone) const;
  /// Bytes written to the zone's data area so far.
  std::uint64_t ZoneWrittenBytes(std::uint32_t zone) const;
  std::uint32_t open_zone_count() const { return open_count_; }
  std::uint32_t active_zone_count() const { return active_count_; }
  nvme::Lba ZoneStartLba(std::uint32_t zone) const;
  std::uint32_t ZoneOfLba(nvme::Lba lba) const;
  /// Null when the profile bypasses the NAND backend (FEMU-like).
  nand::FlashArray* flash() { return flash_.get(); }

  // ---- log pages (nvme/log_page.h) ------------------------------------
  // Free introspection: no virtual time, no counter side effects — unlike
  // the ReportZones *command*, which models the real report cost.
  /// SMART-like health/activity page (host + media + zone-mgmt activity).
  nvme::SmartLog GetSmartLog() const;
  /// Per-zone state + occupancy, mirroring the zone state machine.
  nvme::ZoneReportLog GetZoneReportLog() const;
  /// Free write-back buffer capacity in NAND pages (0 = writes are being
  /// throttled at the NAND drain rate).
  std::uint64_t buffer_free_pages() const { return buffer_slots_.available(); }

  // ---- test/bench acceleration ---------------------------------------
  /// Sets a zone's occupancy directly, with NAND state marked consistently
  /// but no simulated I/O (see DESIGN.md §6 "Fill acceleration"). The zone
  /// must be Empty. A partially-filled zone becomes Closed (and consumes
  /// an active slot — callers must respect max_active); a full fill makes
  /// it Full.
  void DebugFillZone(std::uint32_t zone, std::uint64_t bytes);

  /// Forces a zone into a degraded state (kReadOnly or kOffline only) so
  /// tests can exercise the otherwise fault-gated state-machine arms
  /// without configuring a fault plan. Open/active accounting follows the
  /// normal transition rules.
  void DebugSetZoneState(std::uint32_t zone, ZoneState state);

 private:
  std::optional<sim::Task<nvme::Completion>> Dispatch(
      const nvme::Command& cmd) override;

  // Command handlers. `tid` is the command's telemetry trace id (0 when
  // tracing is off or the caller didn't thread one through).
  sim::Task<nvme::Completion> DoRead(nvme::Command cmd);
  /// Write and Zone Append (one path; they branch only where they differ).
  sim::Task<nvme::Completion> DoWrite(nvme::Command cmd);
  sim::Task<nvme::Completion> DoZoneMgmt(nvme::Command cmd);
  sim::Task<nvme::Completion> DoOpen(std::uint32_t zone, std::uint64_t tid);
  sim::Task<nvme::Completion> DoClose(std::uint32_t zone, std::uint64_t tid);
  sim::Task<nvme::Completion> DoFinish(std::uint32_t zone, std::uint64_t tid);
  sim::Task<nvme::Completion> DoReset(std::uint32_t zone, std::uint64_t tid);
  sim::Task<nvme::Completion> DoResetAll(std::uint64_t tid);
  /// Suspends until the zone has no NAND program in flight.
  struct ProgramsSettled : sim::WaitNode {
    explicit ProgramsSettled(Zone& zone) : z(zone) {}
    Zone& z;
    bool await_ready() const { return z.inflight_programs == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      z.quiesce_waiters.Push(*this, h);
    }
    void await_resume() const noexcept {}
  };
  /// Ends a finish's or reset's quiesce of the zone's NAND programs,
  /// begun at `quiesce_begin` (the wait stays in the handler): traces
  /// `zone.quiesce`, then returns kDeviceReset after a power loss,
  /// kWriteFault when an in-flight program degraded the zone, else
  /// kSuccess.
  nvme::Status Quiesced(std::uint32_t zone, std::uint64_t tid,
                        sim::Time quiesce_begin, std::uint64_t epoch0);
  sim::Task<nvme::Completion> DoReportZones(nvme::Command cmd);
  sim::Task<nvme::Completion> DoFlush(std::uint64_t tid);
  /// True when any of the zone's NAND blocks has exhausted its endurance.
  bool ZoneWornOut(std::uint32_t zone) const;

  // State-machine helpers (called while holding the FCP).
  nvme::Status EnsureOpenForIo(std::uint32_t zone, bool& first_io);
  bool TakeOpenSlotWithEviction();
  void SetZoneState(std::uint32_t zone, ZoneState next);
  void TransitionToFullLocked(std::uint32_t zone, bool via_finish);

  // Cost model helpers.
  sim::Time FcpIoCost(nvme::Opcode op, std::uint64_t bytes,
                      std::uint32_t nlb, nvme::Lba slba) const;
  /// The unmap work of resetting `z`; draws the reset noise.
  sim::Time ResetCost(const Zone& z);

  // NAND path. `epoch` is the power epoch the program was admitted under;
  // a program completing after a crash (stale epoch) releases its
  // resources but must not touch zone state — the crash rolled it back.
  nand::PageAddr AddrOfZonePage(std::uint32_t zone,
                                std::uint64_t page_idx) const;
  /// Calls fn(die, block, n) for each of the zone's NAND blocks, die by
  /// die, with n the number of the zone's first `pages` pages (striped
  /// round-robin across the dies) that land in that block.
  template <typename Fn>
  void ForEachZoneBlock(std::uint32_t zone, std::uint64_t pages, Fn fn) const;
  /// Marks the zone's first `pages` pages programmed with no simulated I/O.
  void MarkPagesProgrammed(std::uint32_t zone, std::uint64_t pages);
  sim::Task<> ProgramZonePage(std::uint32_t zone, std::uint64_t page_idx,
                              std::uint64_t epoch);
  /// Retires the failed block, charges spare accounting, and degrades the
  /// owning zone (ReadOnly; Offline once spares are exhausted).
  void HandleProgramFailure(std::uint32_t zone, nand::PageAddr addr);
  /// Dispatches NAND programs for all fully-covered pages up to
  /// `end_off_bytes`, waiting on buffer-slot admission (backpressure).
  /// Stops early (without dispatching) if a power loss lands while it
  /// waits for a slot — the crash already rolled the zone back.
  sim::Task<> AdmitPrograms(std::uint32_t zone, std::uint64_t end_off_bytes,
                            std::uint64_t epoch);

  // Crash/recovery path (DESIGN.md §11).
  /// Marks a settled (completed, pass or fail) program for durable-prefix
  /// tracking: extends the contiguous prefix or records an out-of-order
  /// page that a crash would tear.
  void NoteProgramSettled(std::uint32_t zone, std::uint64_t page_idx);
  /// Applies power-loss semantics to one zone: rolls the wp and program
  /// progress back to the durable prefix, discards the NAND tail,
  /// truncates payload tags, and recomputes the zone state from the
  /// recovered wp. Returns bytes of acked-but-volatile data lost.
  std::uint64_t CrashRollbackZone(std::uint32_t zone);
  /// Post-boot write-pointer rediscovery for one active zone: binary-
  /// search ProbePage scan over the zone's page span (costs real die
  /// time). Returns the discovered page count; CHECKed against the
  /// tracked durable prefix.
  sim::Task<std::uint64_t> ScanZoneWritePointer(std::uint32_t zone);

  // Payload-tag store (self-describing data-integrity model; nvme/types.h
  // Command::payload_tag). A zone's tag vector is allocated lazily — only
  // workloads that tag their writes pay the memory.
  void StoreTags(std::uint32_t zone, std::uint64_t off_bytes,
                 std::uint32_t nlb, std::uint64_t first_tag);
  void LoadTags(std::uint32_t zone, std::uint64_t off_bytes,
                std::uint32_t nlb, std::vector<std::uint64_t>& out) const;

  // Validation.
  nvme::Status ValidateIoRange(const nvme::Command& cmd, bool is_write) const;
  std::uint64_t ZoneDataOffsetBytes(nvme::Lba lba) const;

  ZnsProfile profile_;
  std::uint32_t lba_bytes_;
  std::uint64_t zone_size_lbas_;
  std::uint64_t zone_cap_lbas_;

  ZoneLayout layout_;
  /// Built once at its final size: a Zone stays put (waiters point in).
  std::vector<Zone> zones_;
  /// Drained Zone::settled_oo_pages lists, kept for the next zone that
  /// settles a page out of order: a warm device allocates none.
  std::vector<std::vector<std::uint64_t>> spare_oo_lists_;

  /// RAII tracking of I/O commands currently executing. Reset work only
  /// takes its bulk fast-path when the device has been I/O-quiet for a
  /// while — brief QD=1 submission gaps must not let a reset skip the
  /// background-priority slicing that produces Obs. 13.
  struct InflightGuard {
    ZnsDevice& dev;
    explicit InflightGuard(ZnsDevice& d) : dev(d) {
      ++dev.io_inflight_;
      dev.quiet_at_ = sim::kNever;
    }
    ~InflightGuard() {
      if (--dev.io_inflight_ == 0) {
        dev.quiet_at_ = dev.sim_.now() + sim::Milliseconds(1);
      }
    }
    InflightGuard(const InflightGuard&) = delete;
    InflightGuard& operator=(const InflightGuard&) = delete;
  };

  bool DeviceIsIoQuiet() const;

  /// Set by any program failure, cleared by the next flush: flush reports
  /// buffered-data loss even when the host never rewrites the zone.
  bool flush_fault_pending_ = false;
  std::uint32_t io_inflight_ = 0;
  /// When the device turns I/O-quiet: 0 before any I/O, kNever while I/O
  /// is in flight, else 1 ms after the last I/O ended. A reset holding
  /// the FCP on the slice chain wakes at its first boundary at or after.
  sim::Time quiet_at_ = 0;
  std::uint32_t open_count_ = 0;
  std::uint32_t active_count_ = 0;
  std::uint64_t open_seq_ = 0;
  ZnsCounters counters_;
};

}  // namespace zstor::zns
