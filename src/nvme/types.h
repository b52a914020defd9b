// NVMe command-set types shared by the ZNS and conventional device models.
//
// Mirrors the structure (not the binary layout) of the NVMe 2.0 base and
// Zoned Namespace command sets: I/O commands, zone management send/receive,
// status codes, and LBA formats.
//
// As in NVMe, a completion is only the completion queue entry (CQE):
// status, an entry count and one result word. Anything larger —
// read-back payload tags, a zone report — is transferred into a host
// buffer the command names through its data pointer (Command::data, the
// PRP), which the caller owns and keeps alive until the command
// completes. Both completion types are trivially copyable, so passing
// one up through a stack of coroutines copies a few words and frees
// nothing.
#pragma once

#include <cstdint>
#include <string_view>
#include <type_traits>

#include "sim/time.h"

namespace zstor::nvme {

/// Logical block address.
using Lba = std::uint64_t;

enum class Opcode : std::uint8_t {
  kRead,
  kWrite,
  kAppend,          // ZNS Zone Append
  kZoneMgmtSend,    // open/close/finish/reset, selected by ZoneAction
  kZoneMgmtRecv,    // zone report
  kFlush,
  kDeallocate,      // dataset management / TRIM (conventional namespaces)
};

enum class ZoneAction : std::uint8_t {
  kNone,
  kOpen,    // Explicit Open
  kClose,
  kFinish,
  kReset,
};

enum class Status : std::uint8_t {
  kSuccess,
  kInvalidOpcode,
  kInvalidField,
  kLbaOutOfRange,
  kZoneBoundaryError,      // I/O crosses a zone boundary
  kZoneIsFull,
  kZoneIsEmpty,
  kZoneIsReadOnly,
  kZoneIsOffline,
  kZoneInvalidWrite,       // write not at the write pointer
  kZoneInvalidStateTransition,
  kTooManyActiveZones,
  kTooManyOpenZones,
  kWriteProhibited,
  kMediaReadError,         // uncorrectable NAND read (ECC exhausted)
  kWriteFault,             // NAND program failure lost buffered data
  kInternalError,          // device-internal failure
  /// Host-side pseudo-status: the command outlived the host stack's
  /// per-attempt timeout. Never produced by a device — synthesized by
  /// hostif::ResilientStack, and classified as retryable.
  kHostTimeout,
  /// The controller lost power (or is rebooting/recovering from a power
  /// loss): the command was dropped without executing, or its completion
  /// was lost in the crash. Retryable — the host re-drives the command
  /// once the controller is back (idempotency is the host's problem; see
  /// hostif::ResilientStack's append replay validation).
  kDeviceReset,
};

/// The highest Status enumerator. Tests iterate [0, kMaxStatus] to assert
/// ToString covers every value — keep in sync when extending the enum.
inline constexpr Status kMaxStatus = Status::kDeviceReset;

constexpr std::string_view ToString(Status s) {
  switch (s) {
    case Status::kSuccess: return "Success";
    case Status::kInvalidOpcode: return "InvalidOpcode";
    case Status::kInvalidField: return "InvalidField";
    case Status::kLbaOutOfRange: return "LbaOutOfRange";
    case Status::kZoneBoundaryError: return "ZoneBoundaryError";
    case Status::kZoneIsFull: return "ZoneIsFull";
    case Status::kZoneIsEmpty: return "ZoneIsEmpty";
    case Status::kZoneIsReadOnly: return "ZoneIsReadOnly";
    case Status::kZoneIsOffline: return "ZoneIsOffline";
    case Status::kZoneInvalidWrite: return "ZoneInvalidWrite";
    case Status::kZoneInvalidStateTransition:
      return "ZoneInvalidStateTransition";
    case Status::kTooManyActiveZones: return "TooManyActiveZones";
    case Status::kTooManyOpenZones: return "TooManyOpenZones";
    case Status::kWriteProhibited: return "WriteProhibited";
    case Status::kMediaReadError: return "MediaReadError";
    case Status::kWriteFault: return "WriteFault";
    case Status::kInternalError: return "InternalError";
    case Status::kHostTimeout: return "HostTimeout";
    case Status::kDeviceReset: return "DeviceReset";
  }
  return "Unknown";
}

/// True for statuses reporting a device-internal media/hardware fault (as
/// opposed to the host sending an invalid or inapplicable command). The
/// SMART log counts the two populations separately (media_errors vs.
/// host_rejects) and host retry policies treat them differently.
constexpr bool IsMediaError(Status s) {
  return s == Status::kMediaReadError || s == Status::kWriteFault ||
         s == Status::kInternalError;
}

constexpr std::string_view ToString(Opcode op) {
  switch (op) {
    case Opcode::kRead: return "read";
    case Opcode::kWrite: return "write";
    case Opcode::kAppend: return "append";
    case Opcode::kZoneMgmtSend: return "zone-mgmt-send";
    case Opcode::kZoneMgmtRecv: return "zone-mgmt-recv";
    case Opcode::kFlush: return "flush";
    case Opcode::kDeallocate: return "deallocate";
  }
  return "unknown";
}

/// The namespace's LBA format. The paper evaluates 512 B and 4 KiB
/// (Observation #1: the format strongly affects write/append latency).
struct LbaFormat {
  std::uint32_t lba_bytes = 4096;

  std::uint64_t BytesToLbas(std::uint64_t bytes) const {
    return (bytes + lba_bytes - 1) / lba_bytes;
  }
};

/// An NVMe command as submitted on a submission queue.
struct Command {
  Opcode opcode = Opcode::kRead;
  Lba slba = 0;            // starting LBA; for append: the zone's ZSLBA
  std::uint32_t nlb = 1;   // number of logical blocks
  ZoneAction zone_action = ZoneAction::kNone;
  bool select_all = false;  // zone mgmt: apply to all zones
  /// Zone Management Receive (report zones): maximum descriptors to
  /// return, 0 = all from `slba`'s zone onward. `data` must hold that
  /// many ZoneDescriptors.
  std::uint32_t report_max = 0;
  /// Telemetry correlation id threading the command through every layer's
  /// trace spans. 0 = unassigned; the first traced stack layer assigns
  /// one on entry (telemetry::Tracer::NextId()).
  std::uint64_t trace_id = 0;
  /// End-to-end data-integrity tag (0 = untagged, the default: zero
  /// overhead). On writes/appends, LBA i of the command stores tag
  /// `payload_tag + i` — self-describing, so append callers that learn
  /// their LBA only from the completion can still reconstruct what each
  /// block must hold. On reads, any nonzero value requests tag readback:
  /// the device writes the stored tag of every LBA in the range into
  /// `data` (`nlb` entries; 0 for never-written or discarded blocks). The
  /// tag stands in for the payload the simulator does not carry;
  /// crash/recovery tests verify that recovered devices return exactly
  /// the tags that were durably written.
  std::uint64_t payload_tag = 0;
  /// The host buffer the device transfers returned data into, standing in
  /// for NVMe's data pointer (PRP): `std::uint64_t[nlb]` for a read with a
  /// nonzero `payload_tag`, `ZoneDescriptor[]` for a Zone Management
  /// Receive. Owned by the caller and written only on success, when the
  /// device completes; unused (may be null) for every other command.
  void* data = nullptr;
};
static_assert(std::is_trivially_copyable_v<Command>);
static_assert(sizeof(Command) <= 56);

/// One entry of a zone report (Zone Management Receive).
struct ZoneDescriptor {
  Lba zslba = 0;
  Lba write_pointer = 0;
  std::uint64_t zone_cap_lbas = 0;
  std::uint8_t state_raw = 0;  // zns::ZoneState numeric value
};

/// The completion queue entry (CQE).
struct Completion {
  Status status = Status::kSuccess;
  /// Entries the device wrote into Command::data: the descriptors of a
  /// zone report, `nlb` for a tag readback, 0 otherwise.
  std::uint32_t count = 0;
  /// For append: the LBA the data landed on (returned by the device).
  Lba result_lba = 0;

  bool ok() const { return status == Status::kSuccess; }
};
static_assert(std::is_trivially_copyable_v<Completion>);

/// A completion as the host observed it: the paper's latency runs from
/// submission until the completion is visible to the caller (§III-B).
struct TimedCompletion {
  Completion completion;
  sim::Time submitted = 0;
  sim::Time completed = 0;
  std::uint64_t trace_id = 0;  // correlates with trace spans (0 = untraced)
  sim::Time latency() const { return completed - submitted; }
};
static_assert(std::is_trivially_copyable_v<TimedCompletion>);

}  // namespace zstor::nvme
