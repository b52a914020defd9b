// Device-side controller interface implemented by the ZNS and conventional
// device models, plus the namespace self-description host software reads
// (the `nvme id-ns` analogue).
#pragma once

#include <cstdint>

#include "nvme/types.h"
#include "sim/task.h"

namespace zstor::nvme {

/// Static namespace properties, as identify-namespace would report them.
struct NamespaceInfo {
  LbaFormat format;
  std::uint64_t capacity_lbas = 0;
  bool zoned = false;
  // Zoned-namespace fields (valid when `zoned`):
  std::uint64_t zone_size_lbas = 0;  // LBA-address span of one zone
  std::uint64_t zone_cap_lbas = 0;   // writable LBAs per zone (<= size)
  std::uint32_t num_zones = 0;
  std::uint32_t max_open_zones = 0;
  std::uint32_t max_active_zones = 0;
};

/// A device controller executes one NVMe command and returns its
/// completion. Execution time is whatever the device model charges in
/// virtual time; concurrency comes from many Execute() coroutines being in
/// flight at once (bounded by the host stack's queue depth).
class Controller {
 public:
  virtual ~Controller() = default;
  virtual const NamespaceInfo& info() const = 0;
  virtual sim::Task<Completion> Execute(const Command& cmd) = 0;
};

}  // namespace zstor::nvme
