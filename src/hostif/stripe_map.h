// The zone-granular RAID-0 address map shared by every striping layer.
//
// StripedStack and the parallel engine's StripeLaneView route through
// one router (detail::RouteOne in striped_stack.h) over this map, and the
// Testbed shards workers, fills zones and merges zone reports by it, so
// all agree on how logical zones land on devices (MailboxStack only
// forwards commands StripedStack has already routed). This file is the
// one place that placement is computed:
//
//   logical zone z  ->  device z % N, device zone z / N
#pragma once

#include <cstdint>

#include "nvme/types.h"

namespace zstor::hostif {

struct StripeMap {
  std::uint64_t zone_size_lbas = 0;
  std::uint32_t num_devices = 1;

  std::uint32_t LogicalZoneOf(nvme::Lba lba) const {
    return static_cast<std::uint32_t>(lba / zone_size_lbas);
  }
  /// True when [lba, lba + nlb) runs past the end of lba's logical zone.
  bool CrossesZone(nvme::Lba lba, std::uint64_t nlb) const {
    return lba - nvme::Lba{LogicalZoneOf(lba)} * zone_size_lbas + nlb >
           zone_size_lbas;
  }
  /// Device index serving logical zone `lz`.
  std::uint32_t DeviceOf(std::uint32_t lz) const { return lz % num_devices; }
  /// The zone index `lz` maps to on its device.
  std::uint32_t DeviceZoneOf(std::uint32_t lz) const {
    return lz / num_devices;
  }
  /// Logical LBA -> LBA in DeviceOf(zone)'s address space.
  nvme::Lba ToDeviceLba(nvme::Lba logical) const {
    const std::uint32_t lz = LogicalZoneOf(logical);
    const nvme::Lba offset = logical - nvme::Lba{lz} * zone_size_lbas;
    return nvme::Lba{DeviceZoneOf(lz)} * zone_size_lbas + offset;
  }
  /// Device-space LBA on device `d` -> logical LBA (inverse of the
  /// above; used to translate append result LBAs and report entries).
  nvme::Lba ToLogicalLba(std::uint32_t d, nvme::Lba device_lba) const {
    const std::uint32_t dz =
        static_cast<std::uint32_t>(device_lba / zone_size_lbas);
    const nvme::Lba offset = device_lba - nvme::Lba{dz} * zone_size_lbas;
    const std::uint32_t lz = dz * num_devices + d;
    return nvme::Lba{lz} * zone_size_lbas + offset;
  }
  /// Rewrites device `d`'s descriptor of a zone (any type with `zslba`
  /// and `write_pointer`) into logical addresses; the write pointer keeps
  /// its offset, so one just past a full zone stays with that zone.
  template <typename ZoneDesc>
  void ToLogicalZone(std::uint32_t d, ZoneDesc& desc) const {
    const auto wp_offset = desc.write_pointer - desc.zslba;
    desc.zslba = ToLogicalLba(d, desc.zslba);
    desc.write_pointer = desc.zslba + wp_offset;
  }
};

}  // namespace zstor::hostif
