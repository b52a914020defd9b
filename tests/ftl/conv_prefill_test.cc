// DebugPrefill's layout, pinned against a per-unit reference: logical
// page k of the sequential fill lands on die k % dies as that die's
// (k / dies)-th page, and every block it touches is sealed full.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ftl/conv_device.h"

namespace zstor::ftl {

/// Read-only view of the FTL tables (a friend of ConvDevice).
struct ConvDeviceInternals {
  static const std::vector<std::uint32_t>& l2p(const ConvDevice& d) {
    return d.l2p_;
  }
  static const std::vector<std::uint32_t>& p2l(const ConvDevice& d) {
    return d.p2l_;
  }
  static std::uint32_t valid(const ConvDevice& d, std::uint32_t block_id) {
    return d.blocks_[block_id].valid;
  }
  static bool valid_bit(const ConvDevice& d, std::uint32_t block_id,
                        std::uint32_t unit) {
    return d.TestValid(d.PhysUnit(block_id, unit));
  }
  static std::uint32_t write_ptr_units(const ConvDevice& d,
                                       std::uint32_t block_id) {
    return d.blocks_[block_id].write_ptr_units;
  }
};

namespace {

using In = ConvDeviceInternals;
constexpr std::uint32_t kUnmapped = ~0u;

void ExpectPrefillMatchesReference(const ConvProfile& p) {
  sim::Simulator sim;
  ConvDevice dev(sim, p);
  dev.DebugPrefill();

  const nand::Geometry& g = p.nand_geometry;
  const std::uint32_t dies = g.total_dies();
  const std::uint32_t upp = p.units_per_page();
  const std::uint32_t upb = g.pages_per_block * upp;
  const std::uint64_t logical = In::l2p(dev).size();
  std::vector<std::uint32_t> l2p(logical);
  std::vector<std::uint32_t> p2l(In::p2l(dev).size(), kUnmapped);
  std::vector<std::uint32_t> valid(g.total_blocks(), 0);
  std::vector<std::uint32_t> flash_wp(g.total_blocks(), 0);
  for (std::uint64_t u = 0; u < logical; ++u) {
    const std::uint64_t page_seq = u / upp;
    const auto die = static_cast<std::uint32_t>(page_seq % dies);
    const std::uint64_t on_die_page = page_seq / dies;
    const auto blk = static_cast<std::uint32_t>(on_die_page / g.pages_per_block);
    const auto page = static_cast<std::uint32_t>(on_die_page % g.pages_per_block);
    const std::uint32_t id = die * g.blocks_per_die + blk;
    const std::uint32_t phys =
        id * upb + page * upp + static_cast<std::uint32_t>(u % upp);
    l2p[u] = phys;
    p2l[phys] = static_cast<std::uint32_t>(u);
    valid[id]++;
    flash_wp[id] = std::max(flash_wp[id], page + 1);
  }

  EXPECT_EQ(In::l2p(dev), l2p);
  EXPECT_EQ(In::p2l(dev), p2l);
  for (std::uint32_t id = 0; id < g.total_blocks(); ++id) {
    const std::uint32_t die = id / g.blocks_per_die;
    const std::uint32_t blk = id % g.blocks_per_die;
    EXPECT_EQ(In::valid(dev, id), valid[id]) << "block " << id;
    EXPECT_EQ(In::write_ptr_units(dev, id), valid[id] > 0 ? upb : 0u)
        << "block " << id;
    EXPECT_EQ(dev.flash().BlockWritePointer(die, blk), flash_wp[id])
        << "block " << id;
    for (std::uint32_t unit = 0; unit < upb; ++unit) {
      EXPECT_EQ(In::valid_bit(dev, id, unit), p2l[id * upb + unit] != kUnmapped)
          << "block " << id << " unit " << unit;
    }
  }
}

TEST(ConvPrefill, TinyLayoutMatchesTheReference) {
  ExpectPrefillMatchesReference(TinyConvProfile());
}

// 4239 logical units: the last logical page is partial, and the dies'
// last blocks are partly filled.
TEST(ConvPrefill, PartialLastPageMatchesTheReference) {
  ConvProfile p = TinyConvProfile();
  p.op_fraction = 0.31;
  ASSERT_NE(p.logical_bytes() / p.map_unit_bytes % p.units_per_page(), 0u);
  ExpectPrefillMatchesReference(p);
}

}  // namespace
}  // namespace zstor::ftl
