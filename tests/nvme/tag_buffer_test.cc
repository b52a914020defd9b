// Tag read-back buffers: each live lease holds a block of its own, and a
// returned block stays allocated and is handed out again.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>

#include "nvme/tag_buffer.h"

namespace zstor::nvme {
namespace {

TEST(TagBuffer, LiveLeasesHoldDistinctBlocks) {
  std::optional<TagBuffer> held[8];
  std::set<std::uint64_t*> blocks;
  for (auto& h : held) blocks.insert(h.emplace().data());
  EXPECT_EQ(blocks.size(), 8u);
}

TEST(TagBuffer, AReturnedBlockKeepsItsTagsAndIsLeasedAgain) {
  std::uint64_t* stale = nullptr;
  {
    TagBuffer b;
    stale = b.data();
    for (std::uint32_t i = 0; i < TagBuffer::kTags; ++i) b.data()[i] = i;
  }
  // A write through a pointer kept past the lease lands in the block.
  stale[TagBuffer::kTags - 1] = 7;
  TagBuffer again;
  EXPECT_EQ(again.data(), stale);
  EXPECT_EQ(again[0], 0u);
  EXPECT_EQ(again[TagBuffer::kTags - 1], 7u);
}

}  // namespace
}  // namespace zstor::nvme
