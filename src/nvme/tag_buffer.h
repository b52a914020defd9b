// Host buffers for tag read-backs that outlive the command.
//
// A tag read-back names its buffer through Command::data, and a command
// may be re-issued after the caller that built it has returned: the
// perfbench ladder records the commands crossing each boundary and
// replays them against fresh devices once the recorded run has ended.
// A buffer in the caller's coroutine frame would then be written after
// the frame is gone, possibly while the frame allocator has handed the
// block to a live coroutine. A TagBuffer instead leases a block from a
// process-wide pool, like pinned DMA memory: blocks are never freed, so
// a recorded pointer always names a tag block, and a stale write lands
// in a block that no lease holds (or, at worst, in another read's tags;
// never in a frame or in freed memory).
#pragma once

#include <cstddef>
#include <cstdint>

namespace zstor::nvme {

/// One leased block of `kTags` read-back tags. The lease ends with the
/// object; leasing a warm block allocates nothing.
class TagBuffer {
 public:
  /// The most tags one read-back may transfer into a block.
  static constexpr std::uint32_t kTags = 64;

  TagBuffer();
  ~TagBuffer();
  TagBuffer(const TagBuffer&) = delete;
  TagBuffer& operator=(const TagBuffer&) = delete;

  std::uint64_t* data() { return block_->tags; }
  std::uint64_t operator[](std::size_t i) const { return block_->tags[i]; }

  struct Block {
    std::uint64_t tags[kTags];
  };

 private:
  Block* block_;
};

}  // namespace zstor::nvme
