#include "nvme/tag_buffer.h"

#include <mutex>
#include <vector>

namespace zstor::nvme {
namespace {

/// Blocks no lease holds. The pool and every block it ever handed out
/// live until the process exits (reachable from here, so not a leak).
struct Pool {
  std::mutex mu;
  std::vector<TagBuffer::Block*> free;
  std::size_t blocks = 0;  // handed out so far
};

Pool& ThePool() {
  static Pool* const pool = new Pool;
  return *pool;
}

}  // namespace

TagBuffer::TagBuffer() {
  Pool& p = ThePool();
  std::lock_guard<std::mutex> lock(p.mu);
  if (p.free.empty()) {
    p.free.reserve(++p.blocks);  // so a return never allocates
    block_ = new Block;
    return;
  }
  block_ = p.free.back();
  p.free.pop_back();
}

TagBuffer::~TagBuffer() {
  Pool& p = ThePool();
  std::lock_guard<std::mutex> lock(p.mu);
  p.free.push_back(block_);
}

}  // namespace zstor::nvme
