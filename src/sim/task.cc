#include "sim/task.h"

namespace zstor::sim::detail {

namespace {

/// Returns a thread's cached frames to the heap when the thread exits,
/// then closes the cache so later frees bypass it.
struct FrameCacheDrain {
  FrameCacheDrain() = default;
  FrameCacheDrain(const FrameCacheDrain&) = delete;
  FrameCacheDrain& operator=(const FrameCacheDrain&) = delete;
  ~FrameCacheDrain() {
    FrameCache& fc = t_frame_cache;
    for (FreeFrame*& head : fc.free) {
      while (head != nullptr) {
        FreeFrame* f = head;
        head = f->next;
        ::operator delete(f);
      }
    }
    fc.state = FrameCache::kClosed;
  }
};

}  // namespace

bool ArmFrameCache() noexcept {
  FrameCache& fc = t_frame_cache;
  if (fc.state == FrameCache::kClosed) return false;
  // First use on this thread: registers the drain to run at thread exit.
  static thread_local FrameCacheDrain drain;
  fc.state = FrameCache::kLive;
  return true;
}

}  // namespace zstor::sim::detail
