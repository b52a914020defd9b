#include "sim/simulator.h"

#include <algorithm>

namespace zstor::sim {

// The virtual slice chain (DESIGN.md §1.1).

bool Simulator::ChainDueBefore(Time until) {
  Key limit = MakeKey(until, ~std::uint64_t{0});
  if (heap_size_ != 0) limit = std::min(limit, keys_[0]);
  if (ready_count_ != 0) {
    limit = std::min(limit, MakeKey(now_, ready_[ready_head_].seq));
  }
  if (MakeKey(chain_.next, chain_.seq) >= limit) return false;
  AdvanceChain(limit);
  return true;
}

void Simulator::StartChain(const void* owner, Time slice, Time work,
                           const Time& wake_by, std::coroutine_handle<> h) {
  ZSTOR_CHECK(owner != nullptr && slice > 0 && work >= slice);
  if (chain_.owner != nullptr) {  // the slot is taken: one plain slice
    ResumeIn(slice, h);
    return;
  }
  chain_ = SliceChain{.owner = owner,
                      .next = now_ + slice,
                      .seq = next_seq_++,
                      .slice = slice,
                      .last = now_ + work / slice * slice,
                      .wake_by = &wake_by,
                      .h = h};
  SetChainEnd();
}

void Simulator::SetChainEnd() {
  const Time L = chain_.slice;
  const Time mark = chain_.seen = *chain_.wake_by;
  if (mark <= chain_.next) {
    chain_.end = chain_.next;
  } else if (mark >= chain_.last) {
    chain_.end = chain_.last;
  } else {  // the first boundary at or after the mark
    chain_.end = chain_.next + (mark - chain_.next + L - 1) / L * L;
  }
  if (chain_.end == chain_.next) PushChainWake();
}

void Simulator::AdvanceChain(Key limit) {
  if (*chain_.wake_by != chain_.seen) {
    SetChainEnd();
    if (chain_.owner == nullptr) return;  // the next wake is real
  }
  const Time L = chain_.slice;
  const Time gap = KeyTime(limit) - chain_.next;
  Time k = gap < L ? 0 : gap / L;  // later boundaries up to that time
  if (k > 0 && k * L == gap && KeySeq(limit) <= next_seq_) {
    --k;  // a real event at that time is older than any fresh seq
  }
  const Time room = chain_.end - chain_.next;  // a multiple of L, >= L
  chain_.next += k * L <= room - L ? (k + 1) * L : room;
  chain_.seq = next_seq_++;
  if (chain_.next == chain_.end) PushChainWake();
}

void Simulator::PushChainWake() {
  HeapPush(chain_.next, chain_.seq, chain_.h);
  chain_.owner = nullptr;
}

}  // namespace zstor::sim
