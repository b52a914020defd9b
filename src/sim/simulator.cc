#include "sim/simulator.h"

#include <algorithm>

namespace zstor::sim {

// The virtual slice chain (DESIGN.md §1.1).

bool Simulator::ChainDueBefore(Time until) {
  Key limit = std::min(MakeKey(until, ~std::uint64_t{0}), fifo_min_key_);
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
    ScheduleIn(slice, h);
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
  *HeapSlot(MakeKey(chain_.next, chain_.seq)) = chain_.h;
  chain_.owner = nullptr;
}

// Container growth.

void Simulator::GrowReady() {
  std::size_t cap = ready_cap_ == 0 ? 16 : ready_cap_ * 2;
  auto bigger = std::make_unique_for_overwrite<ReadyEvent[]>(cap);
  for (std::size_t i = 0; i < ready_count_; ++i) {
    bigger[i] = ready_[(ready_head_ + i) & (ready_cap_ - 1)];
  }
  ready_ = std::move(bigger);
  ready_cap_ = cap;
  ready_head_ = 0;
}

void Simulator::GrowHeap() {
  if (heap_cap_ == 0) {
    first_ = std::make_unique_for_overwrite<FirstBlock>();
    fifo_keys_ = first_->keys;
    fifo_fns_ = first_->fns;
    keys_ = fifo_keys_ + kFifos * kFifoCap;
    fns_ = fifo_fns_ + kFifos * kFifoCap;
    heap_cap_ = kFirstHeapCap;
    return;
  }
  const std::size_t cap = heap_cap_ * 2;
  auto keys = std::make_unique_for_overwrite<Key[]>(cap);
  auto fns = std::make_unique_for_overwrite<EventFn[]>(cap);
  std::copy_n(keys_, heap_size_, keys.get());
  std::copy_n(fns_, heap_size_, fns.get());
  key_mem_ = std::move(keys);
  fn_mem_ = std::move(fns);
  keys_ = key_mem_.get();
  fns_ = fn_mem_.get();
  heap_cap_ = cap;
}

// The delay FIFOs.

EventFn* Simulator::TimerSlot(Time delay, Key key) {
  const std::uint32_t f = FifoOf(delay);
  DelayFifo& q = fifos_[f];
  if ((q.delay != delay && !Claim(q, delay)) || q.count == kFifoCap) {
    return HeapSlot(key);
  }
  const std::size_t i = FifoSlot(f, q.head + q.count);
  fifo_keys_[i] = key;
  if (q.count++ == 0) {  // a new front; behind one, the earliest holds
    q.front = key;
    fifo_mask_ |= 1u << f;
    if (key < fifo_min_key_) {
      fifo_min_key_ = key;
      fifo_min_ = f;
    }
  }
  return &fifo_fns_[i];
}

void Simulator::FifoPop() {
  const std::uint32_t f = fifo_min_;
  now_ = KeyTime(fifo_min_key_);
  DelayFifo& q = fifos_[f];
  EventFn& fn = fifo_fns_[FifoSlot(f, q.head)];
  if (--q.count == 0) {
    q.head = 0;
    q.front = kNoKey;
    fifo_mask_ &= ~(1u << f);
  } else {
    q.head = (q.head + 1) & (kFifoCap - 1);
    q.front = fifo_keys_[FifoSlot(f, q.head)];
  }
  fifo_min_key_ = kNoKey;
  for (std::uint32_t m = fifo_mask_; m != 0; m &= m - 1) {
    const std::uint32_t g = static_cast<std::uint32_t>(std::countr_zero(m));
    if (fifos_[g].front < fifo_min_key_) {
      fifo_min_key_ = fifos_[g].front;
      fifo_min_ = g;
    }
  }
  fn();  // runs in place; a push may reuse the slot from here on
}

}  // namespace zstor::sim
