// Discrete-event simulation core: a virtual clock, a same-time ready
// queue, a 4-ary timed-event heap, and FIFOs that take the timers on a
// repeating delay off a heap that has grown.
//
// Everything in the repository — NAND dies, NVMe queues, the ZNS firmware,
// host stacks and workload generators — runs as coroutines (see task.h)
// driven by one Simulator instance. Events scheduled for the same instant
// fire in FIFO order, which keeps runs fully deterministic.
//
// Performance model (DESIGN.md §1, "performance of the simulator
// itself"):
//
//  * Events carry an EventFn (event_fn.h): a trivially copyable 32-byte
//    value, so every container holds plain EventFn slots and no event
//    ever allocates or needs destroying.
//  * Zero-delay events — ResumeSoon and ScheduleIn(0), the backbone of
//    sync.h wakeups and Semaphore hand-offs — go to a plain FIFO ring
//    buffer and never touch the heap.
//  * Once the heap holds kHeapFirst timers, a timer on a repeating delay
//    goes to one of kFifos delay FIFOs, each a fixed ring that holds one
//    delay: a timer set `d` after now() sorts after every timer already
//    set `d` after an earlier now(), so a FIFO is sorted by construction
//    and a push or pop is O(1). A FIFO is picked by a hash of the delay
//    and keeps its delay, also while empty, until another delay that
//    hashes there misses it twice in a row, the second time empty; a full
//    FIFO sends its delay's timers to the heap. One-off delays thus
//    never take a FIFO, and a small heap, cheaper than any FIFO, takes
//    every timer.
//  * Every other timed event lives in a 4-ary implicit heap, split
//    structure-of-arrays: the (time, seq) ordering keys are packed into
//    one 128-bit integer each in their own array, so a sift level
//    compares four neighboring 16-byte keys instead of four 48-byte
//    structs — most sift work stays in one or two cache lines. A sift
//    moves an event by plain assignment (EventFn is trivially
//    copyable). Pops copy the top out (no const_cast out of a
//    priority_queue top, which was UB-prone) and repair the heap
//    bottom-up: the hole walks to a leaf on min-child comparisons alone,
//    then the former last element bubbles up, saving one comparison per
//    level on the common path.
//
// Ordering guarantee: every scheduled event gets a global sequence
// number; execution order is (time, seq) lexicographic no matter which
// container held the event. The next timer is the smaller key of the
// heap top and the earliest FIFO front, which the simulator keeps, with
// its FIFO, through every FIFO push and pop (before any callback runs).
// The ready queue is consulted first only when no timer is due at the
// same instant with a smaller seq, so mixing ScheduleAt(now) with
// ScheduleIn(0) preserves exact FIFO.
//
// Virtual slice chain (HoldSlices): one periodic wake per simulator that
// costs no event while nothing can observe it. Before each real event
// the chain catches up arithmetically, so its wakes keep their exact
// (time, seq) places; it becomes a real event only at its end or when
// its owner's server is contended (DESIGN.md §1.1).
#pragma once

#include <algorithm>
#include <bit>
#include <coroutine>
#include <cstdint>
#include <memory>

#include "sim/check.h"
#include "sim/event_fn.h"
#include "sim/time.h"

namespace zstor::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  Time now() const { return now_; }

  /// Schedules `fn` (anything an EventFn can wrap: a lambda, a coroutine
  /// handle, an EventFn) to run at absolute virtual time `when`
  /// (>= now()). Templated so the EventFn is built straight into its
  /// container slot.
  /// The check is always on (also in release benches): continuing past a
  /// backwards schedule would silently corrupt every later timestamp,
  /// and one predictable branch per event is noise next to the sift.
  template <typename F>
  void ScheduleAt(Time when, F&& fn) {
    ZSTOR_CHECK_MSG(when >= now_, "scheduling into the past");
    if (when == now_) {
      ReadyPush(next_seq_++, std::forward<F>(fn));
    } else {
      TimedPush(when - now_, MakeKey(when, next_seq_++), std::forward<F>(fn));
    }
  }

  /// Schedules `fn` to run `delay` nanoseconds from now.
  template <typename F>
  void ScheduleIn(Time delay, F&& fn) {
    ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  /// Resumes `h` as a fresh event at the current time (trampolines resume
  /// through the event loop, keeping native stacks shallow): straight
  /// into the ready ring, bypassing the heap. Its time is now(), so it
  /// needs no check; pushing directly also spares every zero-delay wake
  /// the call GCC emits into an out-of-line ScheduleAt.
  void ResumeSoon(std::coroutine_handle<> h) { ReadyPush(next_seq_++, h); }

  /// Awaitable that suspends the calling coroutine for `delay` ns.
  /// Always suspends (even for delay 0) so same-time events keep FIFO
  /// order.
  auto Delay(Time delay) {
    struct Awaiter {
      Simulator& s;
      Time d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { s.ScheduleIn(d, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, delay};
  }

  /// Runs events until none remain. Returns the number processed.
  std::uint64_t Run() { return RunTo(kNever); }

  /// Runs events with timestamp <= `until` (boundary inclusive), then
  /// sets now() = until. A slice chain has then consumed every boundary
  /// <= until, so code running before the next call sees the order its
  /// unfolded wakes would have left. Returns the number of events
  /// processed.
  std::uint64_t RunUntil(Time until) {
    const std::uint64_t n = RunTo(until);
    if (now_ < until) now_ = until;
    return n;
  }

  /// Events run so far by Run/RunUntil (each adds its count as it
  /// returns). A chain's skipped wakes are not events.
  std::uint64_t events() const { return events_; }

  /// Awaitable: the caller, which holds the server `owner`, sleeps for
  /// whole slices of `slice` — at least one, at most `work / slice` —
  /// on the simulator's slice chain. Its wake lands exactly where the
  /// wake of an unfolded `Delay(slice)` loop would have landed at the
  /// first boundary that needs it: the last whole slice, the first
  /// boundary at or after `wake_by`, or the next boundary after a
  /// MaterializeChain(owner). `wake_by` is the owner's own mark, which
  /// its events may move at any time: the chain reads it before each
  /// boundary it skips. While another owner's chain runs this is a
  /// plain Delay(slice).
  auto HoldSlices(const void* owner, Time slice, Time work,
                  const Time& wake_by) {
    struct Awaiter {
      Simulator& s;
      const void* owner;
      Time slice;
      Time work;
      const Time& wake_by;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        s.StartChain(owner, slice, work, wake_by, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, owner, slice, work, wake_by};
  }

  /// Wakes the chain `owner` holds, if any, at its next boundary: the
  /// server it holds is wanted. Its wake goes into the heap with the
  /// key the unfolded wake would have had.
  void MaterializeChain(const void* owner) {
    if (owner != nullptr && chain_.owner == owner) PushChainWake();
  }

  bool idle() const {
    return ready_count_ == 0 && heap_size_ == 0 && fifo_mask_ == 0 &&
           chain_.owner == nullptr;
  }
  std::size_t pending_events() const {
    std::size_t n = ready_count_ + heap_size_;
    for (const DelayFifo& q : fifos_) n += q.count;
    return n + (chain_.owner != nullptr ? 1 : 0);
  }

  /// Timestamp of the earliest pending event: now() when a same-time
  /// ready event exists, otherwise the earliest timer or the chain's next
  /// boundary, whichever is earlier. The conservative window planner
  /// (parallel_sim.h) uses this as each lane's earliest possible send
  /// time. Callers must check idle() first.
  Time next_event_time() const {
    ZSTOR_CHECK(!idle());
    if (ready_count_ != 0) return now_;
    Time t = KeyTime(fifo_min_key_);  // kNever while the FIFOs are empty
    if (heap_size_ != 0) t = std::min(t, KeyTime(keys_[0]));
    return chain_.owner != nullptr ? std::min(t, chain_.next) : t;
  }

 private:
  // Heap ordering key: virtual time in the high 64 bits, the global
  // sequence number in the low 64. One unsigned 128-bit compare is
  // exactly (time, seq) lexicographic order.
  using Key = unsigned __int128;
  static Key MakeKey(Time when, std::uint64_t seq) {
    return (static_cast<Key>(when) << 64) | seq;
  }
  static Time KeyTime(Key k) { return static_cast<Time>(k >> 64); }
  static std::uint64_t KeySeq(Key k) { return static_cast<std::uint64_t>(k); }
  // Larger than every event's key (no seq reaches ~0): no FIFO front.
  static constexpr Key kNoKey = ~Key{0};

  struct ReadyEvent {  // due exactly at now_ by construction
    std::uint64_t seq;
    EventFn fn;
  };

  /// Runs every event due at or before `until`, advancing the slice
  /// chain before each; returns how many ran.
  std::uint64_t RunTo(Time until) {
    const Key limit = MakeKey(until, ~std::uint64_t{0});  // above any seq
    std::uint64_t n = 0;
    for (;;) {
      if (chain_.owner != nullptr && ChainDueBefore(until)) continue;
      if (!((ready_count_ != 0 && now_ <= until) ||
            (heap_size_ != 0 && KeyTime(keys_[0]) <= until) ||
            fifo_min_key_ < limit)) {
        break;
      }
      Step();
      ++n;
    }
    events_ += n;
    return n;
  }

  /// Runs the globally next event: the ready queue's front, unless a
  /// timer due at the same instant was scheduled earlier.
  ///
  /// An event runs in place (EventFn's thunks copy the callable out
  /// before user code runs), so the only case that copies the event out
  /// first is a heap pop that must sift — the repair moves another event
  /// into slot 0 before the callback can run. A FIFO slot stays put until
  /// a later push reuses it. While the FIFOs are empty this is the
  /// heap-only path: a FIFO costs it two predictable compares.
  void Step() {
    if (ready_count_ != 0) {
      ReadyEvent& front = ready_[ready_head_];
      // Timers are always >= now_, so a different time means later.
      const Key key = MakeKey(now_, front.seq);
      if ((heap_size_ == 0 || keys_[0] > key) && fifo_min_key_ > key) {
        ready_head_ = (ready_head_ + 1) & (ready_cap_ - 1);
        --ready_count_;
        front.fn();  // the slot is free from here on
        return;
      }
    }
    if (fifo_mask_ != 0 && (heap_size_ == 0 || keys_[0] > fifo_min_key_)) {
      FifoPop();
      return;
    }
    now_ = KeyTime(keys_[0]);
    std::size_t n = --heap_size_;
    if (n == 0) {
      fns_[0]();  // nothing to repair; run straight from the slot
      return;
    }
    const EventFn top = fns_[0];  // slot 0 becomes the hole
    SiftLastIntoRoot(n);
    top();
  }

  // ---- virtual slice chain (DESIGN.md §1.1) ---------------------------

  struct SliceChain {
    const void* owner = nullptr;  // null while the slot is free
    Time next = 0;                // the next boundary's wake ...
    std::uint64_t seq = 0;        // ... and the seq its Delay took
    Time slice = 0;
    Time last = 0;                 // the last whole slice's boundary
    const Time* wake_by = nullptr;  // the owner's mark ...
    Time seen = 0;                 // ... as `end` last read it
    Time end = 0;  // the boundary whose wake is real (> next while active)
    std::coroutine_handle<> h;
  };

  // The chain's work is out of line (simulator.cc), so the run loop
  // stays as small as it was without a chain.

  /// Advances the chain if its next wake sorts before both the next
  /// real event and the bound `until`; true if it did (the chain's end
  /// may then be the next event).
  bool ChainDueBefore(Time until);

  void StartChain(const void* owner, Time slice, Time work,
                  const Time& wake_by, std::coroutine_handle<> h);

  /// Recomputes the chain's real wake from its owner's mark: the last
  /// whole slice or the first boundary at or after the mark, whichever
  /// comes first. A next boundary that is now that wake goes into the
  /// heap.
  void SetChainEnd();

  /// Consumes the chain's wakes whose keys sort before `limit`: the next
  /// one, whose key is smaller, then every later boundary whose wake —
  /// keyed with a seq taken now, newer than any pending event's — still
  /// sorts before it, up to the chain's real wake. The new next wake's
  /// seq is taken here, where the last consumed wake's Delay would have
  /// taken it. The owner's mark is read first: it may have moved since
  /// the chain last looked, and only events move it.
  void AdvanceChain(Key limit);

  /// Pushes the chain's next wake into the heap at its as-if key and
  /// frees the slot.
  void PushChainWake();

  // ---- timers: the heap while it is small, else the delay's FIFO ------

  /// Files a timer keyed `key`, set `delay` after now(): in the heap while
  /// it holds fewer than kHeapFirst (a sift that short costs no more than
  /// a FIFO's bookkeeping), else in the FIFO that holds the delay if it
  /// has room, else in the heap.
  template <typename F>
  void TimedPush(Time delay, Key key, F&& fn) {
    EventFn* slot =
        heap_size_ < kHeapFirst ? HeapSlot(key) : TimerSlot(delay, key);
    *slot = EventFn(std::forward<F>(fn));
  }

  /// TimedPush's filing once the heap is not small: the back of the FIFO
  /// that holds `delay` if it has room, else the heap. Out of line
  /// (simulator.cc), so each scheduling call site inlines only the
  /// small-heap path.
  EventFn* TimerSlot(Time delay, Key key);

  // ---- delay FIFOs (fixed rings of kFifoCap slots) ----------------------
  //
  // FIFO f's keys and events live at [f * kFifoCap, (f + 1) * kFifoCap)
  // of the block that also holds the heap's first storage; slots between
  // head and head+count are pending. A FIFO that empties restarts at
  // slot 0, so a short FIFO stays in the same few cache lines.

  static constexpr std::uint32_t kFifos = 8;
  static constexpr std::uint32_t kFifoCap = 64;  // a power of two
  static constexpr std::size_t kHeapFirst = 8;  // timers the heap takes first
  static constexpr std::size_t kFirstHeapCap = 64;

  struct DelayFifo {
    Key front = kNoKey;   // the head's key while count > 0
    Time delay = 0;       // the delay it holds (0: none yet)
    Time missed = 0;      // the last other delay that missed it
    std::uint32_t head = 0;
    std::uint32_t count = 0;
  };

  static std::uint32_t FifoOf(Time delay) {  // Fibonacci hash, top bits
    return static_cast<std::uint32_t>((delay * 0x9E3779B97F4A7C15ull) >>
                                      (64 - std::bit_width(kFifos - 1)));
  }
  static std::size_t FifoSlot(std::size_t f, std::size_t i) {
    return f * kFifoCap + (i & (kFifoCap - 1));
  }

  /// A delay that misses its FIFO takes it when it is empty and the
  /// previous miss there was the same delay.
  static bool Claim(DelayFifo& q, Time delay) {
    if (q.count == 0 && q.missed == delay) {
      q.delay = delay;
      return true;
    }
    q.missed = delay;
    return false;
  }

  /// Runs the earliest FIFO front at its time, after moving that FIFO's
  /// front and the earliest front on. Out of line (simulator.cc), so the
  /// run loop stays small: lanes call RunUntil many times per op, and an
  /// inlined copy measurably slowed the parallel engine.
  void FifoPop();

  // ---- ready ring (FIFO, power-of-two capacity) -----------------------
  //
  // Slots between head and head+count are pending; the rest are free.

  template <typename F>
  void ReadyPush(std::uint64_t seq, F&& fn) {
    if (ready_count_ == ready_cap_) [[unlikely]] GrowReady();
    std::size_t i = (ready_head_ + ready_count_) & (ready_cap_ - 1);
    ready_[i] = {seq, EventFn(std::forward<F>(fn))};
    ++ready_count_;
  }

  // Out of line (simulator.cc): call sites inline only the push.
  void GrowReady();

  // ---- 4-ary timed-event heap ----------------------------------------
  //
  // keys_ and fns_ are parallel arrays (heap_size_ pending slots,
  // heap_cap_ allocated). A sift moves an event by assignment; holes are
  // always filled before control leaves the heap routines.

  /// Sifts a hole up to where `key` belongs and keys it; returns the
  /// slot for its event.
  EventFn* HeapSlot(Key key) {
    if (heap_size_ == heap_cap_) [[unlikely]] GrowHeap();
    std::size_t i = heap_size_++;
    while (i > 0) {
      std::size_t parent = (i - 1) >> 2;
      if (keys_[parent] < key) break;
      keys_[i] = keys_[parent];
      fns_[i] = fns_[parent];
      i = parent;
    }
    keys_[i] = key;
    return &fns_[i];
  }

  /// Repairs the heap after slot 0 was copied out and heap_size_ already
  /// decremented to `n` (> 0). Bottom-up variant: the hole walks to a
  /// leaf on min-child comparisons only, then the former last element
  /// bubbles up from the leaf — usually zero or one step, since it came
  /// from leaf depth itself.
  void SiftLastIntoRoot(std::size_t n) {
    Key key = keys_[n];
    std::size_t i = 0;
    for (;;) {
      std::size_t first = (i << 2) + 1;
      if (first >= n) break;
      std::size_t end = first + 4 < n ? first + 4 : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (keys_[c] < keys_[best]) best = c;
      }
      keys_[i] = keys_[best];
      fns_[i] = fns_[best];
      i = best;
    }
    while (i > 0) {
      std::size_t parent = (i - 1) >> 2;
      if (keys_[parent] <= key) break;
      keys_[i] = keys_[parent];
      fns_[i] = fns_[parent];
      i = parent;
    }
    keys_[i] = key;
    fns_[i] = fns_[n];  // the former last slot is free from here on
  }

  void GrowHeap();

  /// The first storage, one block for the simulator's life: the delay
  /// FIFOs' keys and the heap's first keys, then the same for events.
  struct FirstBlock {
    static constexpr std::size_t kSlots = kFifos * kFifoCap + kFirstHeapCap;
    Key keys[kSlots];
    EventFn fns[kSlots];
  };

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  Key fifo_min_key_ = kNoKey;  // the earliest FIFO front (kNoKey: none) ...
  std::uint32_t fifo_min_ = 0;   // ... and its FIFO
  std::uint32_t fifo_mask_ = 0;  // bit f: FIFO f is not empty
  std::unique_ptr<Key[]> key_mem_;
  std::unique_ptr<EventFn[]> fn_mem_;
  Key* keys_ = nullptr;
  EventFn* fns_ = nullptr;
  std::size_t heap_size_ = 0;
  std::size_t heap_cap_ = 0;
  std::unique_ptr<ReadyEvent[]> ready_;
  std::size_t ready_cap_ = 0;  // always a power of two (or zero)
  std::size_t ready_head_ = 0;
  std::size_t ready_count_ = 0;
  DelayFifo fifos_[kFifos];
  std::unique_ptr<FirstBlock> first_;  // FIFOs + the first heap
  Key* fifo_keys_ = nullptr;
  EventFn* fifo_fns_ = nullptr;
  // Colder state after the containers' hot fields.
  std::uint64_t events_ = 0;
  SliceChain chain_;
};

}  // namespace zstor::sim
