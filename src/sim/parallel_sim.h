// Parallel discrete-event engine: per-device lanes with conservative
// windowed synchronization (DESIGN.md §12).
//
// A ParallelSimulator owns K independent Simulator instances ("lanes").
// Lane 0 is conventionally the coordinator (host-side shared state);
// lanes 1..K-1 each own one device's NAND array, FTL/ZNS logic, and the
// per-device slice of the host stack. Lanes never touch each other's
// state directly — every cross-lane interaction is an EventFn posted
// through a per-(src,dst) mailbox and delivered at least `lookahead`
// nanoseconds of virtual time in the future. The lookahead models the
// fixed host↔device interconnect hop, which is what makes conservative
// synchronization possible: a lane that has advanced to virtual time T
// can still receive messages, because no peer can affect it earlier
// than the peer's own clock plus the hop.
//
// Execution alternates one drain-and-plan step with run phases:
//
//   1. Drain and plan (one thread, at the window barrier): if any
//      message was posted since the last drain, each lane moves its
//      pending inbound messages into its event heap, sorted by
//      (deliver_at, src lane, per-channel seq); a window with no mail
//      skips the drain. Then, if every lane is idle the run is
//      complete. Otherwise the next window horizon is
//      H = min over "may send" lanes of (next_event_time + lookahead);
//      if no lane may send, the window is unbounded.
//   2. Run: every lane executes RunUntil(H) — or Run() to completion in
//      an unbounded window — then arrives at the barrier; repeat.
//
// Threaded runs cross one barrier per window. The last thread to
// arrive runs step 1 and opens the next window; the others spin for a
// few microseconds, then park.
//
// "May send" is tracked precisely so that fully sharded workloads (no
// cross-lane traffic) collapse into a single unbounded window and scale
// near-linearly: a lane may send if it is *spontaneous* (declared an
// initiator, e.g. the coordinator) and non-idle, or if it owes replies
// to earlier kRequest messages. Lanes that only ever reply are excluded
// from the horizon once their debts are settled.
//
// Mailboxes are single-producer/single-consumer by phase discipline
// rather than by atomics: producers append only during run phases, the
// drain runs only in the step between them, and the barrier around that
// step establishes happens-before. That keeps the channels plain
// vectors — no locks, no per-message atomics — and makes the engine
// ThreadSanitizer-clean by construction.
//
// Determinism: the drain order (deliver_at, src, seq) is a total order
// on messages, independent of which worker thread runs which lane and
// of the thread count. Run(1) executes the exact same window schedule
// serially in lane order, so results are byte-identical for any thread
// count. A message delivering exactly at a window horizon H runs after
// the receiver's own events at H from earlier windows (RunUntil is
// boundary-inclusive; the drained event lands in the ready ring at
// now == H) — the (time, lane, seq) tie rule tests pin this down.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_fn.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace zstor::sim {

/// How a cross-lane message participates in the window planner's
/// may-send accounting.
enum class MsgKind : std::uint8_t {
  kOneWay,   ///< fire-and-forget; sender must be spontaneous
  kRequest,  ///< obliges the destination lane to eventually Post a kReply
  kReply,    ///< settles one kRequest debt of the sending lane
};

class ParallelSimulator {
 public:
  ParallelSimulator(std::uint32_t num_lanes, Time lookahead);
  ParallelSimulator(const ParallelSimulator&) = delete;
  ParallelSimulator& operator=(const ParallelSimulator&) = delete;

  std::uint32_t num_lanes() const {
    return static_cast<std::uint32_t>(lanes_.size());
  }
  Simulator& lane(std::uint32_t i) { return *lanes_[i]; }
  Time lookahead() const { return lookahead_; }

  /// Declares lane `l` an initiator: it may originate cross-lane
  /// messages from locally scheduled events (not just replies). The
  /// planner keeps every window horizon at or below a spontaneous
  /// lane's next event + lookahead while it has pending events.
  void SetSpontaneous(std::uint32_t l, bool v) { spontaneous_[l] = v; }

  /// Posts `fn` for execution in lane `dst` at virtual time
  /// `deliver_at`. Must be called from code running inside lane `src`
  /// (or from the driving thread before Run). `deliver_at` must be at
  /// least lane(src).now() + lookahead() — the interconnect hop is the
  /// safety margin that lets the destination keep running ahead.
  void Post(std::uint32_t src, std::uint32_t dst, Time deliver_at,
            MsgKind kind, EventFn fn);

  /// Runs all lanes to global quiescence on `threads` worker threads
  /// (clamped to [1, num_lanes]). With threads == 1 the identical
  /// window schedule executes serially in lane order on the calling
  /// thread — no threads are spawned. Returns total events executed.
  std::uint64_t Run(unsigned threads);

  /// Number of synchronization windows executed so far (diagnostics).
  std::uint64_t windows() const { return windows_; }
  /// Number of cross-lane messages posted so far (diagnostics).
  std::uint64_t messages() const {
    return messages_.load(std::memory_order_relaxed);
  }

 private:
  struct Msg {
    Time deliver_at;
    std::uint32_t src;
    std::uint64_t seq;  // per-channel, assigned in producer program order
    EventFn fn;
  };
  struct Channel {
    std::vector<Msg> msgs;
    std::uint64_t next_seq = 0;
  };
  struct Plan {
    bool done;
    Time horizon;  // kNever = unbounded window
  };

  Channel& chan(std::uint32_t src, std::uint32_t dst) {
    return channels_[src * lanes_.size() + dst];
  }
  void DrainInto(std::uint32_t dst);
  /// The one step between windows, run by a single thread: drains the
  /// mailboxes if any message moved since the last drain, then plans.
  Plan DrainAndPlan();
  std::uint64_t RunSerial();
  std::uint64_t RunThreaded(unsigned threads);

  Time lookahead_;
  std::vector<std::unique_ptr<Simulator>> lanes_;
  std::vector<Channel> channels_;  // [src * K + dst]
  std::vector<std::vector<Msg>> scratch_;  // per-dst drain staging
  std::vector<bool> spontaneous_;
  // owed_[l] counts kRequests delivered toward lane l that it has not
  // yet answered with a kReply. Updated with relaxed atomics from lane
  // worker threads; read only at barriers, where values are exact.
  std::unique_ptr<std::atomic<std::int64_t>[]> owed_;
  // True while lanes execute an unbounded window; any Post then is a
  // protocol violation (the receiver may already be arbitrarily far
  // ahead) and fails loudly instead of corrupting timestamps.
  std::atomic<bool> unbounded_window_{false};
  std::uint64_t windows_ = 0;
  std::atomic<std::uint64_t> messages_{0};
  std::uint64_t drained_ = 0;  // messages_ at the last drain
};

}  // namespace zstor::sim
