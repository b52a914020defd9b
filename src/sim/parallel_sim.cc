#include "sim/parallel_sim.h"

#include <algorithm>
#include <thread>

#include "sim/check.h"

namespace zstor::sim {

namespace {

/// The window loop's barrier. The last thread to arrive runs the
/// window's step and then opens the next generation; the others spin on
/// the generation, then park. A window's run phase lasts about a
/// microsecond on striped testbeds, so a short spin catches most
/// openings without a futex round trip, while parking keeps workers
/// that outnumber the cores from starving the ones with work.
class WindowBarrier {
 public:
  explicit WindowBarrier(unsigned threads) : threads_(threads) {}

  template <typename Step>
  void ArriveAndWait(Step&& step) {
    // Nobody can open the next generation before this thread arrives.
    const std::uint32_t gen = gen_.load(std::memory_order_relaxed);
    // acq_rel: every arrival publishes its lanes' run phase to the last
    // one, which reads them all in `step`.
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == threads_) {
      arrived_.store(0, std::memory_order_relaxed);
      step();
      // seq_cst, not release: the store must be ordered before
      // notify_all's check for parked waiters, or a thread that parks
      // in between would miss the wake.
      gen_.store(gen + 1, std::memory_order_seq_cst);
      gen_.notify_all();
      return;
    }
    for (int i = 0; i < kSpins; ++i) {
      if (gen_.load(std::memory_order_acquire) != gen) return;
      Relax();
    }
    while (gen_.load(std::memory_order_acquire) == gen) {
      gen_.wait(gen, std::memory_order_acquire);
    }
  }

 private:
  // About 5 µs of spinning: 256 pause instructions measured 4.6–6.5 µs
  // on a 4-core Xeon VM (18–25 ns each; older x86 cores pause for ~10
  // cycles, which makes it closer to 1 µs).
  static constexpr int kSpins = 256;

  static void Relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  const unsigned threads_;
  std::atomic<unsigned> arrived_{0};
  std::atomic<std::uint32_t> gen_{0};
};

/// Runs one lane's share of a window ending at `horizon` (kNever: an
/// unbounded window). Returns the events it ran.
std::uint64_t RunWindow(Simulator& lane, Time horizon) {
  return horizon == kNever ? lane.Run() : lane.RunUntil(horizon);
}

}  // namespace

ParallelSimulator::ParallelSimulator(std::uint32_t num_lanes, Time lookahead)
    : lookahead_(lookahead),
      channels_(static_cast<std::size_t>(num_lanes) * num_lanes),
      scratch_(num_lanes),
      spontaneous_(num_lanes, false),
      owed_(new std::atomic<std::int64_t>[num_lanes]) {
  ZSTOR_CHECK_MSG(num_lanes >= 1, "need at least one lane");
  ZSTOR_CHECK_MSG(lookahead >= 1, "zero lookahead admits no parallelism");
  lanes_.reserve(num_lanes);
  for (std::uint32_t i = 0; i < num_lanes; ++i) {
    lanes_.push_back(std::make_unique<Simulator>());
    owed_[i].store(0, std::memory_order_relaxed);
  }
}

void ParallelSimulator::Post(std::uint32_t src, std::uint32_t dst,
                             Time deliver_at, MsgKind kind, EventFn fn) {
  ZSTOR_CHECK(src < num_lanes() && dst < num_lanes() && src != dst);
  ZSTOR_CHECK_MSG(deliver_at >= lanes_[src]->now() + lookahead_,
                  "cross-lane message under the interconnect lookahead");
  ZSTOR_CHECK_MSG(!unbounded_window_.load(std::memory_order_relaxed),
                  "cross-lane Post during an unbounded window — the sender "
                  "must be spontaneous or owe a reply");
  Channel& c = chan(src, dst);
  c.msgs.push_back(Msg{deliver_at, src, c.next_seq++, std::move(fn)});
  if (kind == MsgKind::kRequest) {
    owed_[dst].fetch_add(1, std::memory_order_relaxed);
  } else if (kind == MsgKind::kReply) {
    std::int64_t prev = owed_[src].fetch_sub(1, std::memory_order_relaxed);
    ZSTOR_CHECK_MSG(prev > 0, "kReply without a matching kRequest");
  }
  messages_.fetch_add(1, std::memory_order_relaxed);
}

void ParallelSimulator::DrainInto(std::uint32_t dst) {
  std::vector<Msg>& staged = scratch_[dst];
  staged.clear();
  for (std::uint32_t src = 0; src < num_lanes(); ++src) {
    Channel& c = chan(src, dst);
    for (Msg& m : c.msgs) staged.push_back(std::move(m));
    c.msgs.clear();
  }
  if (staged.empty()) return;
  // Total order on same-destination messages: (time, lane, seq). The
  // receiving simulator assigns monotonically increasing event seqs in
  // this order, so same-time deliveries fire exactly in it.
  std::sort(staged.begin(), staged.end(), [](const Msg& a, const Msg& b) {
    if (a.deliver_at != b.deliver_at) return a.deliver_at < b.deliver_at;
    if (a.src != b.src) return a.src < b.src;
    return a.seq < b.seq;
  });
  Simulator& s = *lanes_[dst];
  for (Msg& m : staged) {
    ZSTOR_CHECK_MSG(m.deliver_at >= s.now(),
                    "message delivery behind the destination lane's clock");
    s.ScheduleAt(m.deliver_at, std::move(m.fn));
  }
  staged.clear();
}

ParallelSimulator::Plan ParallelSimulator::DrainAndPlan() {
  // Every drain empties every channel, so while no Post happened since
  // the last one there is nothing to move. Posts made by the driving
  // thread between runs bump the count too, so the first plan of a Run
  // drains them.
  const std::uint64_t posted = messages_.load(std::memory_order_relaxed);
  if (posted != drained_) {
    drained_ = posted;
    for (std::uint32_t l = 0; l < num_lanes(); ++l) DrainInto(l);
  }
  bool all_idle = true;
  Time horizon = kNever;
  for (std::uint32_t l = 0; l < num_lanes(); ++l) {
    Simulator& s = *lanes_[l];
    bool owes = owed_[l].load(std::memory_order_relaxed) > 0;
    if (s.idle()) {
      ZSTOR_CHECK_MSG(!owes,
                      "lane owes a cross-lane reply but has no events "
                      "(protocol deadlock)");
      continue;
    }
    all_idle = false;
    if (owes || spontaneous_[l]) {
      Time h = s.next_event_time() + lookahead_;
      horizon = std::min(horizon, h);
    }
  }
  if (all_idle) return Plan{true, kNever};
  ++windows_;
  unbounded_window_.store(horizon == kNever, std::memory_order_relaxed);
  return Plan{false, horizon};
}

std::uint64_t ParallelSimulator::RunSerial() {
  std::uint64_t total = 0;
  for (;;) {
    Plan p = DrainAndPlan();
    if (p.done) break;
    for (std::uint32_t l = 0; l < num_lanes(); ++l) {
      total += RunWindow(*lanes_[l], p.horizon);
    }
  }
  return total;
}

std::uint64_t ParallelSimulator::RunThreaded(unsigned threads) {
  const unsigned T = threads;
  Plan plan{false, 0};
  // The barrier's arrive/open edges are the only synchronization the
  // plain-vector mailboxes need: lanes post during the run phase, and
  // the last thread to arrive drains and plans before any lane runs.
  WindowBarrier barrier(T);
  std::atomic<std::uint64_t> total{0};

  auto worker = [&](unsigned w) {
    std::uint64_t local = 0;
    for (;;) {
      barrier.ArriveAndWait([this, &plan] { plan = DrainAndPlan(); });
      if (plan.done) break;
      for (std::uint32_t l = w; l < num_lanes(); l += T) {
        local += RunWindow(*lanes_[l], plan.horizon);
      }
    }
    total.fetch_add(local, std::memory_order_relaxed);
  };

  std::vector<std::thread> pool;
  pool.reserve(T - 1);
  for (unsigned w = 1; w < T; ++w) pool.emplace_back(worker, w);
  worker(0);
  for (std::thread& t : pool) t.join();
  return total.load(std::memory_order_relaxed);
}

std::uint64_t ParallelSimulator::Run(unsigned threads) {
  unsigned T = std::clamp(threads, 1u, num_lanes());
  std::uint64_t n = T == 1 ? RunSerial() : RunThreaded(T);
  unbounded_window_.store(false, std::memory_order_relaxed);
  // Realign lane clocks at quiescence: an unbounded window lets lanes
  // finish at different virtual times, and a later Run posting across
  // lanes must never deliver behind a receiver's clock. The maximum is
  // thread-count independent, so this keeps runs deterministic too.
  Time latest = 0;
  for (std::uint32_t l = 0; l < num_lanes(); ++l) {
    ZSTOR_CHECK(owed_[l].load(std::memory_order_relaxed) == 0);
    ZSTOR_CHECK(lanes_[l]->idle());
    latest = std::max(latest, lanes_[l]->now());
  }
  for (std::uint32_t l = 0; l < num_lanes(); ++l) lanes_[l]->RunUntil(latest);
  return n;
}

}  // namespace zstor::sim
