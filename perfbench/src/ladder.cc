#include "ladder.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "hostif/stack_factory.h"
#include "hostif/striped_stack.h"
#include "nand/flash_array.h"
#include "stats.h"
#include "workload/runner.h"

namespace perfbench {

using namespace zstor;
using nvme::Opcode;
using Clock = std::chrono::steady_clock;

namespace {

// ---- recorded spans --------------------------------------------------------

/// How a replay re-issues one span. A chained span is issued from its
/// predecessor's completion (the caller resumed and issued it at once);
/// any other span is a head, whose issue event is scheduled at `sched`
/// (the instant its caller decided to issue it) to fire at its submit time.
struct Replay {
  std::int64_t prev = -1;  // candidate predecessor seen while recording
  std::int64_t next = -1;  // successor issued from this span's completion
  bool chained = false;
  Time sched = 0;
};

/// One command crossing a controller or stack boundary.
struct CmdSpan {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // span id of the command above that caused it
  Time submit = 0;
  Time complete = 0;
  nvme::Command cmd;
  nvme::Status status = nvme::Status::kSuccess;
  nvme::Lba lba = 0;  // append result LBA
  Replay plan;
};
using Stream = std::vector<CmdSpan>;

/// One operation crossing the KV boundary (kDrain is the flow's Drain()).
struct KvSpan {
  enum Kind : std::uint8_t { kPut, kGet, kDrain };
  std::uint64_t id = 0;
  Kind kind = kPut;
  std::uint64_t key = 0;
  std::uint64_t bytes = 0;
  Time submit = 0;
  Time complete = 0;
  nvme::Status status = nvme::Status::kSuccess;
  bool found = false;
  Replay plan;
};

/// Candidate causal links at a device or KV boundary: a span that begins
/// right after another span's completion, at the same instant and with
/// nothing crossing the boundary in between, may have been issued by a
/// caller resuming from that completion. Each boundary's replay plan
/// decides which candidates are real (see Plan*).
class Chains {
 public:
  template <typename Span>
  void Begin(std::vector<Span>& spans, Time now) {
    Span& sp = spans.back();
    sp.plan.sched = now;
    if (last_end_ >= 0 && at_ == now) sp.plan.prev = last_end_;
    last_end_ = -1;
  }
  void End(std::size_t i, Time now) {
    last_end_ = static_cast<std::int64_t>(i);
    at_ = now;
  }
  void Break() { last_end_ = -1; }

 private:
  std::int64_t last_end_ = -1;
  Time at_ = 0;
};

/// Every boundary's recorded stream. Single-device workloads use dev[0]
/// and top (the stack boundary); stripe4 also fills lane[d], the stream
/// into device d's host stack below the StripedStack.
struct Recording {
  std::vector<Stream> dev;
  std::vector<Stream> lane;
  Stream top;
  std::vector<KvSpan> kv;
  std::uint64_t next_id = 1;
};

// ---- decorators ------------------------------------------------------------
// Each forwards to the wrapped layer through one extra coroutine frame.
// Task resumes its awaiter by symmetric transfer, so a decorator adds no
// simulator event and cannot reorder anything in virtual time.

class RecCtrl final : public nvme::Controller {
 public:
  RecCtrl(sim::Simulator& s, nvme::Controller& inner, Stream* out,
          std::uint64_t* ids)
      : sim_(s), inner_(inner), out_(out), ids_(ids) {}
  const nvme::NamespaceInfo& info() const override { return inner_.info(); }
  sim::Task<nvme::Completion> Execute(const nvme::Command& cmd) override {
    const std::size_t i = out_->size();
    out_->push_back({.id = (*ids_)++, .parent = cmd.trace_id,
                     .submit = sim_.now(), .cmd = cmd});
    chains_.Begin(*out_, sim_.now());
    nvme::Completion c = co_await inner_.Execute(cmd);
    CmdSpan& sp = (*out_)[i];
    sp.complete = sim_.now();
    sp.status = c.status;
    sp.lba = c.result_lba;
    chains_.End(i, sim_.now());
    co_return c;
  }

 private:
  sim::Simulator& sim_;
  nvme::Controller& inner_;
  Stream* out_;
  std::uint64_t* ids_;
  Chains chains_;
};

class RecStack final : public hostif::Stack {
 public:
  RecStack(sim::Simulator& s, std::unique_ptr<hostif::Stack> inner,
           Stream* out, std::uint64_t* ids)
      : sim_(s), inner_(std::move(inner)), out_(out), ids_(ids) {}
  const nvme::NamespaceInfo& info() const override { return inner_->info(); }
  void AttachTelemetry(telemetry::Telemetry* t) override {
    inner_->AttachTelemetry(t);
  }
  sim::Task<nvme::TimedCompletion> Submit(nvme::Command cmd) override {
    const std::size_t i = out_->size();
    const std::uint64_t id = (*ids_)++;
    out_->push_back({.id = id, .parent = cmd.trace_id, .submit = sim_.now(),
                     .cmd = cmd});
    // With telemetry off the id only travels down as the parent link.
    cmd.trace_id = id;
    nvme::TimedCompletion tc = co_await inner_->Submit(cmd);
    CmdSpan& sp = (*out_)[i];
    sp.complete = tc.completed;
    sp.status = tc.completion.status;
    sp.lba = tc.completion.result_lba;
    co_return tc;
  }

 private:
  sim::Simulator& sim_;
  std::unique_ptr<hostif::Stack> inner_;
  Stream* out_;
  std::uint64_t* ids_;
};

class RecKv final : public workload::KvBackend {
 public:
  RecKv(sim::Simulator& s, zkv::KvStore& inner, std::vector<KvSpan>* out,
        std::uint64_t* ids)
      : sim_(s), inner_(inner), out_(out), ids_(ids) {}
  sim::Task<nvme::Status> Put(std::uint64_t key,
                              std::uint64_t value_bytes) override {
    const std::size_t i = Begin(KvSpan::kPut, key, value_bytes);
    nvme::Status st = co_await inner_.Put(key, value_bytes);
    End(i, st, false);
    co_return st;
  }
  sim::Task<nvme::Status> Get(std::uint64_t key, bool* found) override {
    const std::size_t i = Begin(KvSpan::kGet, key, 0);
    bool hit = false;
    nvme::Status st = co_await inner_.Get(key, &hit);
    if (found != nullptr) *found = hit;
    End(i, st, hit);
    co_return st;
  }
  /// The flow's Drain() resumes from a wait-group wakeup, never in a
  /// caller's completion chain, so it neither takes nor gives a link.
  sim::Task<> Drain() {
    chains_.Break();
    const std::size_t i = Begin(KvSpan::kDrain, 0, 0);
    co_await inner_.Drain();
    End(i, nvme::Status::kSuccess, false);
    chains_.Break();
  }

 private:
  std::size_t Begin(KvSpan::Kind k, std::uint64_t key, std::uint64_t bytes) {
    out_->push_back({.id = (*ids_)++, .kind = k, .key = key, .bytes = bytes,
                     .submit = sim_.now()});
    chains_.Begin(*out_, sim_.now());
    return out_->size() - 1;
  }
  void End(std::size_t i, nvme::Status st, bool found) {
    KvSpan& sp = (*out_)[i];
    sp.complete = sim_.now();
    sp.status = st;
    sp.found = found;
    chains_.End(i, sim_.now());
  }

  sim::Simulator& sim_;
  zkv::KvStore& inner_;
  std::vector<KvSpan>* out_;
  std::uint64_t* ids_;
  Chains chains_;
};

// ---- rigs: fresh, preconditioned devices ------------------------------------

bool IsStripe(const std::string& w) { return w == "stripe4"; }
bool IsKv(const std::string& w) { return w == "kv-ycsb"; }
bool IsConv(const std::string& w) { return w == "conv-gc"; }

hostif::StackChoice ChoiceFor(const std::string& w) {
  return w == "zns-mixed" ? hostif::StackChoice::kKernelMq
                          : hostif::StackChoice::kSpdk;
}

struct NandMix {
  std::uint64_t reads = 0, programs = 0, erases = 0;
  std::uint64_t calls() const { return reads + programs + erases; }
};

/// The devices of one drive, preconditioned exactly as the workload's
/// Testbed run preconditions them.
struct Rig {
  sim::Simulator sim;
  std::vector<std::unique_ptr<zns::ZnsDevice>> zns;
  std::unique_ptr<ftl::ConvDevice> conv;

  std::size_t devices() const { return conv ? 1 : zns.size(); }
  nvme::Controller& dev(std::size_t d) {
    return conv ? static_cast<nvme::Controller&>(*conv) : *zns[d];
  }
  /// The NAND op mix so far, summed over devices.
  NandMix nand_mix() {
    NandMix m;
    for (std::size_t d = 0; d < devices(); ++d) {
      const nand::FlashCounters& c =
          conv ? conv->flash().counters() : zns[d]->flash()->counters();
      m.reads += c.page_reads;
      m.programs += c.page_programs;
      m.erases += c.block_erases;
    }
    return m;
  }
};

std::unique_ptr<Rig> MakeRig(const std::string& w) {
  auto rig = std::make_unique<Rig>();
  if (IsConv(w)) {
    rig->conv = std::make_unique<ftl::ConvDevice>(rig->sim, ConvGcProfile());
    rig->conv->DebugPrefill();
    return rig;
  }
  const zns::ZnsProfile base = IsKv(w) ? KvProfile() : zns::Zn540Profile();
  const std::uint32_t n = IsStripe(w) ? kStripeDevices : 1;
  for (std::uint32_t d = 0; d < n; ++d) {
    zns::ZnsProfile p = base;
    p.seed = base.seed + 0x9E3779B97F4A7C15ull * d;  // as TestbedBuilder
    rig->zns.push_back(std::make_unique<zns::ZnsDevice>(rig->sim, p));
  }
  auto fill = [&](std::uint32_t first, std::uint32_t count) {
    for (std::uint32_t z = first; z < first + count; ++z) {
      zns::ZnsDevice& dev = *rig->zns[z % n];
      dev.DebugFillZone(z / n, dev.profile().zone_cap_bytes);
    }
  };
  if (w == "zns-mixed") fill(8, 8 + kZnsResetZones);
  if (IsStripe(w)) fill(8, 8);
  return rig;
}

// ---- timing ---------------------------------------------------------------

/// Host cost of one timed phase. Doubles, so rungs can be subtracted.
struct Cost {
  double s = 0;
  double events = 0;
  double allocs = 0;
  Cost operator-(const Cost& o) const {
    return {s - o.s, events - o.events, allocs - o.allocs};
  }
};

/// Times `body` (which spawns work and runs the simulator, returning the
/// event count) with allocation counting on. Rungs compare host seconds
/// taken seconds apart in one process, so unlike the end-to-end figures
/// they are not scaled by the calibration loop, whose own jitter would
/// swamp the differences between rungs.
template <typename F>
Cost Measure(F body) {
  SetAllocationCounting(true);
  const std::uint64_t a0 = Allocations();
  const auto t0 = Clock::now();
  Cost c;
  c.events = static_cast<double>(body());
  c.s = SecondsSince(t0);
  c.allocs = static_cast<double>(Allocations() - a0);
  SetAllocationCounting(false);
  return c;
}

// ---- the full drive (decorated or not) ------------------------------------

struct Drive {
  Outputs out;
  Cost cost;
  std::uint64_t ops = 0, failed = 0;
  NandMix nand;
  double merge_fraction = 0;
  double gc_units_per_host_unit = 0;
  zkv::KvStats kv;
  Time virtual_end = 0;
};

/// Hand-assembles device -> [RecCtrl] -> MakeStack -> [RecStack] ->
/// [StripedStack -> RecStack] -> Job / KvStore [-> RecKv] and runs the
/// workload once. `rec` null = no decorators.
Drive RunDrive(const std::string& w, std::uint64_t seed, Recording* rec) {
  std::unique_ptr<Rig> rig = MakeRig(w);
  sim::Simulator& s = rig->sim;
  const std::size_t n = rig->devices();
  std::uint64_t unused_ids = 0;
  std::uint64_t* ids = rec != nullptr ? &rec->next_id : &unused_ids;
  if (rec != nullptr) {
    rec->dev.assign(n, {});
    rec->lane.assign(n, {});
  }
  std::vector<std::unique_ptr<RecCtrl>> rec_ctrls;
  std::vector<nvme::Controller*> faces;
  for (std::size_t d = 0; d < n; ++d) {
    if (rec != nullptr) {
      rec_ctrls.push_back(
          std::make_unique<RecCtrl>(s, rig->dev(d), &rec->dev[d], ids));
      faces.push_back(rec_ctrls.back().get());
    } else {
      faces.push_back(&rig->dev(d));
    }
  }
  hostif::KernelStack* kernel = nullptr;
  std::unique_ptr<hostif::Stack> stack;
  if (IsStripe(w)) {
    std::vector<std::unique_ptr<hostif::Stack>> lanes;
    for (std::size_t d = 0; d < n; ++d) {
      auto lane = hostif::MakeStack(ChoiceFor(w), s, *faces[d]).stack;
      if (rec != nullptr) {
        lane = std::make_unique<RecStack>(s, std::move(lane), &rec->lane[d],
                                          ids);
      }
      lanes.push_back(std::move(lane));
    }
    stack = std::make_unique<hostif::StripedStack>(s, std::move(lanes));
  } else {
    hostif::MadeStack made = hostif::MakeStack(ChoiceFor(w), s, *faces[0]);
    kernel = made.kernel;
    stack = std::move(made.stack);
  }
  if (rec != nullptr) {
    stack = std::make_unique<RecStack>(s, std::move(stack), &rec->top, ids);
  }

  Drive dr;
  if (IsKv(w)) {
    zkv::KvStore kv(s, *stack, KvOptions());
    std::unique_ptr<RecKv> rk;
    if (rec != nullptr) rk = std::make_unique<RecKv>(s, kv, &rec->kv, ids);
    workload::KvBackend& backend =
        rk ? static_cast<workload::KvBackend&>(*rk) : kv;
    workload::YcsbRunner runner(s, backend, KvSpec(seed));
    KvFlowOut flow;
    dr.cost = Measure([&] {
      if (rk) {
        sim::Spawn(KvLoad(&runner, rk.get()));
      } else {
        sim::Spawn(KvLoad(&runner, &kv));
      }
      std::uint64_t ev = s.Run();
      if (rk) {
        sim::Spawn(KvRun(&runner, rk.get(), &flow));
      } else {
        sim::Spawn(KvRun(&runner, &kv, &flow));
      }
      return ev + s.Run();
    });
    ZSTOR_CHECK(flow.done);
    AddKvOutputs(dr.out, flow.res, kv.stats());
    AddDeviceOutputs(dr.out, *rig->zns[0], "zns");
    dr.ops = flow.res.ops;
    dr.failed = flow.res.errors;
    dr.kv = kv.stats();
  } else {
    std::vector<workload::JobSpec> specs =
        IsConv(w) ? ConvGcJobs(seed)
                  : IsStripe(w) ? Stripe4Jobs(seed) : ZnsMixedJobs(seed);
    std::vector<workload::JobResult> jobs;
    dr.cost = Measure([&] {
      std::vector<std::unique_ptr<workload::Job>> running;
      for (const workload::JobSpec& sp : specs) {
        running.push_back(std::make_unique<workload::Job>(s, *stack, sp));
        running.back()->Start();
      }
      std::uint64_t ev = s.Run();
      for (auto& j : running) {
        ZSTOR_CHECK(j->Done());
        jobs.push_back(j->result());
      }
      return ev;
    });
    if (IsConv(w)) {
      AddConvOutputs(dr.out, *rig->conv);
      const ftl::ConvCounters& c = rig->conv->counters();
      dr.gc_units_per_host_unit =
          c.host_units_programmed == 0
              ? 0.0
              : static_cast<double>(c.gc_units_migrated) /
                    static_cast<double>(c.host_units_programmed);
    } else {
      for (std::size_t d = 0; d < n; ++d) {
        AddDeviceOutputs(dr.out, *rig->zns[d],
                         n == 1 ? "zns" : "zns" + std::to_string(d));
      }
    }
    if (kernel != nullptr) {
      AddSchedulerOutputs(dr.out, kernel->scheduler_stats());
      dr.merge_fraction = kernel->scheduler_stats().MergedFraction();
    }
    AddJobOutputs(dr.out, jobs);
    for (const auto& j : jobs) {
      dr.ops += j.ops;
      dr.failed += j.errors;
    }
  }
  dr.nand = rig->nand_mix();
  dr.virtual_end = s.now();
  return dr;
}

// ---- replay -----------------------------------------------------------------

/// Replay targets that complete at once: replaying into them costs only
/// the replay harness itself, which the ladder subtracts from each rung.
class NullCtrl final : public nvme::Controller {
 public:
  const nvme::NamespaceInfo& info() const override { return info_; }
  sim::Task<nvme::Completion> Execute(const nvme::Command&) override {
    co_return nvme::Completion{};
  }

 private:
  nvme::NamespaceInfo info_;
};

class NullStack final : public hostif::Stack {
 public:
  const nvme::NamespaceInfo& info() const override { return info_; }
  sim::Task<nvme::TimedCompletion> Submit(nvme::Command) override {
    co_return nvme::TimedCompletion{};
  }

 private:
  nvme::NamespaceInfo info_;
};

struct NullKv {
  sim::Task<nvme::Status> Put(std::uint64_t, std::uint64_t) {
    co_return nvme::Status::kSuccess;
  }
  sim::Task<nvme::Status> Get(std::uint64_t, bool*) {
    co_return nvme::Status::kSuccess;
  }
  sim::Task<> Drain() { co_return; }
};

struct Tally {
  std::uint64_t replayed = 0;
  std::uint64_t mismatches = 0;
  void Note(bool same) {
    ++replayed;
    if (!same) ++mismatches;
  }
};

bool SameCompletion(const CmdSpan& sp, Time done, const nvme::Completion& c) {
  return done == sp.complete && c.status == sp.status &&
         (sp.cmd.opcode != Opcode::kAppend || c.result_lba == sp.lba);
}

/// Re-issues one recorded span; true when the completion matches.
sim::Task<bool> Issue(sim::Simulator* s, nvme::Controller* to,
                      const CmdSpan& sp) {
  nvme::Completion c = co_await to->Execute(sp.cmd);
  co_return SameCompletion(sp, s->now(), c);
}

sim::Task<bool> Issue(sim::Simulator*, hostif::Stack* to, const CmdSpan& sp) {
  nvme::TimedCompletion tc = co_await to->Submit(sp.cmd);
  co_return SameCompletion(sp, tc.completed, tc.completion);
}

template <typename Kv>
sim::Task<bool> Issue(sim::Simulator* s, Kv* kv, const KvSpan& sp) {
  nvme::Status st = nvme::Status::kSuccess;
  bool found = false;
  switch (sp.kind) {
    case KvSpan::kPut: st = co_await kv->Put(sp.key, sp.bytes); break;
    case KvSpan::kGet: st = co_await kv->Get(sp.key, &found); break;
    case KvSpan::kDrain: co_await kv->Drain(); break;
  }
  co_return s->now() == sp.complete && st == sp.status && found == sp.found;
}

/// Replays span i and then its chain of successors, each issued from its
/// predecessor's completion, as the recorded caller issued them.
template <typename Target, typename Span>
sim::Task<> ReplayChain(sim::Simulator* s, Target* to,
                        const std::vector<Span>* st, std::size_t i,
                        Tally* t) {
  for (;;) {
    const Span& sp = (*st)[i];
    const bool same = co_await Issue(s, to, sp);
    if (t != nullptr) t->Note(same);
    if (sp.plan.next < 0) co_return;
    i = static_cast<std::size_t>(sp.plan.next);
  }
}

/// A chain head: waits from its scheduling instant to its submit time,
/// then replays its chain.
template <typename Target, typename Span>
sim::Task<> ReplayHead(sim::Simulator* s, Target* to,
                       const std::vector<Span>* st, std::size_t i,
                       Tally* t) {
  const Span& sp = (*st)[i];
  if (sp.submit > s->now()) co_await s->Delay(sp.submit - s->now());
  co_await ReplayChain(s, to, st, i, t);
}

/// Replays a planned stream into `to`: every head is scheduled at its
/// planned instant, in (instant, recorded order).
template <typename Target, typename Span>
sim::Task<> ReplayStream(sim::Simulator* s, Target* to,
                         const std::vector<Span>* st, Tally* t) {
  std::vector<std::size_t> heads;
  for (std::size_t i = 0; i < st->size(); ++i) {
    if (!(*st)[i].plan.chained) heads.push_back(i);
  }
  std::stable_sort(heads.begin(), heads.end(),
                   [st](std::size_t a, std::size_t b) {
                     return (*st)[a].plan.sched < (*st)[b].plan.sched;
                   });
  for (std::size_t i : heads) {
    const Time at = (*st)[i].plan.sched;
    if (at > s->now()) co_await s->Delay(at - s->now());
    sim::Spawn(ReplayHead(s, to, st, i, t));
  }
}

template <typename Span>
void Link(std::vector<Span>& st, std::size_t i) {
  Span& sp = st[i];
  sp.plan.chained = true;
  st[static_cast<std::size_t>(sp.plan.prev)].plan.next =
      static_cast<std::int64_t>(i);
}

/// KV boundary: YCSB workers are closed loops, so every candidate link is
/// real (Drain never takes one; see RecKv).
void PlanKv(std::vector<KvSpan>& st) {
  for (std::size_t i = 0; i < st.size(); ++i) {
    if (st[i].plan.prev >= 0) Link(st, i);
  }
}

/// Stack boundary: callers issue through the stack's own submit delay, so
/// every span is a head scheduled at its submit time.
void PlanStack(Stream& st) {
  for (CmdSpan& sp : st) sp.plan = Replay{.sched = sp.submit};
}

/// Device boundary: a command reaching the device exactly `submit_delay`
/// after its parent entered the stack was issued by the stack's delay
/// event, scheduled at the parent's submit; one that waited longer in the
/// stack (an mq-deadline write dispatched when the zone's previous batch
/// completed) was issued from that completion.
void PlanDevice(Stream& st, const Stream& parents, Time submit_delay) {
  std::unordered_map<std::uint64_t, Time> parent_submit;
  for (const CmdSpan& p : parents) parent_submit[p.id] = p.submit;
  for (std::size_t i = 0; i < st.size(); ++i) {
    CmdSpan& sp = st[i];
    auto it = parent_submit.find(sp.parent);
    if (it != parent_submit.end() && sp.submit == it->second + submit_delay) {
      sp.plan.sched = it->second;
      sp.plan.prev = -1;
    } else if (sp.plan.prev >= 0) {
      Link(st, i);
    } else {
      sp.plan.sched = sp.submit;
    }
  }
}

/// Decides, per boundary, how each recorded span is re-issued.
void PlanRecording(const std::string& w, Recording& rec) {
  PlanKv(rec.kv);
  PlanStack(rec.top);
  for (Stream& lane : rec.lane) PlanStack(lane);
  const Time submit_delay =
      ChoiceFor(w) == hostif::StackChoice::kKernelMq
          ? hostif::KernelStack::kDefaultCosts.submit +
                hostif::StackOptions{}.scheduler_cost
          : hostif::SpdkStack::kDefaultCosts.submit;
  for (std::size_t d = 0; d < rec.dev.size(); ++d) {
    PlanDevice(rec.dev[d], IsStripe(w) ? rec.lane[d] : rec.top,
               submit_delay);
  }
}

/// Rung: the devices alone, fed their recorded command streams.
Cost DeviceRung(const std::string& w, const Recording& rec, Tally* t) {
  std::unique_ptr<Rig> rig = MakeRig(w);
  return Measure([&] {
    for (std::size_t d = 0; d < rig->devices(); ++d) {
      sim::Spawn(ReplayStream(&rig->sim, &rig->dev(d), &rec.dev[d], t));
    }
    return rig->sim.Run();
  });
}

std::vector<std::unique_ptr<hostif::Stack>> MakeStacks(const std::string& w,
                                                       Rig& rig) {
  std::vector<std::unique_ptr<hostif::Stack>> out;
  for (std::size_t d = 0; d < rig.devices(); ++d) {
    out.push_back(hostif::MakeStack(ChoiceFor(w), rig.sim, rig.dev(d)).stack);
  }
  return out;
}

/// The stream(s) into the per-device host stacks.
std::vector<const Stream*> StackStreams(const std::string& w,
                                        const Recording& rec) {
  if (!IsStripe(w)) return {&rec.top};
  std::vector<const Stream*> out;
  for (const Stream& lane : rec.lane) out.push_back(&lane);
  return out;
}

/// Rung: devices under their host stacks, fed the per-device stack streams.
Cost StackRung(const std::string& w, const Recording& rec, Tally* t) {
  std::unique_ptr<Rig> rig = MakeRig(w);
  auto stacks = MakeStacks(w, *rig);
  const std::vector<const Stream*> streams = StackStreams(w, rec);
  return Measure([&] {
    for (std::size_t d = 0; d < stacks.size(); ++d) {
      sim::Spawn(ReplayStream(&rig->sim, stacks[d].get(), streams[d], t));
    }
    return rig->sim.Run();
  });
}

/// Rung (stripe4): the StripedStack over its lanes, fed the logical stream.
Cost StripeRung(const std::string& w, const Recording& rec, Tally* t) {
  std::unique_ptr<Rig> rig = MakeRig(w);
  hostif::StripedStack striped(rig->sim, MakeStacks(w, *rig));
  return Measure([&] {
    sim::Spawn(ReplayStream(&rig->sim, &striped, &rec.top, t));
    return rig->sim.Run();
  });
}

/// Rung (kv-ycsb): the KV store over its stack, fed the recorded KV ops.
Cost KvRung(const std::string& w, const Recording& rec, Tally* t) {
  std::unique_ptr<Rig> rig = MakeRig(w);
  auto stacks = MakeStacks(w, *rig);
  zkv::KvStore kv(rig->sim, *stacks[0], KvOptions());
  return Measure([&] {
    sim::Spawn(ReplayStream(&rig->sim, &kv, &rec.kv, t));
    return rig->sim.Run();
  });
}

/// The replay harness alone: the same streams into null targets.
template <typename Target, typename Span>
Cost HarnessRung(const std::vector<const std::vector<Span>*>& streams) {
  sim::Simulator s;
  Target null;
  return Measure([&] {
    for (const std::vector<Span>* st : streams) {
      sim::Spawn(ReplayStream(&s, &null, st, nullptr));
    }
    return s.Run();
  });
}

/// The repetition with the median host time of three.
template <typename F>
Cost Median3(F run) {
  std::vector<Cost> c = {run(), run(), run()};
  std::sort(c.begin(), c.end(),
            [](const Cost& a, const Cost& b) { return a.s < b.s; });
  return c[1];
}

// ---- NAND rung --------------------------------------------------------------

/// One die's closed-loop share of the op mix: programs fill blocks in
/// order (an erase recycles a block), reads hit the die's pre-programmed
/// last block.
sim::Task<> NandDie(nand::FlashArray* fa, std::uint32_t die,
                    std::uint64_t reads, std::uint64_t programs,
                    std::uint64_t erases) {
  const nand::Geometry& g = fa->geometry();
  const std::uint32_t read_block = g.blocks_per_die - 1;
  std::uint32_t block = 0;
  const std::uint64_t total = reads + programs + erases;
  std::uint64_t done_r = 0, done_p = 0;
  for (std::uint64_t i = 1; i <= total; ++i) {
    // Spread each kind evenly over the sequence.
    if (done_r < reads * i / total) {
      const auto page = static_cast<std::uint32_t>(done_r % g.pages_per_block);
      co_await fa->ReadPage({.die = die, .block = read_block, .page = page},
                            g.page_bytes);
      ++done_r;
    } else if (done_p < programs * i / total) {
      std::uint32_t wp = fa->BlockWritePointer(die, block);
      if (wp == g.pages_per_block) {
        block = (block + 1) % read_block;
        if (fa->BlockWritePointer(die, block) != 0) {
          fa->DeferredEraseBlock(die, block);
        }
        wp = 0;
      }
      co_await fa->ProgramPage({.die = die, .block = block, .page = wp});
      ++done_p;
    } else {
      co_await fa->EraseBlock(die, (block + 1) % read_block);
    }
  }
}

/// Drives a fresh FlashArray at the recorded run's NAND op mix; returns
/// host ns per call.
double NandNsPerCall(const std::string& w, const NandMix& mix) {
  if (mix.calls() == 0) return 0;
  nand::Geometry geo;
  nand::Timing timing;
  if (IsConv(w)) {
    geo = ConvGcProfile().nand_geometry;
    timing = ConvGcProfile().nand_timing;
  } else {
    const zns::ZnsProfile p = IsKv(w) ? KvProfile() : zns::Zn540Profile();
    geo = p.nand_geometry;
    timing = p.nand_timing;
  }
  const Cost c = Median3([&] {
    sim::Simulator s;
    nand::FlashArray fa(s, geo, timing);
    const std::uint32_t dies = geo.total_dies();
    for (std::uint32_t d = 0; d < dies; ++d) {
      fa.DebugProgramRange(d, geo.blocks_per_die - 1, geo.pages_per_block);
    }
    return Measure([&] {
      for (std::uint32_t d = 0; d < dies; ++d) {
        auto share = [&](std::uint64_t n) {
          return n / dies + (d < n % dies ? 1 : 0);
        };
        sim::Spawn(NandDie(&fa, d, share(mix.reads), share(mix.programs),
                           share(mix.erases)));
      }
      return s.Run();
    });
  });
  return c.s * 1e9 / static_cast<double>(mix.calls());
}

std::uint64_t Count(const std::vector<const Stream*>& v) {
  std::uint64_t n = 0;
  for (const Stream* s : v) n += s->size();
  return n;
}

double Per(double total, std::uint64_t n) {
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

/// Median host seconds of the measured phase over three runs; the first
/// run's virtual outputs are kept for the oracle check under `tag`.
double MedianMeasured(const Workload& w, std::uint64_t seed,
                      const RunOptions& opt, LadderResult& lr,
                      const std::string& tag, RepResult* first = nullptr) {
  std::vector<double> s;
  for (int i = 0; i < 3; ++i) {
    RepResult r = w.run(seed, opt);
    s.push_back(r.measured_s);
    if (i == 0) {
      lr.outputs.emplace_back(tag, r.out);
      if (first != nullptr) *first = std::move(r);
    }
  }
  return Median(s);
}

}  // namespace

Outputs DecoratedOutputs(const std::string& workload, std::uint64_t seed) {
  Recording rec;
  return RunDrive(workload, seed, &rec).out;
}

LadderResult RunLadder(const std::string& w, std::uint64_t seed) {
  LadderResult lr;
  const Workload& wl = *FindWorkload(w);
  auto metric = [&](const std::string& name, double v, const char* unit) {
    lr.metrics.push_back({name, v, unit});
  };
  auto note = [&](const std::string& n) { lr.notes.push_back(n); };

  // The decorated drive records every boundary; the plain drives are the
  // top rung. All must reproduce the oracle. stripe4's hand-assembled
  // stack runs on the classic engine, so its drives are checked against
  // a classic-engine Testbed run instead.
  Recording rec;
  const Drive traced = RunDrive(w, seed, &rec);
  PlanRecording(w, rec);
  std::vector<Drive> plains;
  for (int i = 0; i < 3; ++i) plains.push_back(RunDrive(w, seed, nullptr));
  std::sort(plains.begin(), plains.end(), [](const Drive& a, const Drive& b) {
    return a.cost.s < b.cost.s;
  });
  const Drive& plain = plains[1];
  Tally tally;
  if (IsStripe(w)) {
    RunOptions classic{.sliced = false};
    classic.sim_threads = 0;
    const Outputs ref = wl.run(seed, classic).out;
    for (const Outputs* o : {&traced.out, &plain.out}) {
      tally.Note(*o == ref);
      if (!(*o == ref)) {
        note("classic drive differs: " + o->FirstDifference(ref));
      }
    }
  } else {
    lr.outputs.emplace_back("decorated", traced.out);
    lr.outputs.emplace_back("assembled", plain.out);
  }
  lr.failed = plain.failed;
  lr.attempted = plain.ops + plain.failed;

  // The ladder, bottom up: each rung replays the stream recorded at its
  // boundary (median of three) and must reproduce every completion; the
  // harness cost of replaying that stream is subtracted.
  auto rung = [&](const char* name, Cost (*fn)(const std::string&,
                                               const Recording&, Tally*),
                  const Cost& harness) {
    Tally t;
    const Cost c = Median3([&] { return fn(w, rec, &t); });
    note(std::string("rung ") + name + " replayed=" +
         std::to_string(t.replayed) + " mismatches=" +
         std::to_string(t.mismatches));
    tally.replayed += t.replayed;
    tally.mismatches += t.mismatches;
    return c - harness;
  };
  std::vector<const Stream*> dev_streams;
  for (const Stream& st : rec.dev) dev_streams.push_back(&st);
  const std::vector<const Stream*> stack_streams = StackStreams(w, rec);
  const Cost dev = rung("device", DeviceRung, Median3([&] {
                          return HarnessRung<NullCtrl>(dev_streams);
                        }));
  const Cost stk = rung("stack", StackRung, Median3([&] {
                          return HarnessRung<NullStack>(stack_streams);
                        }));
  const Cost stripe =
      IsStripe(w) ? rung("stripe", StripeRung, Median3([&] {
                           return HarnessRung<NullStack, CmdSpan>({&rec.top});
                         }))
                  : Cost{};
  const Cost kv = IsKv(w) ? rung("kv", KvRung, Median3([&] {
                                   return HarnessRung<NullKv, KvSpan>(
                                       {&rec.kv});
                                 }))
                          : Cost{};
  const Cost& full = plain.cost;
  lr.replayed = tally.replayed;
  lr.replay_mismatches = tally.mismatches;

  const double ns = 1e9;
  const double nand_ns = NandNsPerCall(w, plain.nand);
  const double nand_s = nand_ns * static_cast<double>(plain.nand.calls()) / ns;
  const std::uint64_t ops = plain.ops;
  const std::uint64_t n_dev = Count(dev_streams);
  const std::uint64_t n_stack = Count(stack_streams);
  const std::uint64_t n_kv = rec.kv.size();
  // Device self cost: its net rung minus the NAND work it drove.
  const double dev_self_s = dev.s - nand_s;
  const Cost& top = IsKv(w) ? kv : IsStripe(w) ? stripe : stk;

  metric("sim.events_per_op", Per(full.events, ops), "count");
  metric("sim.ns_per_event", Per(full.s * ns, static_cast<std::uint64_t>(
                                                  full.events)),
         "ns");
  metric("sim.allocs_per_op", Per(full.allocs, ops), "count");

  double windows = 0, msgs = 0, speedup = 0;
  if (IsStripe(w)) {
    // The window schedule is identical for any thread count, so the
    // engine's counts come from the serial run; the speedup compares it
    // with one two-thread run (slow on small machines, so run once).
    RepResult one;
    RunOptions serial{.sliced = false};
    serial.sim_threads = 1;
    const double t1 = MedianMeasured(wl, seed, serial, lr, "threads1", &one);
    RunOptions threaded{.sliced = false};
    threaded.sim_threads = 2;
    const RepResult two = wl.run(seed, threaded);
    lr.outputs.emplace_back("threads2", two.out);
    windows = Per(static_cast<double>(one.windows), one.ops);
    msgs = Per(static_cast<double>(one.messages), one.ops);
    speedup = t1 / two.measured_s;
  }
  metric("psim.windows_per_op", windows, "count");
  metric("psim.msgs_per_op", msgs, "count");
  metric("psim.thread_speedup", speedup, "x");

  metric("nand.ops_per_op", Per(static_cast<double>(plain.nand.calls()), ops),
         "count");
  metric("nand.ns_per_call", nand_ns, "ns");

  for (const std::string layer : {"zns", "ftl"}) {
    const bool here = layer == (IsConv(w) ? "ftl" : "zns");
    metric(layer + ".ns_per_cmd", here ? Per(dev_self_s * ns, n_dev) : 0.0,
           "ns");
    metric(layer + ".events_per_cmd", here ? Per(dev.events, n_dev) : 0.0,
           "count");
    metric(layer + ".allocs_per_cmd", here ? Per(dev.allocs, n_dev) : 0.0,
           "count");
  }
  metric("ftl.gc_units_per_host_unit", plain.gc_units_per_host_unit, "ratio");
  metric("ftl.run_share", IsConv(w) ? dev_self_s / full.s : 0.0, "ratio");

  metric("stack.ns_per_cmd", Per((stk.s - dev.s) * ns, n_stack), "ns");
  metric("stack.allocs_per_cmd", Per(stk.allocs - dev.allocs, n_stack),
         "count");
  metric("stack.merge_fraction", plain.merge_fraction, "ratio");
  metric("stripe.ns_per_cmd",
         IsStripe(w) ? Per((stripe.s - stk.s) * ns, rec.top.size()) : 0.0,
         "ns");
  metric("workload.ns_per_op", Per((full.s - top.s) * ns, ops), "ns");

  const double worker_ns = static_cast<double>(plain.virtual_end) *
                           static_cast<double>(KvSpec(seed).workers);
  metric("kv.ns_per_op", IsKv(w) ? Per((kv.s - stk.s) * ns, n_kv) : 0.0, "ns");
  metric("kv.allocs_per_op", IsKv(w) ? Per(kv.allocs - stk.allocs, n_kv) : 0.0,
         "count");
  metric("kv.device_cmds_per_op",
         IsKv(w) ? Per(static_cast<double>(n_stack), n_kv) : 0.0, "count");
  metric("kv.write_amp", IsKv(w) ? plain.kv.WriteAmplification() : 0.0,
         "ratio");
  metric("kv.stall_share",
         IsKv(w) ? static_cast<double>(plain.kv.write_stall_ns) / worker_ns
                 : 0.0,
         "ratio");

  // Telemetry on / off through the Testbed path, all in memory.
  const double off = MedianMeasured(wl, seed, RunOptions{.sliced = false}, lr,
                                    "telemetry-off");
  RunOptions trace_on{.sliced = false};
  trace_on.telemetry = TelemetryConfig{.ring_capacity = 1 << 16};
  const double tr = MedianMeasured(wl, seed, trace_on, lr, "trace-on");
  std::string timeline;
  RunOptions timeline_on{.sliced = false};
  timeline_on.telemetry = TelemetryConfig{.timeline_capture = &timeline};
  const double tl = MedianMeasured(wl, seed, timeline_on, lr, "timeline-on");
  metric("telemetry.trace_slowdown", tr / off, "x");
  metric("telemetry.timeline_slowdown", tl / off, "x");

  char buf[256];
  std::snprintf(buf, sizeof buf,
                "net_rung_s nand=%.4f device=%.4f stack=%.4f stripe=%.4f "
                "kv=%.4f full=%.4f",
                nand_s, dev.s, stk.s, stripe.s, kv.s, full.s);
  note(buf);
  std::snprintf(buf, sizeof buf,
                "spans device=%llu stack=%llu top=%llu kv=%llu",
                static_cast<unsigned long long>(n_dev),
                static_cast<unsigned long long>(n_stack),
                static_cast<unsigned long long>(rec.top.size()),
                static_cast<unsigned long long>(n_kv));
  note(buf);
  return lr;
}

}  // namespace perfbench
