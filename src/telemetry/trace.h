// Event tracing for the simulator: where did a command's virtual time go?
//
// Every layer (host stack, queue pair, FCP, write-back buffer, zone state
// machine, NAND dies, FTL GC) emits TraceEvents into a Tracer. Each event
// is either a *span* (begin < end: a phase of a command's lifetime, e.g.
// "nand.read") or an *instant* (begin == end: a point occurrence, e.g. a
// zone state transition). Consecutive spans of one command tile the
// interval from host submission to host completion, so summing a
// command's span durations reproduces its application-observed latency —
// the per-command breakdown the paper's §IV argues emulators must expose.
//
// Tracing is off unless a sink is installed; every emit site guards on a
// single pointer check, so a disabled tracer costs nothing measurable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/check.h"
#include "sim/time.h"

namespace zstor::telemetry {

/// The layer of the stack an event originated from.
enum class Layer : std::uint8_t {
  kHost,      // host software stack (syscall / SPDK submission paths)
  kQueue,     // NVMe queue pair (doorbell to CQE)
  kFcp,       // firmware command processor (serialized, priority-queued)
  kPost,      // post stage: DMA + firmware completion path
  kBuffer,    // write-back buffer admission (NAND drain backpressure)
  kZone,      // zone state machine and management commands
  kNand,      // flash dies and channels
  kFtl,       // conventional-device FTL (GC, mapping)
  kWorkload,  // workload generator
};

const char* ToString(Layer l);

struct TraceEvent {
  sim::Time begin = 0;
  sim::Time end = 0;        // == begin for instantaneous events
  std::uint64_t cmd = 0;    // command trace id; 0 = not command-scoped
  Layer layer = Layer::kHost;
  const char* name = "";    // static phase name, e.g. "nand.read"
  std::int64_t a = 0;       // small payload: zone/die/block id, opcode...
  std::int64_t b = 0;       // second payload: bytes, state, status...

  sim::Time duration() const { return end - begin; }
};

/// Receives every emitted event. Implementations must not assume events
/// arrive sorted by `begin`: a span is emitted when it *ends*.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnEvent(const TraceEvent& e) = 0;
  virtual void Flush() {}
};

/// Keeps the most recent `capacity` events in memory. The cheap always-on
/// choice: attach it for a whole run, inspect the tail after the fact.
class RingBufferSink : public TraceSink {
 public:
  explicit RingBufferSink(std::size_t capacity);

  void OnEvent(const TraceEvent& e) override;

  /// Buffered events, oldest first.
  std::vector<TraceEvent> Events() const;
  std::uint64_t total_events() const { return total_; }
  /// Events overwritten because the ring was full.
  std::uint64_t dropped() const {
    return total_ > ring_.size() ? total_ - ring_.size() : 0;
  }
  std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::uint64_t total_ = 0;  // next sequence number; ring_[total_ % cap]
};

/// Appends one JSON object per event to a file (the `--trace=FILE` format;
/// schema documented in DESIGN.md §7). Line-buffered, flushed on
/// destruction.
class JsonlFileSink : public TraceSink {
 public:
  explicit JsonlFileSink(const std::string& path);
  ~JsonlFileSink() override;

  void OnEvent(const TraceEvent& e) override;
  void Flush() override;

  bool ok() const { return file_ != nullptr; }
  std::uint64_t written() const { return written_; }

 private:
  std::FILE* file_ = nullptr;
  std::uint64_t written_ = 0;
};

/// The emit facade held by every instrumented layer. Disabled (the default)
/// until a sink is attached; all emit paths are a null check away from
/// free.
class Tracer {
 public:
  bool enabled() const { return sink_ != nullptr; }
  /// Attaches a sink (non-owning).
  void SetSink(TraceSink* sink) { sink_ = sink; }
  TraceSink* sink() const { return sink_; }

  void Emit(const TraceEvent& e) {
    if (sink_ != nullptr) sink_->OnEvent(e);
  }
  void Span(sim::Time begin, sim::Time end, std::uint64_t cmd, Layer layer,
            const char* name, std::int64_t a = 0, std::int64_t b = 0) {
    if (sink_ != nullptr) sink_->OnEvent({begin, end, cmd, layer, name, a, b});
  }
  void Instant(sim::Time at, std::uint64_t cmd, Layer layer,
               const char* name, std::int64_t a = 0, std::int64_t b = 0) {
    if (sink_ != nullptr) sink_->OnEvent({at, at, cmd, layer, name, a, b});
  }

  /// Command trace ids are `[epoch:16 | lane:7 | n:30]` (DESIGN.md §7):
  /// 53 bits, so every id is exact through a JSON double. `epoch` numbers
  /// a process's traced testbeds (mod 2^16), `lane` is the engine lane
  /// that allocates (0 in classic mode), and n counts from 1.
  static constexpr int kIdCounterBits = 30;
  static constexpr int kIdLaneBits = 7;
  static constexpr int kIdEpochShift = kIdCounterBits + kIdLaneBits;

  /// Allocates the next id of this tracer's namespace. Never 0; a lane's
  /// ids depend only on its own event order, never on other threads.
  std::uint64_t NextId() {
    ZSTOR_CHECK_MSG(id_next_ + 1 < (1ull << kIdCounterBits),
                    "trace id namespace exhausted");
    return id_base_ | ++id_next_;
  }

  /// Hands out the ids of (`epoch`, `lane`) from n = 1.
  void SetIdNamespace(std::uint64_t epoch, std::uint32_t lane) {
    ZSTOR_CHECK_MSG(lane < (1u << kIdLaneBits),
                    "too many lanes for trace ids");
    id_base_ = (epoch << kIdEpochShift) & ((1ull << 53) - 1);
    id_base_ |= std::uint64_t{lane} << kIdCounterBits;
    id_next_ = 0;
  }

 private:
  TraceSink* sink_ = nullptr;
  std::uint64_t id_base_ = 0;
  std::uint64_t id_next_ = 0;
};

/// Buffers every event in arrival order for later replay into another
/// sink. The parallel engine gives each lane's tracer a ShardSink so no
/// two threads ever touch the real (file/ring) sink concurrently; at
/// flush the shards are replayed in lane order, making the merged byte
/// stream deterministic for any thread count.
class ShardSink : public TraceSink {
 public:
  void OnEvent(const TraceEvent& e) override { events_.push_back(e); }

  /// Replays all buffered events into `out` (in arrival order) and
  /// clears the shard.
  void ReplayInto(TraceSink& out) {
    for (const TraceEvent& e : events_) out.OnEvent(e);
    events_.clear();
  }

  std::size_t size() const { return events_.size(); }
  const std::vector<TraceEvent>& events() const { return events_; }

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace zstor::telemetry
