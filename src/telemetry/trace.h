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

  /// Allocates a command trace id, unique across the whole process (ids
  /// from concurrent testbeds never collide in a shared sink). Never 0.
  static std::uint64_t NextCmdId();

  /// Allocates a command trace id from this tracer. By default delegates
  /// to the process-wide NextCmdId(); after SetIdNamespace the tracer
  /// hands out `base + n` from a private counter instead. Never 0.
  std::uint64_t NextId() {
    if (id_base_ == 0) return NextCmdId();
    return id_base_ + ++id_next_;
  }

  /// Puts this tracer in namespaced-id mode. The parallel engine gives
  /// every lane's tracer a disjoint `base` so ids stay unique without a
  /// shared atomic — the per-lane counters make id assignment (and thus
  /// trace bytes) deterministic for any thread count, which the global
  /// atomic could not be.
  void SetIdNamespace(std::uint64_t base) {
    id_base_ = base;
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
