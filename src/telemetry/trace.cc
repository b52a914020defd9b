#include "telemetry/trace.h"

#include <cstdio>
#include <cstring>
#include <string>

#include "sim/check.h"
#include "telemetry/json.h"

namespace zstor::telemetry {

const char* ToString(Layer l) {
  switch (l) {
    case Layer::kHost: return "host";
    case Layer::kQueue: return "queue";
    case Layer::kFcp: return "fcp";
    case Layer::kPost: return "post";
    case Layer::kBuffer: return "buffer";
    case Layer::kZone: return "zone";
    case Layer::kNand: return "nand";
    case Layer::kFtl: return "ftl";
    case Layer::kWorkload: return "workload";
  }
  return "?";
}

RingBufferSink::RingBufferSink(std::size_t capacity) : capacity_(capacity) {
  ZSTOR_CHECK(capacity_ > 0);
  ring_.reserve(capacity_);
}

void RingBufferSink::OnEvent(const TraceEvent& e) {
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
  } else {
    ring_[total_ % capacity_] = e;
  }
  ++total_;
}

std::vector<TraceEvent> RingBufferSink::Events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // Once the ring has wrapped, the oldest surviving event sits right
  // after the most recently written slot.
  std::size_t start = total_ > capacity_ ? total_ % capacity_ : 0;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(start + i) % capacity_]);
  }
  return out;
}

JsonlFileSink::JsonlFileSink(const std::string& path) {
  file_ = std::fopen(path.c_str(), "w");
  if (file_ == nullptr) {
    std::fprintf(stderr, "telemetry: cannot open trace file '%s'\n",
                 path.c_str());
  }
}

JsonlFileSink::~JsonlFileSink() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

namespace {

/// True when a phase name needs no escaping — the overwhelmingly common
/// case (static identifiers like "nand.read"), kept off the slow path.
bool PlainJsonString(const char* s) {
  for (; *s != '\0'; ++s) {
    unsigned char c = static_cast<unsigned char>(*s);
    if (c == '"' || c == '\\' || c < 0x20) return false;
  }
  return true;
}

}  // namespace

void JsonlFileSink::OnEvent(const TraceEvent& e) {
  if (file_ == nullptr) return;
  // Layer names come from ToString() and are always plain; event names are
  // almost always static identifiers but must still produce valid JSON
  // when someone registers a hostile one.
  const char* name = e.name;
  std::string escaped;
  if (!PlainJsonString(name)) {
    AppendJsonString(escaped, name);
    // AppendJsonString quotes; the format string quotes too, so strip.
    escaped = escaped.substr(1, escaped.size() - 2);
    name = escaped.c_str();
  }
  std::fprintf(file_,
               "{\"ts\":%llu,\"dur\":%llu,\"cmd\":%llu,\"layer\":\"%s\","
               "\"name\":\"%s\",\"a\":%lld,\"b\":%lld}\n",
               static_cast<unsigned long long>(e.begin),
               static_cast<unsigned long long>(e.duration()),
               static_cast<unsigned long long>(e.cmd), ToString(e.layer),
               name, static_cast<long long>(e.a),
               static_cast<long long>(e.b));
  ++written_;
}

void JsonlFileSink::Flush() {
  if (file_ != nullptr) std::fflush(file_);
}

}  // namespace zstor::telemetry
