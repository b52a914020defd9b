#include "nvme/log_page.h"

#include "telemetry/json.h"

namespace zstor::nvme {

namespace {

using telemetry::AppendJsonNumber;
using telemetry::AppendJsonString;

void Field(std::string& out, const char* key, double v, bool first = false) {
  if (!first) out += ",";
  AppendJsonString(out, key);
  out += ":";
  AppendJsonNumber(out, v);
}

void Field(std::string& out, const char* key, std::uint64_t v,
           bool first = false) {
  Field(out, key, static_cast<double>(v), first);
}

}  // namespace

std::string SmartLog::ToJson() const {
  std::string out = "{\"device\":";
  AppendJsonString(out, device);
  for (const auto& f : kFields) Field(out, f.name, this->*f.member);
  Field(out, "write_amplification", write_amplification);
  out += "}";
  return out;
}

std::string ZoneReportLog::ToJson() const {
  std::string out = "{";
  Field(out, "num_zones", static_cast<std::uint64_t>(num_zones),
        /*first=*/true);
  Field(out, "open_zones", static_cast<std::uint64_t>(open_zones));
  Field(out, "active_zones", static_cast<std::uint64_t>(active_zones));
  Field(out, "max_open", static_cast<std::uint64_t>(max_open));
  Field(out, "max_active", static_cast<std::uint64_t>(max_active));
  Field(out, "read_only_zones",
        static_cast<std::uint64_t>(read_only_zones));
  Field(out, "offline_zones", static_cast<std::uint64_t>(offline_zones));
  out += ",\"zones\":[";
  for (std::size_t i = 0; i < zones.size(); ++i) {
    const ZoneReportEntry& z = zones[i];
    if (i > 0) out += ",";
    out += "{";
    Field(out, "zone", static_cast<std::uint64_t>(z.zone), /*first=*/true);
    Field(out, "state_raw", static_cast<std::uint64_t>(z.state_raw));
    out += ",\"state\":";
    AppendJsonString(out, z.state);
    Field(out, "zslba", z.zslba);
    Field(out, "write_pointer", z.write_pointer);
    Field(out, "written_bytes", z.written_bytes);
    Field(out, "cap_bytes", z.cap_bytes);
    Field(out, "retired_blocks", static_cast<std::uint64_t>(z.retired_blocks));
    Field(out, "occupancy", z.Occupancy());
    out += "}";
  }
  out += "]}";
  return out;
}

std::string DieUtilLog::ToJson() const {
  std::string out = "{";
  Field(out, "elapsed_ns", elapsed_ns, /*first=*/true);
  out += ",\"dies\":[";
  for (std::size_t i = 0; i < dies.size(); ++i) {
    const DieUtilEntry& d = dies[i];
    if (i > 0) out += ",";
    out += "{";
    Field(out, "die", static_cast<std::uint64_t>(d.die), /*first=*/true);
    Field(out, "reads", d.reads);
    Field(out, "programs", d.programs);
    Field(out, "erases", d.erases);
    Field(out, "busy_ns", d.busy_ns);
    Field(out, "utilization", d.utilization);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace zstor::nvme
