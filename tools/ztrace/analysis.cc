#include "ztrace/analysis.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "nvme/types.h"
#include "telemetry/json.h"
#include "ztrace/json_value.h"

namespace zstor::ztrace {

namespace {

/// Decodes the opcode payload of a host.submit / qp.doorbell span.
std::string OpcodeName(std::int64_t a) {
  if (a < 0 || a > static_cast<std::int64_t>(nvme::Opcode::kDeallocate)) {
    return "unknown";
  }
  return std::string(nvme::ToString(static_cast<nvme::Opcode>(a)));
}

/// Nearest-rank quantile of a sorted sample; 0 for an empty one (callers
/// only query classes that have commands).
double SortedQuantile(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  return static_cast<double>(sorted[rank - 1]);
}

std::uint64_t U64(const JsonValue& v, std::string_view key) {
  return static_cast<std::uint64_t>(v.NumberOr(key, 0));
}

TbTimeline& TbFor(LoadResult& out, const std::string& tb) {
  for (auto& t : out.tbs) {
    if (t.tb == tb) return t;
  }
  out.tbs.push_back(TbTimeline{});
  out.tbs.back().tb = tb;
  return out.tbs.back();
}

void ParseNumberMap(const JsonValue* obj, std::map<std::string, double>* out) {
  if (obj == nullptr || !obj->is_object()) return;
  for (const auto& [k, v] : obj->object()) {
    if (v.is_number()) (*out)[k] = v.number();
  }
}

}  // namespace

LoadResult LoadJsonl(std::istream& in) {
  LoadResult out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::optional<JsonValue> v = JsonValue::Parse(line);
    if (!v.has_value() || !v->is_object()) {
      ++out.bad_lines;
      continue;
    }
    const JsonValue* type = v->Find("type");
    if (type == nullptr) {
      TraceRecord r;
      r.ts = U64(*v, "ts");
      r.dur = U64(*v, "dur");
      r.cmd = U64(*v, "cmd");
      r.layer = v->StringOr("layer", "");
      r.name = v->StringOr("name", "");
      r.a = static_cast<std::int64_t>(v->NumberOr("a", 0));
      r.b = static_cast<std::int64_t>(v->NumberOr("b", 0));
      out.records.push_back(std::move(r));
      continue;
    }
    const std::string& kind = type->string();
    if (kind != "sample" && kind != "zone_state" && kind != "die_busy" &&
        kind != "window") {
      ++out.bad_lines;
      continue;
    }
    TbTimeline& tb = TbFor(out, v->StringOr("tb", ""));
    if (kind == "sample") {
      Sample s;
      s.t = U64(*v, "t");
      s.interval_ns = U64(*v, "interval_ns");
      ParseNumberMap(v->Find("counters"), &s.counters);
      ParseNumberMap(v->Find("gauges"), &s.gauges);
      if (const JsonValue* h = v->Find("hist");
          h != nullptr && h->is_object()) {
        for (const auto& [name, hv] : h->object()) {
          if (!hv.is_object()) continue;
          Sample::Hist hs;
          hs.count = U64(hv, "count");
          hs.mean_ns = hv.NumberOr("mean_ns", 0);
          hs.p50_ns = hv.NumberOr("p50_ns", 0);
          hs.p95_ns = hv.NumberOr("p95_ns", 0);
          hs.p99_ns = hv.NumberOr("p99_ns", 0);
          hs.max_ns = hv.NumberOr("max_ns", 0);
          s.hists[name] = hs;
        }
      }
      tb.samples.push_back(std::move(s));
    } else if (kind == "zone_state") {
      ZoneEvent e;
      e.t = U64(*v, "t");
      e.lane = static_cast<std::uint32_t>(U64(*v, "lane"));
      e.zone = static_cast<std::uint32_t>(U64(*v, "zone"));
      e.from = v->StringOr("from", "");
      e.to = v->StringOr("to", "");
      tb.zone_events.push_back(std::move(e));
    } else if (kind == "die_busy") {
      DieBusy d;
      d.t = U64(*v, "t");
      d.dur = U64(*v, "dur");
      d.lane = static_cast<std::uint32_t>(U64(*v, "lane"));
      d.die = static_cast<std::uint32_t>(U64(*v, "die"));
      d.ops = U64(*v, "ops");
      d.busy_ns = U64(*v, "busy_ns");
      tb.die_busy.push_back(d);
    } else {
      Window w;
      w.t = U64(*v, "t");
      w.dur = U64(*v, "dur");
      w.lane = static_cast<std::uint32_t>(U64(*v, "lane"));
      w.kind = v->StringOr("kind", "");
      w.a = static_cast<std::int64_t>(v->NumberOr("a", 0));
      w.b = static_cast<std::int64_t>(v->NumberOr("b", 0));
      tb.windows.push_back(std::move(w));
    }
  }
  return out;
}

LoadResult LoadJsonlFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    std::fprintf(stderr, "ztrace: cannot open %s\n", path.c_str());
    return {};
  }
  return LoadJsonl(in);
}

std::vector<StageStat> StageBreakdown(const std::vector<TraceRecord>& recs) {
  std::map<std::pair<std::string, std::string>, StageStat> by_stage;
  for (const TraceRecord& r : recs) {
    StageStat& s = by_stage[{r.layer, r.name}];
    if (s.count == 0) {
      s.layer = r.layer;
      s.name = r.name;
    }
    s.count++;
    s.total_ns += r.dur;
  }
  std::vector<StageStat> out;
  out.reserve(by_stage.size());
  for (auto& [key, s] : by_stage) out.push_back(std::move(s));
  std::sort(out.begin(), out.end(), [](const StageStat& x, const StageStat& y) {
    return x.total_ns > y.total_ns;
  });
  return out;
}

std::vector<CommandTrace> GroupByCommand(
    const std::vector<TraceRecord>& recs) {
  std::vector<CommandTrace> out;
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (const TraceRecord& r : recs) {
    if (r.cmd == 0) continue;
    auto [it, inserted] = index.try_emplace(r.cmd, out.size());
    if (inserted) {
      CommandTrace ct;
      ct.cmd = r.cmd;
      ct.begin = r.ts;
      ct.end = r.end();
      out.push_back(std::move(ct));
    }
    CommandTrace& ct = out[it->second];
    ct.begin = std::min(ct.begin, r.ts);
    ct.end = std::max(ct.end, r.end());
    // Resilience events are counted, not timed: a "host.retry" span
    // overlays the failed attempt's own device spans, so adding its
    // duration would double-count that attempt.
    if (r.name == "host.retry") {
      ct.retries++;
      continue;
    }
    if (r.name == "host.timeout") {
      ct.timeouts++;
      continue;
    }
    if (r.name == "host.error") {
      ct.errored = true;
      continue;
    }
    // Crash instants: counted, never timed (zero-duration markers).
    if (r.name == "host.reset") {
      ct.device_resets++;
      continue;
    }
    if (r.name == "host.replay_dupe") {
      ct.replay_dupes++;
      continue;
    }
    ct.total_ns += r.dur;
    ct.stage_ns[r.name] += r.dur;
    if (r.name == "host.submit" ||
        (r.name == "qp.doorbell" && ct.op == "unknown")) {
      ct.op = OpcodeName(r.a);
    }
  }
  return out;
}

std::vector<TailAttribution> AttributeTails(
    const std::vector<CommandTrace>& cmds) {
  std::map<std::string, std::vector<const CommandTrace*>> by_op;
  for (const CommandTrace& c : cmds) by_op[c.op].push_back(&c);

  std::vector<TailAttribution> out;
  for (auto& [op, members] : by_op) {
    TailAttribution t;
    t.op = op;
    t.commands = members.size();

    std::vector<std::uint64_t> totals;
    totals.reserve(members.size());
    double sum = 0.0;
    for (const CommandTrace* c : members) {
      totals.push_back(c->total_ns);
      sum += static_cast<double>(c->total_ns);
      t.retries += c->retries;
      t.timeouts += c->timeouts;
      t.device_resets += c->device_resets;
      t.replay_dupes += c->replay_dupes;
      if (c->retries > 0) t.retried_commands++;
      if (c->errored) t.errored_commands++;
    }
    std::sort(totals.begin(), totals.end());
    t.mean_ns = sum / static_cast<double>(totals.size());
    t.p50_ns = SortedQuantile(totals, 0.50);
    t.p95_ns = SortedQuantile(totals, 0.95);
    t.p99_ns = SortedQuantile(totals, 0.99);

    // Mean per-stage time among the commands at or beyond each quantile.
    auto attribute = [&members](double threshold_ns,
                                std::map<std::string, double>& stage_mean,
                                std::string& dominant) {
      std::size_t n = 0;
      for (const CommandTrace* c : members) {
        if (static_cast<double>(c->total_ns) < threshold_ns) continue;
        ++n;
        for (const auto& [stage, ns] : c->stage_ns) {
          stage_mean[stage] += static_cast<double>(ns);
        }
      }
      double best = -1.0;
      for (auto& [stage, ns] : stage_mean) {
        ns /= static_cast<double>(n);  // n >= 1: the max is always >= q
        if (ns > best) {
          best = ns;
          dominant = stage;
        }
      }
    };
    attribute(t.p95_ns, t.p95_stage_ns, t.p95_dominant);
    attribute(t.p99_ns, t.p99_stage_ns, t.p99_dominant);
    out.push_back(std::move(t));
  }
  std::sort(out.begin(), out.end(),
            [](const TailAttribution& x, const TailAttribution& y) {
              return x.commands > y.commands;
            });
  return out;
}

CrashSummary SummarizeCrashes(const std::vector<TraceRecord>& recs) {
  CrashSummary s;
  for (const TraceRecord& r : recs) {
    if (r.name == "crash.power_loss") s.power_losses++;
    if (r.name == "recovery.done") s.recoveries++;
  }
  return s;
}

QdTimeline ComputeQueueDepth(const std::vector<CommandTrace>& cmds) {
  QdTimeline out;
  if (cmds.empty()) return out;
  // +1 at each command's begin, -1 at its end; at equal timestamps ends
  // sort first so a back-to-back handoff doesn't momentarily double-count.
  std::vector<std::pair<std::uint64_t, std::int64_t>> deltas;
  deltas.reserve(cmds.size() * 2);
  for (const CommandTrace& c : cmds) {
    deltas.emplace_back(c.begin, +1);
    deltas.emplace_back(c.end, -1);
  }
  std::sort(deltas.begin(), deltas.end(),
            [](const auto& x, const auto& y) {
              if (x.first != y.first) return x.first < y.first;
              return x.second < y.second;
            });

  std::int64_t qd = 0;
  std::uint64_t prev_ts = deltas.front().first;
  double weighted = 0.0;
  for (std::size_t i = 0; i < deltas.size();) {
    std::uint64_t ts = deltas[i].first;
    weighted += static_cast<double>(qd) * static_cast<double>(ts - prev_ts);
    prev_ts = ts;
    while (i < deltas.size() && deltas[i].first == ts) {
      qd += deltas[i].second;
      ++i;
    }
    out.points.push_back(QdPoint{ts, qd});
    out.max_qd = std::max(out.max_qd, qd);
  }
  std::uint64_t span = out.points.back().ts - out.points.front().ts;
  out.mean_qd = span == 0 ? 0.0 : weighted / static_cast<double>(span);
  return out;
}

std::string ToChromeTrace(const LoadResult& loaded, const QdTimeline* qd) {
  using telemetry::AppendJsonNumber;
  using telemetry::AppendJsonString;
  // One track (tid) per layer, in pipeline order, so Perfetto lays the
  // stack out top-to-bottom the way a command traverses it.
  static constexpr const char* kLayerOrder[] = {
      "workload", "host", "queue", "fcp", "post",
      "buffer",   "zone", "nand",  "ftl"};
  auto tid_of = [](const std::string& layer) -> int {
    for (std::size_t i = 0; i < std::size(kLayerOrder); ++i) {
      if (layer == kLayerOrder[i]) return static_cast<int>(i) + 1;
    }
    return static_cast<int>(std::size(kLayerOrder)) + 1;
  };

  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  const char* sep = "";
  char buf[128];
  // Appends one event. Trace-event ts/dur are microseconds; only complete
  // ("X") events carry a dur, and only spans a category.
  auto emit = [&](std::string_view name, char ph, int pid, int tid,
                  std::uint64_t ts_ns, std::uint64_t dur_ns,
                  std::initializer_list<std::pair<const char*, double>> args,
                  std::string_view cat = {}) {
    out += sep;
    sep = ",";
    out += "{\"name\":";
    AppendJsonString(out, name);
    std::snprintf(buf, sizeof buf,
                  ",\"ph\":\"%c\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f", ph, pid,
                  tid, static_cast<double>(ts_ns) / 1000.0);
    out += buf;
    if (ph == 'X') {
      std::snprintf(buf, sizeof buf, ",\"dur\":%.3f",
                    static_cast<double>(dur_ns) / 1000.0);
      out += buf;
    }
    if (ph == 'i') out += ",\"s\":\"t\"";
    if (!cat.empty()) {
      out += ",\"cat\":";
      AppendJsonString(out, cat);
    }
    out += ",\"args\":{";
    const char* arg_sep = "";
    for (const auto& [key, v] : args) {
      out += arg_sep;
      arg_sep = ",";
      AppendJsonString(out, key);
      out += ':';
      AppendJsonNumber(out, v);
    }
    out += "}}";
  };
  // Names a pid (tid 0: process_name) or one of its tracks (thread_name).
  auto name_track = [&](int pid, int tid, std::string_view name) {
    out += sep;
    sep = ",";
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
                  "\"args\":{\"name\":",
                  tid == 0 ? "process_name" : "thread_name", pid, tid);
    out += buf;
    AppendJsonString(out, name);
    out += "}}";
  };

  // pid 1: the span trace and its queue-depth counter track.
  for (const TraceRecord& r : loaded.records) {
    emit(r.name, r.dur > 0 ? 'X' : 'i', 1, tid_of(r.layer), r.ts, r.dur,
         {{"cmd", static_cast<double>(r.cmd)},
          {"a", static_cast<double>(r.a)},
          {"b", static_cast<double>(r.b)}},
         r.layer);
  }
  if (qd != nullptr) {
    for (const QdPoint& p : qd->points) {
      emit("queue depth", 'C', 1, 0, p.ts, 0,
           {{"qd", static_cast<double>(p.qd)}});
    }
  }
  if (!loaded.records.empty()) {
    for (std::size_t i = 0; i < std::size(kLayerOrder); ++i) {
      name_track(1, static_cast<int>(i) + 1, kLayerOrder[i]);
    }
  }

  // pid 2, 3, ...: one per testbed, with counter tracks sampled at each
  // interval's start and one span track per background-window kind.
  int pid = 1;
  for (const TbTimeline& tl : loaded.tbs) {
    name_track(++pid, 0, "tb " + tl.tb);
    for (const IntervalRow& r : BuildIntervals(tl)) {
      emit("throughput_MiBps", 'C', pid, 0, r.begin, 0,
           {{"write", r.write_mibps}, {"read", r.read_mibps}});
      emit("queue_depth", 'C', pid, 0, r.begin, 0, {{"qd", r.qd}});
      emit("die_util", 'C', pid, 0, r.begin, 0, {{"util", r.die_util}});
    }
    std::vector<std::string> kinds;  // track tid = index + 1
    for (const Window& w : tl.windows) {
      auto it = std::find(kinds.begin(), kinds.end(), w.kind);
      const int tid = static_cast<int>(it - kinds.begin()) + 1;
      if (it == kinds.end()) kinds.push_back(w.kind);
      emit(w.kind, 'X', pid, tid, w.t, w.dur,
           {{"a", static_cast<double>(w.a)}, {"b", static_cast<double>(w.b)}});
    }
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      name_track(pid, static_cast<int>(i) + 1, kinds[i]);
    }
  }
  out += "]}";
  return out;
}

bool WriteChromeTrace(const std::string& path, const LoadResult& loaded,
                      const QdTimeline* qd) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "ztrace: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  std::string json = ToChromeTrace(loaded, qd);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

}  // namespace zstor::ztrace
