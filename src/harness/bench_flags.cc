#include "harness/bench_flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include <sys/stat.h>
#include <unistd.h>

#include "telemetry/json.h"

namespace zstor::harness {

namespace {

/// Returns the value if `arg` is "--NAME=VALUE", else nullptr.
const char* MatchFlag(const char* arg, const char* name) {
  std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') return arg + n + 1;
  return nullptr;
}

/// argv[0] without directories: the bench's name for the results file.
std::string Basename(const char* argv0) {
  if (argv0 == nullptr) return "bench";
  const char* slash = std::strrchr(argv0, '/');
  return slash != nullptr ? slash + 1 : argv0;
}

/// Parses a decimal int of at least `min`. Returns false on garbage, a
/// sign, or a value below `min` or beyond an int.
bool ParseCount(const char* s, int min, int* out) {
  char* end = nullptr;
  errno = 0;
  long n = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || n < min ||
      n > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(n);
  return true;
}

/// Parses "100ms" / "2s" / "500us" / "1500ns"; a bare number means
/// milliseconds. Returns false on garbage or a duration that is not
/// positive or does not fit sim::Time.
bool ParseDuration(const char* s, sim::Time* out) {
  char* end = nullptr;
  double v = std::strtod(s, &end);
  if (end == s || v <= 0) return false;
  double scale;
  if (std::strcmp(end, "ns") == 0) {
    scale = 1.0;
  } else if (std::strcmp(end, "us") == 0) {
    scale = 1e3;
  } else if (std::strcmp(end, "ms") == 0 || *end == '\0') {
    scale = 1e6;
  } else if (std::strcmp(end, "s") == 0) {
    scale = 1e9;
  } else {
    return false;
  }
  // Time's max rounds up to 2^64 as a double, so `<` keeps the cast
  // defined; the negated test also rejects NaN.
  const double ns = v * scale;
  if (!(ns < static_cast<double>(std::numeric_limits<sim::Time>::max()))) {
    return false;
  }
  *out = static_cast<sim::Time>(ns);
  return *out > 0;
}

/// True if `path` names a writable non-directory, or a file that can be
/// created in a writable directory.
bool CanWrite(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) == 0) {
    return !S_ISDIR(st.st_mode) && ::access(path.c_str(), W_OK) == 0;
  }
  if (errno != ENOENT) return false;
  const std::size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  return ::access(dir.c_str(), W_OK | X_OK) == 0;
}

/// Writes `[{"label": L, "<key>": V}, ...]`, one entry per line: the
/// --metrics and --logpages documents. Labels are usually identifiers,
/// but WithLabel() accepts anything, so they are escaped.
void WriteLabeledArray(
    const std::string& path, const char* key,
    const std::vector<std::pair<std::string, std::string>>& entries) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot open %s file %s\n", key,
                 path.c_str());
    return;
  }
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    std::fprintf(f, "  {\"label\": %s, \"%s\": %s}%s\n",
                 telemetry::JsonQuoted(entries[i].first).c_str(), key,
                 entries[i].second.c_str(),
                 i + 1 < entries.size() ? "," : "");
  }
  std::fputs("]\n", f);
  std::fclose(f);
}

}  // namespace

BenchEnv& BenchEnv::Get() {
  static BenchEnv env;
  return env;
}

ResultWriter& Results() { return BenchEnv::Get().results(); }

telemetry::TraceSink* BenchEnv::shared_sink() {
  if (trace_path_.empty()) return nullptr;
  if (sink_ == nullptr) {
    sink_ = std::make_unique<telemetry::JsonlFileSink>(trace_path_);
  }
  return sink_.get();
}

telemetry::TimelineWriter* BenchEnv::shared_timeline() {
  if (timeline_path_.empty()) return nullptr;
  if (timeline_ == nullptr) {
    timeline_ = std::make_unique<telemetry::TimelineWriter>(timeline_path_);
    timeline_->set_die_merge_gap_ns(
        telemetry::TimelineWriter::DefaultMergeGap(sample_interval_));
  }
  return timeline_.get();
}

void BenchEnv::AddSnapshot(std::string label, telemetry::Snapshot snap) {
  metrics_.emplace_back(std::move(label), snap.ToJson());
}

void BenchEnv::AddLogPages(std::string label, std::string logpages_json) {
  logpages_.emplace_back(std::move(label), std::move(logpages_json));
}

std::string BenchEnv::NextLabel() {
  return "testbed-" + std::to_string(label_seq_++);
}

std::string BenchEnv::UniqueTimelineLabel(const std::string& base) {
  int n = ++timeline_label_uses_[base];
  return n == 1 ? base : base + "#" + std::to_string(n);
}

void BenchEnv::Finish() {
  if (finished_) return;
  finished_ = true;
  if (wall_start_set_) {
    // Self-timed real elapsed ms since InitBench: the raw material for
    // CI's multi-device speedup gate, which compares "meta.wall_ms" of a
    // --sim-threads=1 and a =4 run. Identity checks normalize it away.
    std::chrono::duration<double, std::milli> wall =
        std::chrono::steady_clock::now() - wall_start_;
    results_.SetMeta("wall_ms", wall.count());
  }
  if (!metrics_path_.empty()) {
    WriteLabeledArray(metrics_path_, "metrics", metrics_);
  }
  if (!logpages_path_.empty()) {
    WriteLabeledArray(logpages_path_, "logpages", logpages_);
  }
  if (!json_path_.empty()) {
    results_.WriteFile(json_path_);
  }
  // Opened here if no testbed did, so every requested output exists
  // after a run.
  if (telemetry::TraceSink* sink = shared_sink()) sink->Flush();
  if (telemetry::TimelineWriter* timeline = shared_timeline()) {
    timeline->Flush();
  }
}

void FinishBench() { BenchEnv::Get().Finish(); }

void InitBench(int argc, char** argv, std::initializer_list<CountFlag> own) {
  BenchEnv& env = BenchEnv::Get();
  if (!env.wall_start_set_) {
    env.wall_start_ = std::chrono::steady_clock::now();
    env.wall_start_set_ = true;
  }
  if (env.results_.bench().empty() && argc > 0) {
    env.results_.set_bench(Basename(argv[0]));
  }
  for (int i = 1; i < argc; ++i) {
    if (const char* v = MatchFlag(argv[i], "--trace")) {
      env.trace_path_ = v;
    } else if (const char* m = MatchFlag(argv[i], "--metrics")) {
      env.metrics_path_ = m;
    } else if (const char* j = MatchFlag(argv[i], "--json")) {
      env.json_path_ = j;
    } else if (const char* lp = MatchFlag(argv[i], "--logpages")) {
      env.logpages_path_ = lp;
    } else if (const char* tl = MatchFlag(argv[i], "--timeline")) {
      env.timeline_path_ = tl;
    } else if (const char* si = MatchFlag(argv[i], "--sample-interval")) {
      if (!ParseDuration(si, &env.sample_interval_)) {
        std::fprintf(stderr, "error: bad --sample-interval value: %s\n", si);
        std::exit(2);
      }
    } else if (const char* fs = MatchFlag(argv[i], "--faults")) {
      std::string error;
      if (!fault::ParseFaultSpec(fs, &env.fault_spec_, &error)) {
        std::fprintf(stderr, "error: bad --faults spec: %s\n",
                     error.c_str());
        std::exit(2);
      }
    } else if (const char* jb = MatchFlag(argv[i], "--jobs")) {
      if (!ParseCount(jb, 0, &env.jobs_)) {
        std::fprintf(stderr, "error: bad --jobs value: %s\n", jb);
        std::exit(2);
      }
    } else if (const char* st = MatchFlag(argv[i], "--sim-threads")) {
      if (!ParseCount(st, 0, &env.sim_threads_)) {
        std::fprintf(stderr, "error: bad --sim-threads value: %s\n", st);
        std::exit(2);
      }
    } else {
      bool known = false;
      for (const CountFlag& f : own) {
        const char* n = MatchFlag(argv[i], f.name);
        if (n == nullptr) continue;
        if (!ParseCount(n, 1, f.value)) {
          std::fprintf(stderr, "error: bad %s value: %s\n", f.name, n);
          std::exit(2);
        }
        known = true;
        break;
      }
      if (!known) {
        std::fprintf(stderr, "error: unknown argument: %s\n", argv[i]);
        std::exit(2);
      }
    }
  }
  // An output that cannot be written fails like a bad flag value, before
  // anything is simulated. The check opens nothing: each output is
  // opened once, by its writer, so a FIFO's reader sees one stream and
  // no early EOF.
  for (const std::string* path :
       {&env.trace_path_, &env.metrics_path_, &env.json_path_,
        &env.logpages_path_, &env.timeline_path_}) {
    if (path->empty()) continue;
    if (!CanWrite(*path)) {
      std::fprintf(stderr, "error: cannot open output file %s\n",
                   path->c_str());
      std::exit(2);
    }
  }
  // Registered after the checks above, so an exit 2 writes nothing, and
  // after constructing the singleton: local statics are destroyed in
  // reverse construction order interleaved with atexit handlers, so the
  // hook must be the later registration or it would run against an
  // already-destroyed BenchEnv.
  static bool registered = false;
  if (!registered) {
    registered = true;
    std::atexit(FinishBench);
  }
}

}  // namespace zstor::harness
