#include "harness/bench_flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

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

/// Parses a non-negative decimal int. Returns false on garbage, a sign,
/// or a value that does not fit an int.
bool ParseCount(const char* s, int* out) {
  char* end = nullptr;
  errno = 0;
  long n = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || n < 0 ||
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
    if (!sink_->ok()) {
      std::fprintf(stderr, "warning: cannot open trace file %s\n",
                   trace_path_.c_str());
    }
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
  snapshots_.emplace_back(std::move(label), std::move(snap));
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
    std::FILE* f = std::fopen(metrics_path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot open metrics file %s\n",
                   metrics_path_.c_str());
    } else {
      std::fputs("[\n", f);
      for (std::size_t i = 0; i < snapshots_.size(); ++i) {
        // Labels are usually identifiers, but WithLabel() accepts
        // anything — escape.
        std::fprintf(f, "  {\"label\": %s, \"metrics\": %s}%s\n",
                     telemetry::JsonQuoted(snapshots_[i].first).c_str(),
                     snapshots_[i].second.ToJson().c_str(),
                     i + 1 < snapshots_.size() ? "," : "");
      }
      std::fputs("]\n", f);
      std::fclose(f);
    }
  }
  if (!logpages_path_.empty()) {
    std::FILE* f = std::fopen(logpages_path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot open logpages file %s\n",
                   logpages_path_.c_str());
    } else {
      std::fputs("[\n", f);
      for (std::size_t i = 0; i < logpages_.size(); ++i) {
        std::fprintf(f, "  {\"label\": %s, \"logpages\": %s}%s\n",
                     telemetry::JsonQuoted(logpages_[i].first).c_str(),
                     logpages_[i].second.c_str(),
                     i + 1 < logpages_.size() ? "," : "");
      }
      std::fputs("]\n", f);
      std::fclose(f);
    }
  }
  if (!json_path_.empty()) {
    results_.WriteFile(json_path_);
  }
  if (sink_ != nullptr) sink_->Flush();
  if (timeline_ != nullptr) timeline_->Flush();
}

void FinishBench() { BenchEnv::Get().Finish(); }

void InitBench(int& argc, char** argv) {
  // Construct the singleton BEFORE registering the atexit hook: local
  // statics are destroyed in reverse construction order interleaved with
  // atexit handlers, so the hook must be the later registration or it
  // would run against an already-destroyed BenchEnv.
  BenchEnv& env = BenchEnv::Get();
  static bool registered = false;
  if (!registered) {
    registered = true;
    std::atexit(FinishBench);
  }
  if (!env.wall_start_set_) {
    env.wall_start_ = std::chrono::steady_clock::now();
    env.wall_start_set_ = true;
  }
  if (env.results_.bench().empty() && argc > 0) {
    env.results_.set_bench(Basename(argv[0]));
  }
  int out = 1;
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
      if (!ParseCount(jb, &env.jobs_)) {
        std::fprintf(stderr, "error: bad --jobs value: %s\n", jb);
        std::exit(2);
      }
    } else if (const char* st = MatchFlag(argv[i], "--sim-threads")) {
      if (!ParseCount(st, &env.sim_threads_)) {
        std::fprintf(stderr, "error: bad --sim-threads value: %s\n", st);
        std::exit(2);
      }
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  argv[argc] = nullptr;
}

}  // namespace zstor::harness
