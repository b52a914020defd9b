#include "fault/fault_plan.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

namespace zstor::fault {
namespace {

// Splits `text` on `sep`, invoking fn(piece) for each (empty pieces
// included so errors point at the right token).
template <typename Fn>
void Split(std::string_view text, char sep, Fn&& fn) {
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find(sep, start);
    if (end == std::string_view::npos) end = text.size();
    fn(text.substr(start, end - start));
    start = end + 1;
  }
}

bool ParseU64(std::string_view s, std::uint64_t* out) {
  if (s.empty()) return false;
  // Accept 0x-prefixed hex for seeds.
  int base = 10;
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    s.remove_prefix(2);
    base = 16;
  }
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out, base);
  return ec == std::errc() && ptr == s.data() + s.size();
}

bool ParseDouble(std::string_view s, double* out) {
  if (s.empty()) return false;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

bool ParseRate(std::string_view s, double* out) {
  return ParseDouble(s, out) && *out >= 0.0 && *out <= 1.0;
}

bool ParseKind(std::string_view s, FaultKind* out) {
  if (s == "read_c") *out = FaultKind::kReadCorrectable;
  else if (s == "read_uc") *out = FaultKind::kReadUncorrectable;
  else if (s == "prog") *out = FaultKind::kProgramFail;
  else return false;
  return true;
}

bool ParseSite(std::string_view s, std::uint32_t* out) {
  if (s == "*") {
    *out = kAnySite;
    return true;
  }
  std::uint64_t v = 0;
  if (!ParseU64(s, &v) || v >= kAnySite) return false;
  *out = static_cast<std::uint32_t>(v);
  return true;
}

// sched=US:KIND:DIE:BLOCK
bool ParseScheduled(std::string_view s, ScheduledFault* out) {
  std::vector<std::string_view> parts;
  Split(s, ':', [&](std::string_view p) { parts.push_back(p); });
  if (parts.size() != 4) return false;
  double us = 0.0;
  if (!ParseDouble(parts[0], &us) || us < 0.0) return false;
  out->at = sim::Microseconds(us);
  return ParseKind(parts[1], &out->kind) && ParseSite(parts[2], &out->die) &&
         ParseSite(parts[3], &out->block);
}

}  // namespace

bool ParseFaultSpec(std::string_view text, FaultSpec* out,
                    std::string* error) {
  FaultSpec spec;
  spec.enabled = true;
  bool ok = true;
  auto fail = [&](std::string_view token, const char* why) {
    if (ok && error != nullptr) {
      *error = "bad --faults token '" + std::string(token) + "': " + why;
    }
    ok = false;
  };
  Split(text, ',', [&](std::string_view kv) {
    if (kv.empty()) return;  // tolerate trailing/duplicate commas
    std::size_t eq = kv.find('=');
    if (eq == std::string_view::npos) {
      fail(kv, "expected key=value");
      return;
    }
    std::string_view key = kv.substr(0, eq);
    std::string_view val = kv.substr(eq + 1);
    std::uint64_t u = 0;
    double d = 0.0;
    if (key == "seed") {
      if (!ParseU64(val, &spec.seed)) fail(kv, "seed must be an integer");
    } else if (key == "read_c") {
      if (!ParseRate(val, &spec.read_correctable_rate)) {
        fail(kv, "rate must be in [0,1]");
      }
    } else if (key == "read_uc") {
      if (!ParseRate(val, &spec.read_uncorrectable_rate)) {
        fail(kv, "rate must be in [0,1]");
      }
    } else if (key == "prog") {
      if (!ParseRate(val, &spec.program_fail_rate)) {
        fail(kv, "rate must be in [0,1]");
      }
    } else if (key == "retries") {
      if (!ParseU64(val, &u) || u == 0 || u > 64) {
        fail(kv, "retries must be in [1,64]");
      } else {
        spec.max_read_retries = static_cast<std::uint32_t>(u);
      }
    } else if (key == "retry_us") {
      if (!ParseDouble(val, &d) || d < 0.0) {
        fail(kv, "retry_us must be a non-negative number");
      } else {
        spec.read_retry_penalty = sim::Microseconds(d);
      }
    } else if (key == "wear_pe") {
      if (!ParseU64(val, &u) || u > 0xFFFF'FFFFull) {
        fail(kv, "wear_pe must be a 32-bit integer");
      } else {
        spec.wear_threshold_pe = static_cast<std::uint32_t>(u);
      }
    } else if (key == "wear_slope") {
      if (!ParseRate(val, &spec.wear_rber_slope)) {
        fail(kv, "rate must be in [0,1]");
      }
    } else if (key == "sched") {
      ScheduledFault sf;
      if (!ParseScheduled(val, &sf)) {
        fail(kv, "expected US:KIND:DIE:BLOCK with KIND in "
                 "{read_c,read_uc,prog} and DIE/BLOCK numeric or '*'");
      } else {
        spec.scheduled.push_back(sf);
      }
    } else if (key == "crash") {
      if (!ParseDouble(val, &d) || d < 0.0) {
        fail(kv, "crash must be a non-negative virtual time (microseconds)");
      } else {
        spec.crashes.push_back(sim::Microseconds(d));
      }
    } else {
      fail(kv, "unknown key");
    }
  });
  // Devices arm crashes in order; keep the canonical form sorted so the
  // spec string round-trips regardless of how the user ordered the keys.
  std::sort(spec.crashes.begin(), spec.crashes.end());
  if (ok) *out = spec;
  return ok;
}

std::string FormatFaultSpec(const FaultSpec& spec) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "seed=%llu,read_c=%g,read_uc=%g,prog=%g,retries=%u,"
                "retry_us=%g,wear_pe=%u,wear_slope=%g",
                static_cast<unsigned long long>(spec.seed),
                spec.read_correctable_rate, spec.read_uncorrectable_rate,
                spec.program_fail_rate, spec.max_read_retries,
                sim::ToMicroseconds(spec.read_retry_penalty),
                spec.wear_threshold_pe, spec.wear_rber_slope);
  std::string out = buf;
  for (const ScheduledFault& sf : spec.scheduled) {
    out += ",sched=";
    std::snprintf(buf, sizeof(buf), "%g:", sim::ToMicroseconds(sf.at));
    out += buf;
    out += ToString(sf.kind);
    auto site = [&](std::uint32_t v) {
      if (v == kAnySite) {
        out += ":*";
      } else {
        std::snprintf(buf, sizeof(buf), ":%u", v);
        out += buf;
      }
    };
    site(sf.die);
    site(sf.block);
  }
  for (sim::Time t : spec.crashes) {
    std::snprintf(buf, sizeof(buf), ",crash=%g", sim::ToMicroseconds(t));
    out += buf;
  }
  return out;
}

FaultPlan::FaultPlan(FaultSpec spec)
    : spec_(std::move(spec)),
      armed_(spec_.scheduled.size(), 1),
      rng_(spec_.seed) {}

double FaultPlan::WearBoost(std::uint32_t pe_cycles) {
  if (spec_.wear_threshold_pe == 0 || pe_cycles <= spec_.wear_threshold_pe) {
    return 0.0;
  }
  counters_.wear_boosted_ops++;
  return spec_.wear_rber_slope *
         static_cast<double>(pe_cycles - spec_.wear_threshold_pe);
}

bool FaultPlan::TakeScheduled(sim::Time now, std::uint32_t die,
                              std::uint32_t block, FaultKind a, FaultKind b,
                              FaultKind* fired) {
  for (std::size_t i = 0; i < spec_.scheduled.size(); ++i) {
    if (!armed_[i]) continue;
    const ScheduledFault& sf = spec_.scheduled[i];
    if (sf.kind != a && sf.kind != b) continue;
    if (now < sf.at) continue;
    if (sf.die != kAnySite && sf.die != die) continue;
    if (sf.block != kAnySite && sf.block != block) continue;
    armed_[i] = 0;
    counters_.scheduled_fired++;
    *fired = sf.kind;
    return true;
  }
  return false;
}

ReadVerdict FaultPlan::OnRead(sim::Time now, std::uint32_t die,
                              std::uint32_t block, std::uint32_t pe_cycles) {
  ReadVerdict v;
  if (!spec_.enabled) return v;
  FaultKind fired = FaultKind::kReadCorrectable;
  if (TakeScheduled(now, die, block, FaultKind::kReadCorrectable,
                    FaultKind::kReadUncorrectable, &fired)) {
    // Scheduled faults are deterministic: charge the full retry budget.
    v.retry_steps = spec_.max_read_retries;
    v.uncorrectable = fired == FaultKind::kReadUncorrectable;
  } else {
    const double boost = WearBoost(pe_cycles);
    const double p_uc =
        std::min(1.0, spec_.read_uncorrectable_rate + boost / 16.0);
    const double p_c = std::min(1.0, spec_.read_correctable_rate + boost);
    // Zero-rate sites stay free of randomness (see OnProgram).
    const double u = (p_uc + p_c > 0.0) ? rng_.UniformDouble() : 1.0;
    if (u < p_uc) {
      v.retry_steps = spec_.max_read_retries;
      v.uncorrectable = true;
    } else if (u < p_uc + p_c) {
      // 1..budget voltage steps until the read corrects.
      v.retry_steps = 1 + static_cast<std::uint32_t>(
                              rng_.UniformU64(spec_.max_read_retries));
    }
  }
  if (v.uncorrectable) {
    counters_.uncorrectable_read_errors++;
  } else if (v.retry_steps > 0) {
    counters_.correctable_read_errors++;
  }
  counters_.read_retry_steps += v.retry_steps;
  return v;
}

ProgramVerdict FaultPlan::OnProgram(sim::Time now, std::uint32_t die,
                                    std::uint32_t block,
                                    std::uint32_t pe_cycles) {
  ProgramVerdict v;
  if (!spec_.enabled) return v;
  FaultKind fired = FaultKind::kProgramFail;
  if (TakeScheduled(now, die, block, FaultKind::kProgramFail,
                    FaultKind::kProgramFail, &fired)) {
    v.fail = true;
  } else {
    const double p =
        std::min(1.0, spec_.program_fail_rate + WearBoost(pe_cycles));
    // Zero-rate sites must not consume randomness: a plan with only read
    // faults configured renders the same read stream whether or not a
    // program site exists.
    if (p > 0.0) v.fail = rng_.UniformDouble() < p;
  }
  if (v.fail) counters_.program_failures++;
  return v;
}

}  // namespace zstor::fault
