#include "faults/fault_spec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <tuple>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace cynthia::faults {

namespace {

// What a generated fault draws, per class (FaultSchedule::generate).
/// Probability a generated fault lands on a PS instead of a worker.
constexpr double kPsFraction = 0.2;
/// Replacement provisioning + restore time assumed for generated crashes.
constexpr util::Seconds kCrashRecovery{120.0};
/// Range of a generated slowdown's CPU divisor.
constexpr double kSlowdownFactorMin = 1.5;
constexpr double kSlowdownFactorMax = 4.0;
/// Range of a generated NIC degradation's remaining fraction of line rate.
constexpr double kDegradedFractionMin = 0.1;
constexpr double kDegradedFractionMax = 0.5;
/// Range of a generated blip's outage.
constexpr util::Seconds kBlipRecoveryMin{5.0};
constexpr util::Seconds kBlipRecoveryMax{30.0};

// Fixed-precision number formatting so to_string() (and therefore digest())
// is canonical: no locale dependence, no trailing-zero drift.
std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

const char* kind_token(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kSlowdown: return "slow";
    case FaultKind::kNicDegradation: return "nic";
    case FaultKind::kTransientBlip: return "blip";
  }
  return "?";
}

[[noreturn]] void bad_spec(const std::string& item, const char* why) {
  throw std::invalid_argument("FaultSchedule: bad event \"" + item + "\": " + why);
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\n\r");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\n\r");
  return s.substr(b, e - b + 1);
}

/// Reads the number at `pos` of `item` and advances past it. Only a finite
/// value is a number here: "nan" and "inf" (and overflows to inf) would slip
/// past validate()'s range checks and act as no fault, or as a different one.
double parse_number(const std::string& item, std::size_t& pos) {
  const char* begin = item.c_str() + pos;
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin) bad_spec(item, "expected a number");
  if (!std::isfinite(v)) bad_spec(item, "expected a finite number");
  pos += static_cast<std::size_t>(end - begin);
  return v;
}

FaultSpec parse_event(const std::string& item) {
  FaultSpec spec;
  const std::size_t colon = item.find(':');
  const std::size_t at = item.find('@');
  if (colon == std::string::npos || at == std::string::npos || at < colon) {
    bad_spec(item, "expected kind:target@time");
  }
  const std::string kind = item.substr(0, colon);
  if (kind == "crash") {
    spec.kind = FaultKind::kCrash;
  } else if (kind == "slow") {
    spec.kind = FaultKind::kSlowdown;
  } else if (kind == "nic") {
    spec.kind = FaultKind::kNicDegradation;
  } else if (kind == "blip") {
    spec.kind = FaultKind::kTransientBlip;
    spec.slowdown_factor = 1e6;  // frozen node unless x<factor> overrides
  } else {
    bad_spec(item, "unknown kind (want crash|slow|nic|blip)");
  }
  const std::string target = item.substr(colon + 1, at - colon - 1);
  std::size_t digits = 0;
  if (target.rfind("wk", 0) == 0) {
    spec.on_ps = false;
    digits = 2;
  } else if (target.rfind("ps", 0) == 0) {
    spec.on_ps = true;
    digits = 2;
  } else {
    bad_spec(item, "target must be wk<i> or ps<i>");
  }
  if (target.size() <= digits ||
      target.find_first_not_of("0123456789", digits) != std::string::npos) {
    bad_spec(item, "target index must be a non-negative integer");
  }
  const char* index_end = target.data() + target.size();
  if (std::from_chars(target.data() + digits, index_end, spec.target).ec != std::errc{}) {
    bad_spec(item, "target index out of range");
  }

  std::size_t pos = at + 1;
  spec.time_seconds = parse_number(item, pos);
  bool saw_factor = false;
  bool saw_bandwidth = false;
  while (pos < item.size()) {
    const char tag = item[pos++];
    switch (tag) {
      case 'x':
        spec.slowdown_factor = parse_number(item, pos);
        saw_factor = true;
        break;
      case '=':
        spec.degraded_mbps = parse_number(item, pos);
        saw_bandwidth = true;
        break;
      case '*':
        spec.degraded_fraction = parse_number(item, pos);
        spec.degraded_mbps = 0.0;
        saw_bandwidth = true;
        break;
      case '+':
        spec.recovery_seconds = parse_number(item, pos);
        break;
      default:
        bad_spec(item, "unknown suffix (want x<factor>, =<mbps>, *<fraction>, +<recovery>)");
    }
  }
  if (saw_factor && spec.kind != FaultKind::kSlowdown && spec.kind != FaultKind::kTransientBlip) {
    bad_spec(item, "x<factor> only applies to slow/blip");
  }
  if (saw_bandwidth && spec.kind != FaultKind::kNicDegradation) {
    bad_spec(item, "=<mbps>/*<fraction> only applies to nic");
  }
  if (spec.kind == FaultKind::kTransientBlip && spec.recovery_seconds < 0.0) {
    spec.recovery_seconds = 10.0;  // a blip is transient by definition
  }
  return spec;
}

}  // namespace

const char* to_string(FaultKind kind) { return kind_token(kind); }

std::string FaultSpec::to_string() const {
  std::string s = kind_token(kind);
  s += ':';
  s += on_ps ? "ps" : "wk";
  s += std::to_string(target);
  s += '@';
  s += fmt(time_seconds);
  if (kind == FaultKind::kSlowdown || kind == FaultKind::kTransientBlip) {
    s += 'x';
    s += fmt(slowdown_factor);
  }
  if (kind == FaultKind::kNicDegradation) {
    if (degraded_mbps > 0.0) {
      s += '=';
      s += fmt(degraded_mbps);
    } else {
      s += '*';
      s += fmt(degraded_fraction);
    }
  }
  if (recovery_seconds >= 0.0) {
    s += '+';
    s += fmt(recovery_seconds);
  }
  return s;
}

FaultSchedule::FaultSchedule(std::vector<FaultSpec> events) : events_(std::move(events)) {
  sort_events();
}

void FaultSchedule::add(FaultSpec spec) {
  events_.push_back(spec);
  sort_events();
}

void FaultSchedule::sort_events() {
  std::stable_sort(events_.begin(), events_.end(), [](const FaultSpec& a, const FaultSpec& b) {
    return std::tie(a.time_seconds, a.kind, a.on_ps, a.target) <
           std::tie(b.time_seconds, b.kind, b.on_ps, b.target);
  });
}

FaultSchedule FaultSchedule::parse(const std::string& text) {
  std::vector<FaultSpec> events;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find(';', begin);
    if (end == std::string::npos) end = text.size();
    const std::string item = trim(text.substr(begin, end - begin));
    if (!item.empty()) events.push_back(parse_event(item));
    begin = end + 1;
  }
  return FaultSchedule(std::move(events));
}

FaultSchedule FaultSchedule::generate(const FaultRates& rates, double horizon_seconds,
                                      int n_workers, int n_ps, std::uint64_t seed) {
  // A non-finite horizon or rate never ends the arrival loop below.
  if (!std::isfinite(horizon_seconds) || horizon_seconds < 0.0) {
    throw std::invalid_argument("FaultSchedule::generate: horizon must be finite and >= 0");
  }
  for (const double per_hour : {rates.crash_per_hour, rates.slowdown_per_hour, rates.nic_per_hour,
                                rates.blip_per_hour}) {
    if (!std::isfinite(per_hour) || per_hour < 0.0) {
      throw std::invalid_argument("FaultSchedule::generate: rates must be finite and >= 0");
    }
  }
  if (n_workers <= 0 || n_ps <= 0) {
    throw std::invalid_argument("FaultSchedule::generate: cluster must be non-empty");
  }
  util::Rng rng(seed);
  std::vector<FaultSpec> events;

  // Poisson arrivals per class via exponential inter-arrival times, drawn in
  // a fixed class order so the stream layout is stable across versions.
  auto arrivals = [&](double per_hour, auto&& make) {
    if (per_hour <= 0.0) return;
    const double rate = per_hour / 3600.0;
    double t = 0.0;
    for (;;) {
      // Inverse-CDF exponential draw; uniform() is in [0,1) so 1-u > 0.
      t += -std::log(1.0 - rng.uniform(0.0, 1.0)) / rate;
      if (t > horizon_seconds) break;
      FaultSpec spec = make();
      spec.time_seconds = t;
      events.push_back(spec);
    }
  };
  auto pick_target = [&](FaultSpec& spec) {
    spec.on_ps = rng.chance(kPsFraction);
    spec.target =
        static_cast<int>(rng.uniform_int(0, (spec.on_ps ? n_ps : n_workers) - 1));
  };

  arrivals(rates.crash_per_hour, [&] {
    FaultSpec spec;
    spec.kind = FaultKind::kCrash;
    pick_target(spec);
    spec.recovery_seconds = kCrashRecovery.value();
    return spec;
  });
  arrivals(rates.slowdown_per_hour, [&] {
    FaultSpec spec;
    spec.kind = FaultKind::kSlowdown;
    pick_target(spec);
    spec.slowdown_factor = rng.uniform(kSlowdownFactorMin, kSlowdownFactorMax);
    spec.recovery_seconds = rates.degradation_recovery_seconds;
    return spec;
  });
  arrivals(rates.nic_per_hour, [&] {
    FaultSpec spec;
    spec.kind = FaultKind::kNicDegradation;
    pick_target(spec);
    spec.degraded_fraction = rng.uniform(kDegradedFractionMin, kDegradedFractionMax);
    spec.recovery_seconds = rates.degradation_recovery_seconds;
    return spec;
  });
  arrivals(rates.blip_per_hour, [&] {
    FaultSpec spec;
    spec.kind = FaultKind::kTransientBlip;
    pick_target(spec);
    spec.slowdown_factor = 1e6;
    spec.recovery_seconds = rng.uniform(kBlipRecoveryMin.value(), kBlipRecoveryMax.value());
    return spec;
  });

  return FaultSchedule(std::move(events));
}

void FaultSchedule::validate(int n_workers, int n_ps) const {
  // Every check is written so that NaN fails it.
  for (const FaultSpec& spec : events_) {
    const auto reject = [&spec](const char* why) {
      throw std::invalid_argument("FaultSchedule: event \"" + spec.to_string() + "\" " + why);
    };
    const int limit = spec.on_ps ? n_ps : n_workers;
    if (spec.target < 0 || spec.target >= limit) reject("targets a node outside the cluster");
    if (!(std::isfinite(spec.time_seconds) && spec.time_seconds >= 0.0)) {
      reject("needs a finite time >= 0");
    }
    if ((spec.kind == FaultKind::kSlowdown || spec.kind == FaultKind::kTransientBlip) &&
        !(std::isfinite(spec.slowdown_factor) && spec.slowdown_factor >= 1.0)) {
      reject("needs a finite slowdown factor >= 1");
    }
    if (spec.kind == FaultKind::kNicDegradation &&
        !(std::isfinite(spec.degraded_mbps) &&
          (spec.degraded_mbps > 0.0 ||
           (spec.degraded_fraction > 0.0 && spec.degraded_fraction <= 1.0)))) {
      reject("needs =mbps finite and > 0 or *fraction in (0,1]");
    }
    if (!std::isfinite(spec.recovery_seconds)) {
      reject("needs a finite recovery time (< 0 means permanent)");
    }
    if (spec.kind == FaultKind::kTransientBlip && spec.recovery_seconds < 0.0) {
      reject("— blips must recover");
    }
  }
}

std::uint64_t FaultSchedule::digest() const {
  // FNV-1a over the canonical serialization.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : to_string()) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string FaultSchedule::to_string() const {
  std::string s;
  for (const FaultSpec& spec : events_) {
    if (!s.empty()) s += ';';
    s += spec.to_string();
  }
  return s;
}

}  // namespace cynthia::faults
