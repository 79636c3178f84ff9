#include "cloud/spot.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/check.hpp"

namespace cynthia::cloud {

SpotMarket::SpotMarket(const Catalog& catalog, std::uint64_t seed, SpotTraceOptions options)
    : catalog_(&catalog), seed_(seed), options_(options) {
  if (options_.step_seconds.value() <= 0.0) {
    throw std::invalid_argument("SpotMarket: step_seconds must be > 0");
  }
  if (options_.mean_discount <= 0.0 || options_.mean_discount > 1.0) {
    throw std::invalid_argument("SpotMarket: mean_discount must be in (0, 1]");
  }
}

SpotMarket::Trace& SpotMarket::trace_for(const std::string& type) const {
  auto it = traces_.find(type);
  if (it == traces_.end()) {
    Trace t;
    t.on_demand = catalog_->at(type).price.value();
    // Per-type seed so traces are independent but reproducible.
    std::uint64_t h = seed_;
    for (char c : type) h = h * 1099511628211ull + static_cast<unsigned char>(c);
    t.rng.seed(h);
    it = traces_.emplace(type, std::move(t)).first;
  }
  return it->second;
}

void SpotMarket::extend(Trace& trace, std::size_t steps_needed) const {
  const double mean = trace.on_demand * options_.mean_discount;
  while (trace.steps.size() < steps_needed) {
    // Mean-reverting multiplicative walk plus a decaying spike process.
    const double noise = trace.rng.normal(0.0, options_.volatility);
    trace.level += options_.reversion * (1.0 - trace.level) + noise;
    trace.level = std::clamp(trace.level, 0.4, 2.0);
    if (trace.rng.chance(options_.spike_probability)) {
      trace.spike_pressure = options_.spike_multiplier;
    } else {
      trace.spike_pressure *= (1.0 - options_.spike_decay);
    }
    double price = mean * (trace.level + trace.spike_pressure);
    // Spot never exceeds on-demand by much (users would switch).
    price = std::min(price, trace.on_demand * 1.2);
    CYNTHIA_CHECK(price > 0.0 && price <= trace.on_demand * 1.2,
                  "spot price out of bounds: $", price, "/h vs on-demand $", trace.on_demand);
    trace.steps.push_back(price);
  }
}

double SpotMarket::price_at(const std::string& type, double t) const {
  if (t < 0.0) throw std::invalid_argument("SpotMarket: negative time");
  Trace& trace = trace_for(type);
  const auto idx = static_cast<std::size_t>(t / options_.step_seconds.value());
  extend(trace, idx + 1);
  return trace.steps[idx];
}

util::Dollars SpotMarket::cost(const std::string& type, double t0, double t1) const {
  if (t1 < t0 || t0 < 0.0) throw std::invalid_argument("SpotMarket: bad interval");
  if (t1 == t0) return util::Dollars{0.0};
  Trace& trace = trace_for(type);
  const double step = options_.step_seconds.value();
  const auto last = static_cast<std::size_t>((t1 - 1e-9) / step);
  extend(trace, last + 1);
  double dollars = 0.0;
  for (auto i = static_cast<std::size_t>(t0 / step); i <= last; ++i) {
    const double lo = std::max(t0, static_cast<double>(i) * step);
    const double hi = std::min(t1, static_cast<double>(i + 1) * step);
    if (hi > lo) dollars += (util::DollarsPerHour{trace.steps[i]} * util::Seconds{hi - lo}).value();
  }
  return util::Dollars{dollars};
}

std::vector<HeldWindow> SpotMarket::held_windows(const std::string& type, double bid,
                                                 double t0, double t1) const {
  if (!(t0 >= 0.0) || !std::isfinite(t1)) throw std::invalid_argument("SpotMarket: bad walk");
  Trace& trace = trace_for(type);
  const double step = options_.step_seconds.value();
  std::vector<HeldWindow> out;
  if (t1 <= t0) return out;
  extend(trace, static_cast<std::size_t>(t1 / step) + 1);
  bool held = false;
  for (auto i = static_cast<std::size_t>(t0 / step);; ++i) {
    const double at = std::max(t0, static_cast<double>(i) * step);
    if (at >= t1) break;
    if ((trace.steps[i] <= bid) == held) continue;
    held = !held;
    if (held) {
      out.push_back({at, t1, false});
    } else {
      out.back().end = at;
      out.back().revoked = true;
    }
  }
  return out;
}

double SpotMarket::mean_price(const std::string& type) const {
  return catalog_->at(type).price.value() * options_.mean_discount;
}

}  // namespace cynthia::cloud
