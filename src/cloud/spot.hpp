// Spot-market simulation (the Proteus [13] / FC2 [27] related-work setting).
//
// EC2 spot instances trade a ~60-70% discount for revocation risk: the
// instance is reclaimed whenever the market price rises above the user's
// bid. This module provides per-instance-type price traces as a
// mean-reverting random walk with occasional demand spikes, plus the two
// queries planning and execution need: "what does running over [t0, t1)
// cost?" and "over which windows does my bid hold?".
#pragma once

#include <map>
#include <string>
#include <vector>

#include "cloud/instance.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace cynthia::cloud {

/// One stretch of capacity held at a bid: acquired at `start` (the price is
/// at or below the bid), lost at `end`.
struct HeldWindow {
  double start = 0.0;
  double end = 0.0;      ///< revocation time, or the walk's end when censored
  bool revoked = false;  ///< false: the bid still held when the walk ended
};

struct SpotTraceOptions {
  double mean_discount = 0.35;   ///< long-run spot price as a fraction of on-demand
  double volatility = 0.08;      ///< per-step relative noise
  double reversion = 0.15;       ///< pull toward the mean per step
  double spike_probability = 0.01;  ///< per-step chance of a demand spike
  double spike_multiplier = 3.5;    ///< spike height relative to the mean
  double spike_decay = 0.45;        ///< per-step decay of spike pressure
  util::Seconds step_seconds{300.0};  ///< price granularity (EC2 repriced in minutes)
};

/// Deterministic (seeded) spot price process per instance type.
class SpotMarket {
 public:
  explicit SpotMarket(const Catalog& catalog = Catalog::aws(), std::uint64_t seed = 7,
                      SpotTraceOptions options = {});

  /// Instance spot price ($/h) at absolute time t (seconds).
  [[nodiscard]] double price_at(const std::string& type, double t) const;

  /// Integral of the spot price over [t0, t1), i.e. the per-second-billed
  /// cost of one instance held through that window.
  [[nodiscard]] util::Dollars cost(const std::string& type, double t0, double t1) const;

  /// The one walk over the price trace: every window in [t0, t1) during
  /// which an instance bought at `bid` ($/h) is held, in time order. A window
  /// opens at the first step whose price is <= bid and closes (revoked) at the
  /// first later step whose price strictly exceeds it; the last window is
  /// censored at t1 when the bid still holds there. Consecutive windows are
  /// separated by the outage the market imposes between them.
  [[nodiscard]] std::vector<HeldWindow> held_windows(const std::string& type, double bid,
                                                     double t0, double t1) const;

  /// Long-run mean spot price for the type.
  [[nodiscard]] double mean_price(const std::string& type) const;

  [[nodiscard]] const SpotTraceOptions& options() const { return options_; }

 private:
  struct Trace {
    double on_demand = 0.0;
    double spike_pressure = 0.0;  // generator state
    double level = 1.0;           // relative to mean
    util::Rng rng{0};
    std::vector<double> steps;  // price per step, $/h
  };

  const Catalog* catalog_;
  std::uint64_t seed_;
  SpotTraceOptions options_;
  // Ordered map, deliberately: any future iteration over the per-type
  // traces (export, aggregate stats) must see a deterministic order, and
  // each Trace carries its own name-seeded Rng, so trace contents are
  // independent of lookup/creation order either way.
  mutable std::map<std::string, Trace> traces_;

  Trace& trace_for(const std::string& type) const;
  void extend(Trace& trace, std::size_t steps_needed) const;
};

}  // namespace cynthia::cloud
