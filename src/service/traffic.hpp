// Seeded synthetic traffic for the multi-tenant provisioning service.
//
// Generates a deterministic stream of JobRequests from an inhomogeneous
// Poisson arrival process with a diurnal (sinusoidal, 24 h period) rate
// profile, a tenant mix over the workload zoo, per-workload goal menus
// calibrated to be plannable (the tight ends of the Tg ranges force large
// fleets, the loose ends small ones), and a priority-class distribution.
// Same options -> byte-identical request vector, independent of anything
// else in the process (one private Rng, drawn in a fixed order).
//
// The grammar accepted by parse() (docs/SERVICE.md):
//   [poisson:]key=value[,key=value...]
// with keys jobs, horizon (s|m|h suffix), diurnal (amplitude in [0,1]),
// peak (hour of day), seed, tenants, patience (s|m|h; 0 = infinite),
// production/batch (class fractions), mix (name:weight[+name:weight...]).
// Example: "poisson:jobs=1000,horizon=24h,diurnal=0.6,mix=mnist:6+cifar10:4".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/job.hpp"
#include "util/units.hpp"

namespace cynthia::service {

/// One workload's share of the tenant mix and the goal menu its jobs draw
/// from. Defaults (see traffic.cpp) are calibrated so every drawn goal has
/// a feasible plan on the stock catalog.
struct WorkloadShare {
  std::string workload;
  double weight = 1.0;
  std::vector<double> loss_choices;   ///< l_g drawn uniformly from these
  double tg_minutes_lo = 30.0;        ///< Tg drawn uniformly in [lo, hi]
  double tg_minutes_hi = 240.0;
};

struct TrafficOptions {
  long jobs = 1000;
  util::Seconds horizon = util::hours(24.0);  ///< arrival window (rate shaping)
  /// Relative amplitude of the diurnal rate curve in [0, 1): 0 = flat
  /// Poisson, 0.6 = peak rate is 4x the trough rate.
  double diurnal_amplitude = 0.5;
  double peak_hour = 14.0;  ///< local hour of the rate maximum
  std::uint64_t seed = 1;
  int tenants = 64;
  /// Patience every job is submitted with; 0 waits forever.
  util::Seconds patience{0.0};
  double production_fraction = 0.2;
  double batch_fraction = 0.3;  ///< remainder is Priority::kStandard
  /// Tenant mix; empty = the calibrated default zoo mix.
  std::vector<WorkloadShare> mix;

  /// Parses the grammar above, each value as a whole token, then
  /// validate()s; throws std::invalid_argument naming the key on bad input.
  static TrafficOptions parse(const std::string& spec);

  /// Throws std::invalid_argument unless every field is in its domain: jobs
  /// >= 1, a finite positive horizon, a diurnal amplitude in [0, 1), finite
  /// reals, tenants >= 1, patience >= 0, class fractions >= 0 summing to
  /// <= 1 and positive mix weights. Call it again after overriding fields.
  void validate() const;
};

/// The calibrated default mix (mnist-heavy, with cifar10/vgg19/resnet32
/// long-job tails) used whenever TrafficOptions::mix is empty.
const std::vector<WorkloadShare>& default_workload_mix();

class TrafficGenerator {
 public:
  explicit TrafficGenerator(TrafficOptions options);

  /// The full request stream, arrival-ordered, ids 0..jobs-1. Deterministic
  /// in the options (thinning over one Rng, fixed draw order per job).
  [[nodiscard]] std::vector<JobRequest> generate() const;

  [[nodiscard]] const TrafficOptions& options() const { return options_; }

 private:
  TrafficOptions options_;
};

}  // namespace cynthia::service
