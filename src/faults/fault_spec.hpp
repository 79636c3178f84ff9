// Deterministic fault model: what can break, when, and how badly.
//
// A FaultSpec is one event on the cluster timeline — a node crash, a CPU
// slowdown, a NIC degradation, or a transient blip — aimed at one worker or
// parameter server. A FaultSchedule is the ordered list of such events for a
// run, either written out explicitly in a compact grammar (see docs/FAULTS.md)
// or generated from per-class Poisson rates under a seed. Same seed, same
// rates, same horizon → bit-identical schedule; the digest() below is what
// the determinism tests compare.
//
// The model layer is deliberately passive: it knows nothing about the fluid
// simulator or the trainer. ddnn::Trainer turns a schedule into simulator
// events and owns the semantics of surviving them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cynthia::faults {

enum class FaultKind {
  kCrash,           // node disappears; optional recovery = replacement Ready
  kSlowdown,        // CPU capability divided by slowdown_factor
  kNicDegradation,  // NIC bandwidth drops to degraded_mbps (or base * fraction)
  kTransientBlip,   // node freezes (CPU and NIC throttled) then self-heals
};

[[nodiscard]] const char* to_string(FaultKind kind);

/// One fault event. `target` indexes into the worker list (on_ps == false)
/// or the PS list (on_ps == true) of the cluster the schedule is applied to.
struct FaultSpec {
  FaultKind kind = FaultKind::kCrash;
  bool on_ps = false;
  int target = 0;
  double time_seconds = 0.0;
  /// kSlowdown / kTransientBlip: CPU (and, for blips, NIC) divided by this.
  double slowdown_factor = 2.0;
  /// kNicDegradation: absolute new bandwidth; <= 0 means use the fraction.
  double degraded_mbps = 0.0;
  /// kNicDegradation fallback: new bandwidth = base * degraded_fraction.
  double degraded_fraction = 0.5;
  /// Seconds after time_seconds at which the fault heals (crash: replacement
  /// node Ready + checkpoint restored). < 0 means permanent.
  double recovery_seconds = -1.0;

  [[nodiscard]] std::string to_string() const;
  bool operator==(const FaultSpec&) const = default;
};

/// Per-class Poisson rates (cluster-wide, events per hour) for generated
/// schedules, plus the parameter distributions each class draws from.
struct FaultRates {
  double crash_per_hour = 0.0;
  double slowdown_per_hour = 0.0;
  double nic_per_hour = 0.0;
  double blip_per_hour = 0.0;
  /// Probability a generated fault lands on a PS instead of a worker.
  double ps_fraction = 0.2;
  /// Replacement provisioning + restore time assumed for generated crashes.
  double crash_recovery_seconds = 120.0;
  double slowdown_factor_min = 1.5;
  double slowdown_factor_max = 4.0;
  /// Generated slowdowns / NIC degradations heal after this long; < 0 = permanent.
  double degradation_recovery_seconds = 300.0;
  double degraded_fraction_min = 0.1;
  double degraded_fraction_max = 0.5;
  double blip_recovery_seconds_min = 5.0;
  double blip_recovery_seconds_max = 30.0;
};

/// Ordered fault timeline (sorted by time, stable tie-break on kind/target).
class FaultSchedule {
 public:
  FaultSchedule() = default;
  explicit FaultSchedule(std::vector<FaultSpec> events);

  /// Parses the `;`-separated grammar `kind:target@time[xK][=mbps][*frac][+rec]`,
  /// e.g. "crash:wk1@40+90;slow:wk0@20x2;nic:ps0@60=40;blip:wk2@80+10".
  /// Throws std::invalid_argument on malformed input.
  static FaultSchedule parse(const std::string& text);

  /// Draws Poisson arrivals per fault class over [0, horizon_seconds] with
  /// one util::Rng(seed); same inputs produce a bit-identical schedule.
  /// Throws std::invalid_argument for a horizon or a *_per_hour rate that is
  /// negative or not finite.
  static FaultSchedule generate(const FaultRates& rates, double horizon_seconds,
                                int n_workers, int n_ps, std::uint64_t seed);

  void add(FaultSpec spec);

  [[nodiscard]] const std::vector<FaultSpec>& events() const { return events_; }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  /// Throws std::invalid_argument if any event targets a node outside the
  /// given cluster shape or carries out-of-domain parameters.
  void validate(int n_workers, int n_ps) const;

  /// FNV-1a over the canonical serialization — the determinism fingerprint.
  [[nodiscard]] std::uint64_t digest() const;

  /// Canonical `;`-joined grammar form; parse(to_string()) round-trips.
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<FaultSpec> events_;

  void sort_events();
};

}  // namespace cynthia::faults
