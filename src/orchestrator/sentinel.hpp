// SLO sentinel: online straggler/degradation detection and mitigation.
//
// The paper provisions a cluster once, up front, from profiled models
// (Algorithm 1). A real cloud degrades under the job: a worker's CPU is
// throttled, a NIC drops to a fraction of line rate, a PS shard saturates.
// The sentinel closes that loop online; the job executor (executor.hpp) runs
// it under the Sentinel policy:
//   * detect  — a fresh StragglerDetector rides inside each training
//     segment's run_training() as a ddnn::TrainingMonitor. Per-worker iteration times feed seeded,
//     deterministic EWMA baselines; a worker whose baseline sits a robust
//     z-score (median absolute deviation) above the cluster median — with
//     hysteresis and cooldown so one noisy barrier never triggers — is a
//     straggler. PS NIC/CPU bottlenecks come from the fluid model's
//     saturated-time integrals; an SLO-miss forecast projects the measured
//     iteration rate over the remaining budget against Tg.
//   * mitigate — the MitigationPolicy routes each detection: blacklist-and-
//     replace the slow node (the crash-repair replacement path), add a PS
//     shard when the PS is the bottleneck, or downgrade BSP to SSP with a
//     bounded staleness when the forecast says Tg is gone. Every action but
//     the replacement cuts the segment; the executor continues it.
//   * re-plan — when mitigation cannot save Tg, the executor re-runs
//     Algorithm 1 over the remaining budget (core::Provisioner::replan) with
//     a degradation-aware slack margin derived from measured capability.
// Everything is deterministic under a fixed seed. The thresholds are
// constants tuned on the bench/ext_stragglers schedules; docs/FAULTS.md
// explains each.
//
// SloSentinel at the bottom is a one-call adapter onto execute_job, kept for
// its one caller, bench/e2e/cynthia_e2e.cpp; every other caller builds a
// JobSpec.
#pragma once

#include <cstdint>
#include <vector>

#include "core/provisioner.hpp"
#include "ddnn/monitor.hpp"
#include "ddnn/trainer.hpp"
#include "ddnn/workload.hpp"
#include "faults/fault_spec.hpp"
#include "orchestrator/executor.hpp"
#include "util/units.hpp"

namespace cynthia::orch {

/// EWMA smoothing for per-worker busy time and the global iteration rate.
inline constexpr double kEwmaAlpha = 0.25;
/// Robust z-score (0.6745 * (x - median) / MAD) above which the slowest
/// worker counts as anomalous.
inline constexpr double kMadZ = 3.5;
/// ... and it must also be at least this multiple of the median (guards the
/// z-score blowing up when the MAD is near zero on a healthy, near-uniform
/// cluster).
inline constexpr double kMinRatio = 1.4;
/// Probes ignored while baselines warm up.
inline constexpr int kWarmupProbes = 6;
/// Consecutive anomalous probes (same cause) before the sentinel acts.
inline constexpr int kHysteresisProbes = 3;
/// Quiet period after any detection/action; prevents oscillation.
inline constexpr util::Seconds kCooldown{45.0};
/// A PS NIC/CPU binding the max-min allocation for at least this fraction of
/// a probe window marks the PS as the bottleneck.
inline constexpr double kPsSaturationFraction = 0.92;
/// The Tg forecast fires when the projected finish exceeds
/// Tg * (1 - kForecastMargin); the re-plan step holds it back as slack.
inline constexpr double kForecastMargin = 0.05;
/// Mitigation budget across the whole job (detections are unlimited).
inline constexpr int kMaxActions = 4;
/// Staleness bound of the SSP downgrade.
inline constexpr int kSspStalenessBound = 3;

static_assert(kEwmaAlpha > 0.0 && kEwmaAlpha <= 1.0, "the EWMA weight must be in (0, 1]");
static_assert(kHysteresisProbes >= 1, "a detection needs at least one anomalous probe");

/// Per-segment detector state and policy routing. Exposed so tests can
/// drive it with synthetic probes; the executor builds a fresh one for every
/// segment, so the probe clock never moves backwards.
class StragglerDetector : public ddnn::TrainingMonitor {
 public:
  struct Config {
    MitigationPolicy policy = MitigationPolicy::kAuto;
    /// Tg on the job clock; 0 disables the forecast detector.
    double time_goal_seconds = 0.0;
    /// Job-clock seconds and globally closed iterations before this segment.
    double elapsed_offset_seconds = 0.0;
    long iteration_offset = 0;
    /// The whole job's iteration budget (not the segment's).
    long total_iterations = 0;
    /// Measured blacklist-to-replacement-join delay for kExcludeWorker;
    /// < 0 blacklists permanently.
    double replacement_after_seconds = -1.0;
    /// False when the loss goal cannot absorb the SSP staleness penalty
    /// (the loss model scales the whole curve by sqrt(1 + bound), so a
    /// downgrade that saves Tg can still forfeit l_g). The executor computes
    /// this from the workload's loss coefficients and the goal.
    bool allow_ssp_downgrade = true;
    /// Remaining mitigation budget; every action decrements it.
    int actions_remaining = kMaxActions;
    /// False when no outer controller continues a cut (the executor's last
    /// segment): add-ps, replan and the SSP downgrade all cut the run, so
    /// they degrade to detect-only instead of stranding it.
    bool allow_stop = true;
  };

  explicit StragglerDetector(Config config, std::vector<DetectionEvent>* detections = nullptr,
                             std::vector<MitigationRecord>* mitigations = nullptr);

  ddnn::MonitorAction observe(const ddnn::HealthProbe& probe) override;

  [[nodiscard]] int actions_remaining() const { return cfg_.actions_remaining; }

 private:
  Config cfg_;
  std::vector<double> ewma_;  ///< per-worker busy-time baseline; < 0 = unseen
  double iter_ewma_ = -1.0;   ///< seconds per closed iteration
  double last_now_ = 0.0;
  long last_iteration_ = 0;
  int probes_ = 0;
  double cooldown_until_ = 0.0;
  int straggler_streak_ = 0;
  int straggler_worker_ = -1;
  int ps_streak_ = 0;
  int forecast_streak_ = 0;
  std::vector<DetectionEvent>* detections_;
  std::vector<MitigationRecord>* mitigations_;
  /// Per-probe scratch, reused so a probe allocates nothing once warm: the
  /// straggler panel, its absolute deviations, and the sorted copy the
  /// medians are read from.
  std::vector<double> panel_, dev_, sorted_;

  ddnn::MonitorAction act(const DetectionEvent& event, const ddnn::HealthProbe& probe);
};

/// The adapter's inputs: the Sentinel policy's mitigation, the job seed and
/// the trainer options of a JobSpec.
struct SentinelOptions {
  MitigationPolicy policy = MitigationPolicy::kAuto;
  std::uint64_t seed = 2024;
  ddnn::TrainOptions training;
};

using SentinelReport = JobRun;

/// One execute_job call under the Sentinel policy, without a provisioner.
/// Its one caller is bench/e2e/cynthia_e2e.cpp's simulate workload; new code
/// builds a JobSpec instead.
class SloSentinel {
 public:
  explicit SloSentinel(SentinelOptions options = {});

  [[nodiscard]] SentinelReport run(const ddnn::WorkloadSpec& workload,
                                   const core::ProvisionPlan& plan,
                                   const faults::FaultSchedule& schedule,
                                   const core::ProvisionGoal& goal) const;

 private:
  SentinelOptions options_;
};

}  // namespace cynthia::orch
