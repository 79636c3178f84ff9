// SLO sentinel: online straggler/degradation detection, mitigation policies,
// and adaptive re-planning.
//
// The paper provisions a cluster once, up front, from profiled models
// (Algorithm 1). A real cloud degrades under the job: a worker's CPU is
// throttled, a NIC drops to a fraction of line rate, a PS shard saturates.
// The sentinel closes that loop online:
//   * detect  — a fresh StragglerDetector rides inside each training
//     segment's run_training() as a ddnn::TrainingMonitor. Per-worker iteration times feed seeded,
//     deterministic EWMA baselines; a worker whose baseline sits a robust
//     z-score (median absolute deviation) above the cluster median — with
//     hysteresis and cooldown so one noisy barrier never triggers — is a
//     straggler. PS NIC/CPU bottlenecks come from the fluid model's
//     saturated-time integrals; an SLO-miss forecast projects the measured
//     iteration rate over the remaining budget against Tg.
//   * mitigate — a pluggable policy engine: blacklist-and-replace the slow
//     node (the RecoveryController replacement path), add a PS shard when
//     the PS is the bottleneck, or downgrade BSP to SSP with a bounded
//     staleness when the forecast says Tg is gone. Every action but the
//     replacement cuts the segment; the executor continues it.
//   * re-plan — when mitigation cannot save Tg, re-run Algorithm 1 over the
//     remaining budget (core::Provisioner::replan) with a degradation-aware
//     slack margin derived from measured capability.
// Everything is deterministic under a fixed seed, and a disabled sentinel
// (SentinelOptions::enabled = false) runs bit-identically to no sentinel.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/pricing.hpp"
#include "core/provisioner.hpp"
#include "ddnn/monitor.hpp"
#include "ddnn/trainer.hpp"
#include "ddnn/workload.hpp"
#include "faults/fault_spec.hpp"

namespace cynthia::orch {

/// Detection thresholds. The defaults are tuned on the bench/ext_stragglers
/// schedules; docs/FAULTS.md explains each knob.
struct SentinelThresholds {
  /// EWMA smoothing for per-worker busy time and the global iteration rate.
  double ewma_alpha = 0.25;
  /// Robust z-score (0.6745 * (x - median) / MAD) above which the slowest
  /// worker counts as anomalous.
  double mad_z = 3.5;
  /// ... and it must also be at least this multiple of the median (guards
  /// the z-score blowing up when the MAD is near zero on a healthy,
  /// near-uniform cluster).
  double min_ratio = 1.4;
  /// Probes ignored while baselines warm up.
  int warmup_probes = 6;
  /// Consecutive anomalous probes (same cause) before the sentinel acts.
  int hysteresis_probes = 3;
  /// Quiet period after any detection/action; prevents oscillation.
  double cooldown_seconds = 45.0;
  /// A PS NIC/CPU binding the max-min allocation for at least this fraction
  /// of a probe window marks the PS as the bottleneck.
  double ps_saturation_fraction = 0.92;
  /// The Tg forecast fires when the projected finish exceeds
  /// Tg * (1 - forecast_margin).
  double forecast_margin = 0.05;
};

/// What the sentinel is allowed to do about a detection.
enum class MitigationPolicy {
  kNone,     ///< detect and report only
  kReplace,  ///< blacklist the straggler, provision a replacement node
  kAddPs,    ///< add one PS shard and rebalance the parameter shards
  kSsp,      ///< downgrade BSP to SSP with a bounded staleness
  kReplan,   ///< cut and re-run Algorithm 1 over the remaining budget
  kAuto,     ///< choose by detected cause (straggler -> replace,
             ///  PS bottleneck -> add-ps, Tg forecast -> ssp/replan)
};

/// Parses "none"/"replace"/"add-ps"/"ssp"/"replan"/"auto" (cynthiactl
/// --mitigate=<policy>); throws std::invalid_argument otherwise.
MitigationPolicy parse_mitigation_policy(const std::string& name);
const char* to_string(MitigationPolicy policy);

/// One threshold crossing (after hysteresis), whether or not it was acted on.
struct DetectionEvent {
  double at_seconds = 0.0;  ///< job-clock time
  std::string kind;         ///< "straggler" | "ps-bottleneck" | "slo-forecast"
  int worker = -1;          ///< straggler only
  double severity = 0.0;    ///< robust z / saturated fraction / overrun ratio
};

/// One mitigation the sentinel executed.
struct MitigationRecord {
  double at_seconds = 0.0;  ///< job-clock time
  std::string action;       ///< "replace:wk2" | "add-ps" | "ssp-downgrade" | "replan"
  std::string detail;
};

struct SentinelOptions {
  SentinelThresholds thresholds;
  MitigationPolicy policy = MitigationPolicy::kAuto;
  /// false: run with no monitor attached at all — bit-identical to the
  /// pre-sentinel trainer (the regression tests pin this).
  bool enabled = true;
  /// Mitigation budget across the whole job (detections are unlimited).
  int max_actions = 4;
  /// Staleness bound for the SSP downgrade path.
  int ssp_staleness_bound = 3;
  std::uint64_t seed = 2024;
  /// Forwarded to the training simulator; iterations/faults/monitor are
  /// overwritten by the sentinel.
  ddnn::TrainOptions training;
};

struct SentinelReport {
  core::ProvisionPlan plan;              ///< the original Algorithm 1 plan
  core::ProvisionPlan replacement_plan;  ///< replan segment's plan (when replanned)
  bool replanned = false;
  int added_ps = 0;       ///< PS shards added by add-ps mitigations
  int segments = 1;       ///< training segments the job was cut into

  ddnn::TrainResult training;  ///< merged across segments
  double achieved_loss = 0.0;
  double provisioning_seconds = 0.0;  ///< initial cluster launch -> Ready
  util::Dollars actual_cost;          ///< incl. replacements / added shards
  bool time_goal_met = false;
  bool loss_goal_met = false;

  std::vector<DetectionEvent> detections;
  std::vector<MitigationRecord> mitigations;
};

/// Per-segment detector state and policy routing. Exposed so tests can
/// drive it with synthetic probes; the executor builds a fresh one for every
/// segment, so the probe clock never moves backwards.
class StragglerDetector : public ddnn::TrainingMonitor {
 public:
  struct Config {
    SentinelThresholds thresholds;
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
    int ssp_staleness_bound = 3;
    /// False when the loss goal cannot absorb the SSP staleness penalty
    /// (the loss model scales the whole curve by sqrt(1 + bound), so a
    /// downgrade that saves Tg can still forfeit l_g). SloSentinel computes
    /// this from the workload's loss coefficients and the goal.
    bool allow_ssp_downgrade = true;
    /// Remaining mitigation budget; every action decrements it.
    int actions_remaining = 4;
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

/// Runs one training job under the sentinel on the orchestrator's job
/// executor (executor.hpp): deploys `plan`, trains with the
/// StragglerDetector attached, and services its cuts (add-ps, replan, the
/// SSP downgrade) by reconfiguring and resuming until the budget completes.
class SloSentinel {
 public:
  explicit SloSentinel(SentinelOptions options = {});

  /// `provisioner` enables the replan mitigation (it owns the models
  /// Algorithm 1 searches with); without it the sentinel falls back to the
  /// SSP downgrade on forecast misses.
  [[nodiscard]] SentinelReport run(const ddnn::WorkloadSpec& workload,
                                   const core::ProvisionPlan& plan,
                                   const faults::FaultSchedule& schedule,
                                   const core::ProvisionGoal& goal,
                                   const core::Provisioner* provisioner = nullptr) const;

 private:
  SentinelOptions options_;
};

}  // namespace cynthia::orch
