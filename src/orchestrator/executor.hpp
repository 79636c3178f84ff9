// The orchestrator's one job API: a JobSpec goes into execute_job, a JobRun
// comes out.
//
// Every job runs the same loop: deploy the plan through the control plane,
// train to the iteration budget as segments separated by recovery gaps,
// service each cut (add a PS shard, re-plan onto a new cluster, or resume on
// the same nodes, under SSP after a downgrade), tear down, settle the bill
// and render the time, loss and cost verdicts. The spec's policy is data,
// one of four:
//   * RepairInPlace (the default): every crash is healed in place by one
//     measured replacement node; no monitor rides the run;
//   * Elastic: the first crash cuts the run and takes the re-plan step,
//     Algorithm 1 over the remaining budget (needs a provisioner); when no
//     re-plan fits, the crash is repaired in place;
//   * Sentinel: the StragglerDetector (sentinel.hpp) rides every segment and
//     acts under its MitigationPolicy; its Tg-forecast cut takes the same
//     re-plan step when a provisioner is given;
//   * Spot: plan_spot's mixed or all-spot answer on its market: the
//     revocations become crash faults, and the spot tier is billed by the
//     price integral over the windows it holds (docs/SPOT.md). A durable
//     answer runs as RepairInPlace.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "cloud/spot.hpp"
#include "core/provisioner.hpp"
#include "ddnn/trainer.hpp"
#include "ddnn/workload.hpp"
#include "faults/fault_spec.hpp"
#include "util/units.hpp"

namespace cynthia::orch {

/// Master-side heartbeat latency before a crash repair or a mitigation takes
/// effect.
inline constexpr util::Seconds kDetectionSeconds{5.0};

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

struct RepairInPlace {};
struct Elastic {};
struct Sentinel {
  MitigationPolicy mitigation = MitigationPolicy::kAuto;
};
struct Spot {
  std::reference_wrapper<const cloud::SpotMarket> market;
  /// Its bid, checkpoint cadence and expected cost drive the run; the spec's
  /// plan is the one deployed (normally answer.plan).
  core::SpotProvisionPlan answer;
};
using JobPolicy = std::variant<RepairInPlace, Elastic, Sentinel, Spot>;

/// One job, as data.
struct JobSpec {
  ddnn::WorkloadSpec workload;
  core::ProvisionPlan plan;
  core::ProvisionGoal goal;
  faults::FaultSchedule faults{};
  JobPolicy policy{};
  std::uint64_t seed = 2024;
  /// Forwarded to the trainer; iterations, seed, faults, monitor and the
  /// segment fields are the executor's.
  ddnn::TrainOptions training{};
};

/// One threshold crossing (after hysteresis), whether or not it was acted on.
struct DetectionEvent {
  util::Seconds at;       ///< job clock
  std::string kind;       ///< "straggler" | "ps-bottleneck" | "slo-forecast"
  int worker = -1;        ///< straggler only
  double severity = 0.0;  ///< robust z / saturated fraction / overrun ratio
};

/// One mitigation the sentinel executed.
struct MitigationRecord {
  util::Seconds at;    ///< job clock
  std::string action;  ///< "replace:wk2" | "add-ps" | "ssp-downgrade" | "replan"
  std::string detail;
};

/// One executed job.
struct JobRun {
  core::ProvisionPlan plan;              ///< the plan the job deployed
  core::ProvisionPlan replacement_plan;  ///< the re-planned cluster (when replanned)
  bool replanned = false;
  int added_ps = 0;  ///< PS shards added by add-ps mitigations
  int segments = 1;  ///< training segments the job was cut into

  ddnn::TrainResult training;  ///< merged across segments
  double achieved_loss = 0.0;
  util::Seconds provisioning;  ///< initial cluster launch -> Ready
  util::Dollars actual_cost;   ///< incl. replacements, added shards, new clusters
  bool time_goal_met = false;
  bool loss_goal_met = false;

  std::vector<DetectionEvent> detections;
  std::vector<MitigationRecord> mitigations;

  util::Seconds restore;  ///< checkpoint read time of one restore
  /// Per crash, in schedule order: the measured replacement-node provisioning
  /// time, or the new cluster's when a re-plan answered the crash.
  std::vector<double> replacement_provisioning;
  /// Job-clock time training resumed after a crash re-plan; 0 otherwise.
  double resume_at = 0.0;
};

/// Runs `spec.workload` to its plan's iteration budget under the spec's
/// faults and policy. `provisioner` owns the models the re-plan step
/// searches with: the Elastic policy needs it, a Sentinel uses it for its
/// replan mitigation, and the other policies never re-plan. Throws
/// std::invalid_argument for an infeasible plan, an Elastic run without a
/// provisioner, and a Spot run with a fault schedule (its revocations are
/// its only faults), a bid that never holds or, all-spot, no predicted time.
JobRun execute_job(const JobSpec& spec, const core::Provisioner* provisioner = nullptr);

}  // namespace cynthia::orch
