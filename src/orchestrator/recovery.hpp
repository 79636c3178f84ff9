// Failure detection, replacement provisioning, and elastic re-planning.
//
// RecoveryController closes the loop the paper's prototype leaves to
// Kubernetes: when a node dies mid-training, the master detects the missed
// heartbeats, provisions a replacement through the same kubeadm-join
// lifecycle used at deploy time, restores the parameters from the last
// checkpoint, and resumes. It runs the job through the orchestrator's one
// executor (orchestrator/executor.hpp) under one of two policies:
//   * repair-in-place (default): every crash is healed by one replacement
//     node; the fault's effective recovery time becomes
//     detection + replacement provisioning + checkpoint restore, and the
//     training run rides through it.
//   * elastic (RecoveryOptions::elastic): the run is cut at the first crash
//     and takes the executor's re-plan step, Algorithm 1 over the *remaining*
//     iteration and time budget (Provisioner::replan); the job finishes on
//     the new — possibly differently sized — cluster, resuming the loss
//     curve from the checkpoint. When no re-plan is feasible the crash is
//     repaired in place.
// The report records whether the time/loss goals survived the faults and
// the extra dollars the recovery cost (against an optional fault-free
// baseline run).
#pragma once

#include <cstdint>
#include <vector>

#include "cloud/pricing.hpp"
#include "core/provisioner.hpp"
#include "ddnn/trainer.hpp"
#include "ddnn/workload.hpp"
#include "faults/fault_spec.hpp"

namespace cynthia::orch {

struct RecoveryOptions {
  /// After the first crash, re-run Algorithm 1 over the remaining budget
  /// instead of repairing the original cluster shape in place.
  bool elastic = false;
  /// Also execute the fault-free run (same seed) so the report can state
  /// the extra time and extra dollars the faults cost.
  bool measure_baseline = false;
  std::uint64_t seed = 2024;
  /// Forwarded to the training simulator; the faults/iterations fields are
  /// overwritten by the controller.
  ddnn::TrainOptions training;
};

struct FaultRunReport {
  core::ProvisionPlan plan;              ///< the original Algorithm 1 plan
  core::ProvisionPlan replacement_plan;  ///< elastic segment-2 plan (infeasible when unused)
  bool replanned = false;                ///< elastic path actually re-planned

  ddnn::TrainResult training;  ///< merged across segments on the elastic path
  double achieved_loss = 0.0;

  double provisioning_seconds = 0.0;  ///< initial cluster launch -> Ready
  double restore_seconds = 0.0;       ///< checkpoint read time per crash
  /// Replacement-node (or replacement-cluster) provisioning time measured
  /// per crash through the kubeadm-join lifecycle, in schedule order.
  std::vector<double> replacement_provisioning;
  /// Elastic path: simulated time training resumed on the new cluster
  /// (first-crash time + detection + provisioning + restore); 0 otherwise.
  double resume_at = 0.0;

  util::Dollars actual_cost;  ///< billed instance-seconds incl. replacements
  bool time_goal_met = false;
  bool loss_goal_met = false;

  /// Fault-free comparison (only when RecoveryOptions::measure_baseline).
  double baseline_seconds = 0.0;
  util::Dollars baseline_cost;
  double extra_seconds = 0.0;
  util::Dollars extra_cost;
};

class RecoveryController {
 public:
  explicit RecoveryController(RecoveryOptions options = {});

  /// Runs `workload` under `schedule` on the cluster `plan` describes.
  /// `provisioner` is required for the elastic policy (it owns the
  /// performance/loss models replan() searches with); the repair-in-place
  /// policy ignores it.
  [[nodiscard]] FaultRunReport run(const ddnn::WorkloadSpec& workload,
                                   const core::ProvisionPlan& plan,
                                   const faults::FaultSchedule& schedule,
                                   const core::ProvisionGoal& goal,
                                   const core::Provisioner* provisioner = nullptr) const;

 private:
  RecoveryOptions options_;
};

}  // namespace cynthia::orch
