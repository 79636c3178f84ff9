// End-to-end training service: the whole Cynthia prototype in one call.
//
// submit() reproduces the paper's Sec. 5 pipeline for a job with a
// (time goal, target loss):
//   1. profile the workload once on a baseline worker (performance
//      predictor input),
//   2. fit the loss curve from a prior execution,
//   3. run Algorithm 1 to pick (type, n_wk, n_ps),
//   4. provision the instances through the Kubernetes-like control plane,
//   5. train to the planned iteration budget on the simulated cluster,
//   6. tear down and settle billing.
// Steps 4-6 run on the orchestrator's job executor (executor.hpp).
// The report records predicted vs. achieved time/loss/cost and whether the
// goal was met.
#pragma once

#include <cstdint>
#include <optional>

#include "cloud/instance.hpp"
#include "cloud/pricing.hpp"
#include "core/predictor.hpp"
#include "core/provisioner.hpp"
#include "ddnn/trainer.hpp"
#include "ddnn/workload.hpp"
#include "faults/fault_spec.hpp"
#include "orchestrator/recovery.hpp"

namespace cynthia::orch {

struct JobReport {
  core::ProvisionPlan plan;
  double profiling_seconds = 0.0;     ///< baseline profiling overhead
  double planning_seconds = 0.0;      ///< Algorithm 1 wall time (host clock)
  double provisioning_seconds = 0.0;  ///< launch -> all nodes Ready
  ddnn::TrainResult training;
  double achieved_loss = 0.0;
  util::Dollars actual_cost;  ///< billed instance-seconds (incl. provisioning)
  bool time_goal_met = false;
  bool loss_goal_met = false;
};

struct ServiceOptions {
  std::string baseline_type = "m4.xlarge";
  core::PredictorOptions predictor;
  ddnn::TrainOptions training;
  std::uint64_t seed = 2024;
  /// Restrict the plan search to these types; empty = catalog default
  /// (all current-generation types).
  std::vector<cloud::InstanceType> instance_types;
};

class TrainingService {
 public:
  explicit TrainingService(const cloud::Catalog& catalog = cloud::Catalog::aws(),
                           ServiceOptions options = {});

  /// Runs the full pipeline; returns nullopt when no plan meets the goal.
  std::optional<JobReport> submit(const ddnn::WorkloadSpec& workload,
                                  const core::ProvisionGoal& goal);

  /// Same pipeline, but the training run is subjected to `schedule` and the
  /// RecoveryController heals (or, with recovery.elastic, re-plans around)
  /// every crash. Returns nullopt when the initial plan is infeasible.
  /// recovery.seed/training are overridden by the service's own options so
  /// the fault run is comparable to submit() under the same seed.
  std::optional<FaultRunReport> submit_with_faults(const ddnn::WorkloadSpec& workload,
                                                   const core::ProvisionGoal& goal,
                                                   const faults::FaultSchedule& schedule,
                                                   RecoveryOptions recovery = {});

 private:
  const cloud::Catalog* catalog_;
  ServiceOptions options_;
};

}  // namespace cynthia::orch
