#include "orchestrator/service.hpp"

#include <chrono>
#include <utility>

#include "orchestrator/executor.hpp"
#include "telemetry/telemetry.hpp"

namespace cynthia::orch {

namespace {

/// Algorithm 1 over the allowed types (the catalog default when none are
/// given), reporting to the telemetry bundle when one is attached.
core::Provisioner make_provisioner(const core::Predictor& predictor,
                                   const cloud::Catalog& catalog, const ServiceOptions& options) {
  auto types = options.instance_types;
  if (types.empty()) types = catalog.provisionable();
  core::Provisioner provisioner(predictor.model(), predictor.loss(), types);
  if (telemetry::Telemetry* tel = options.training.telemetry; tel != nullptr) {
    provisioner.set_metrics(&tel->metrics);
    provisioner.set_journal(&tel->journal);
  }
  return provisioner;
}

}  // namespace

TrainingService::TrainingService(const cloud::Catalog& catalog, ServiceOptions options)
    : catalog_(&catalog), options_(std::move(options)) {}

std::optional<JobReport> TrainingService::submit(const ddnn::WorkloadSpec& workload,
                                                 const core::ProvisionGoal& goal) {
  JobReport report;

  // 1+2: performance predictor (profile + loss fit).
  const auto& baseline = catalog_->at(options_.baseline_type);
  core::Predictor predictor = core::Predictor::build(workload, baseline, options_.predictor);
  report.profiling_seconds = predictor.profile().profiling_time.value();

  // 3: Algorithm 1 (timed with the host clock — the paper's Sec. 5.3
  // overhead metric).
  const core::Provisioner provisioner = make_provisioner(predictor, *catalog_, options_);
  // Wall-clock here times the planner itself (an overhead metric reported to
  // the operator); it never feeds back into simulated time, so determinism of
  // the simulation is unaffected.
  const auto t0 = std::chrono::steady_clock::now();  // cynthia-lint: allow(DET-001) — self-timing
  report.plan = provisioner.plan(workload.sync, goal);
  report.planning_seconds =  // cynthia-lint: allow(DET-001) — self-timing, not simulated time
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (!report.plan.feasible) return std::nullopt;

  // 4-6: provision through the control plane, train for the planned
  // iteration budget, tear down and settle the bill (the cluster exists for
  // provisioning + training).
  SentinelOptions job_options;
  job_options.enabled = false;
  job_options.seed = options_.seed;
  job_options.training = options_.training;
  JobRun run = execute_job(workload, report.plan, {}, goal, job_options, nullptr,
                           /*cut_at_first_crash=*/false);
  report.provisioning_seconds = run.report.provisioning_seconds;
  report.training = std::move(run.report.training);
  report.achieved_loss = run.report.achieved_loss;
  report.actual_cost = run.report.actual_cost;
  report.time_goal_met = run.report.time_goal_met;
  report.loss_goal_met = run.report.loss_goal_met;
  return report;
}

std::optional<FaultRunReport> TrainingService::submit_with_faults(
    const ddnn::WorkloadSpec& workload, const core::ProvisionGoal& goal,
    const faults::FaultSchedule& schedule, RecoveryOptions recovery) {
  // Steps 1-3 of submit(): predictor, then Algorithm 1.
  const auto& baseline = catalog_->at(options_.baseline_type);
  const core::Predictor predictor =
      core::Predictor::build(workload, baseline, options_.predictor);
  const core::Provisioner provisioner = make_provisioner(predictor, *catalog_, options_);
  const core::ProvisionPlan plan = provisioner.plan(workload.sync, goal);
  if (!plan.feasible) return std::nullopt;

  // Steps 4-6 move into the recovery controller, which owns provisioning,
  // replacement, and (elastic) re-planning against the same provisioner.
  recovery.seed = options_.seed;
  recovery.training = options_.training;
  RecoveryController controller(recovery);
  return controller.run(workload, plan, schedule, goal, &provisioner);
}

}  // namespace cynthia::orch
