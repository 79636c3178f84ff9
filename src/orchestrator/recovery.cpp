#include "orchestrator/recovery.hpp"

#include <stdexcept>
#include <utility>

#include "orchestrator/executor.hpp"
#include "telemetry/telemetry.hpp"

namespace cynthia::orch {

namespace {

/// Master-side recovery timeline: detection, replacement Ready, and training
/// resume as instant events next to the trainer's inject/recover pair, with
/// one journal detection/mitigation pair per fired crash.
void record_recovery(telemetry::Telemetry* tel, const FaultRunReport& report) {
  if (!tel) return;
  std::size_t k = 0;
  double recovery_total = 0.0;
  for (const auto& outcome : report.training.faults.events) {
    if (outcome.spec.kind != faults::FaultKind::kCrash) continue;
    if (k >= report.replacement_provisioning.size()) break;
    const double provision = report.replacement_provisioning[k++];
    if (!outcome.fired) continue;
    // The first crash is the one an elastic re-plan answers: the job resumes
    // on the new cluster, not on a repaired node.
    const bool replanned = k == 1 && report.replanned;
    const double detected = outcome.injected_at + kDetectionSeconds.value();
    const double resumed = replanned ? report.resume_at : outcome.recovered_at;
    tel->tracer.instant("faults", "detect:" + outcome.spec.to_string(), "recovery", detected);
    tel->tracer.instant("faults", "replacement_ready", "recovery", detected + provision);
    tel->journal.event(detected, telemetry::JournalKind::kDetection, outcome.spec.to_string(),
                       "heartbeat timeout", kDetectionSeconds.value());
    if (resumed >= 0.0) {
      tel->tracer.instant("faults", "resume", "recovery", resumed);
      tel->journal.event(resumed, telemetry::JournalKind::kMitigation,
                         replanned ? "elastic-replan" : "repair-in-place",
                         outcome.spec.to_string());
    }
    recovery_total += kDetectionSeconds.value() + provision + report.restore_seconds;
  }
  if (recovery_total > 0.0) {
    tel->metrics.counter(telemetry::metric::kFaultRecoverySeconds).inc(recovery_total);
  }
}

}  // namespace

RecoveryController::RecoveryController(RecoveryOptions options) : options_(std::move(options)) {}

FaultRunReport RecoveryController::run(const ddnn::WorkloadSpec& workload,
                                       const core::ProvisionPlan& plan,
                                       const faults::FaultSchedule& schedule,
                                       const core::ProvisionGoal& goal,
                                       const core::Provisioner* provisioner) const {
  if (options_.elastic && provisioner == nullptr) {
    throw std::invalid_argument("RecoveryController: elastic re-planning needs a Provisioner");
  }
  SentinelOptions job_options;
  job_options.enabled = false;
  job_options.seed = options_.seed;
  job_options.training = options_.training;
  JobRun run = execute_job(workload, plan, schedule, goal, job_options,
                           options_.elastic ? provisioner : nullptr, options_.elastic);

  FaultRunReport report;
  report.plan = plan;
  report.replacement_plan = run.report.replacement_plan;
  report.replanned = run.report.replanned;
  report.training = std::move(run.report.training);
  report.achieved_loss = run.report.achieved_loss;
  report.provisioning_seconds = run.report.provisioning_seconds;
  report.restore_seconds = run.restore.value();
  report.replacement_provisioning = std::move(run.replacement_provisioning);
  report.resume_at = run.resume_at;
  report.actual_cost = run.report.actual_cost;
  report.time_goal_met = run.report.time_goal_met;
  report.loss_goal_met = run.report.loss_goal_met;
  record_recovery(options_.training.telemetry, report);

  if (options_.measure_baseline) {
    // The fault-free shadow run (same seed); keep the trace clean.
    job_options.training.telemetry = nullptr;
    const JobRun baseline =
        execute_job(workload, plan, {}, goal, job_options, nullptr, /*cut_at_first_crash=*/false);
    report.baseline_seconds = baseline.report.training.total_time;
    report.baseline_cost = baseline.report.actual_cost;
    report.extra_seconds = report.training.total_time - report.baseline_seconds;
    report.extra_cost =
        util::Dollars{report.actual_cost.value() - report.baseline_cost.value()};
  }
  return report;
}

}  // namespace cynthia::orch
