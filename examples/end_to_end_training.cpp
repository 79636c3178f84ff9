// End-to-end training: the full prototype pipeline of the paper's Sec. 5 —
// profiling, Algorithm 1, instance provisioning through the Kubernetes-like
// control plane (kubeadm join and all), training, teardown and billing — for
// four jobs with different goals.
//
// Each job is three library calls: profile the workload once on an
// m4.xlarge worker (core::Predictor::build), run Algorithm 1 over the
// provisionable catalog (core::Provisioner::plan), and hand the plan to the
// orchestrator's job executor (orch::execute_job), which returns a fully
// accounted JobRun.
#include <cstdio>

#include "cloud/instance.hpp"
#include "core/predictor.hpp"
#include "core/provisioner.hpp"
#include "ddnn/workload.hpp"
#include "orchestrator/executor.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

using namespace cynthia;

namespace {

void submit_and_report(const char* workload_name, double minutes, double target_loss) {
  const auto& workload = ddnn::workload_by_name(workload_name);
  std::printf("=== job: %s (%s), goal %.0f min @ loss %.1f ===\n", workload_name,
              ddnn::to_string(workload.sync).c_str(), minutes, target_loss);
  const core::ProvisionGoal goal{util::minutes(minutes), target_loss};

  const auto& catalog = cloud::Catalog::aws();
  const core::Predictor predictor = core::Predictor::build(workload, catalog.at("m4.xlarge"));
  core::Provisioner provisioner(predictor.model(), predictor.loss(), catalog.provisionable());
  telemetry::MetricsRegistry metrics;  // the planner times itself into it
  provisioner.set_metrics(&metrics);
  const core::ProvisionPlan plan = provisioner.plan(workload.sync, goal);
  if (!plan.feasible) {
    std::puts("  -> rejected: no provisioning plan can meet this goal\n");
    return;
  }
  const orch::JobRun run = orch::execute_job({workload, plan, goal});

  std::printf("  plan            : %s\n", plan.describe().c_str());
  std::printf("  profiling       : %.1f s (one-off per workload)\n",
              predictor.profile().profiling_time.value());
  std::printf("  Algorithm 1     : %.3f ms on the master\n",
              metrics.histogram(telemetry::metric::kPlannerPlanSeconds).sum() * 1e3);
  std::printf("  provisioning    : %.0f s (launch -> boot -> install -> kubeadm join)\n",
              run.provisioning.value());
  std::printf("  training        : %.0f s for %ld iterations\n", run.training.total_time,
              run.training.iterations);
  std::printf("  achieved loss   : %.3f (target %.1f) -> %s\n", run.achieved_loss, target_loss,
              run.loss_goal_met ? "met" : "MISSED");
  std::printf("  time goal       : %s (%.0f s vs %.0f s)\n", run.time_goal_met ? "met" : "MISSED",
              run.training.total_time, minutes * 60.0);
  std::printf("  billed cost     : $%.2f (whole instances, provisioning included)\n\n",
              run.actual_cost.value());
}

}  // namespace

int main() {
  // A comfortable goal and a tight one for the same workload...
  submit_and_report("cifar10", 120, 0.8);
  submit_and_report("cifar10", 60, 0.7);
  // ...an ASP job...
  submit_and_report("vgg19", 60, 0.8);
  // ...and a goal nobody can meet (rejected upfront, no money spent).
  submit_and_report("vgg19", 1, 0.8);
  return 0;
}
