// The orchestrator's one job executor.
//
// Every job runs the same loop: deploy the plan through the control plane,
// train to the iteration budget as segments separated by recovery gaps,
// service each cut (add a PS shard, re-plan onto a new cluster, or resume on
// the same nodes), tear down, settle the bill and render the time, loss and
// cost verdicts. The entry points are thin callers that pick a policy:
//   * TrainingService::submit and repair-in-place run with the monitor off;
//     every crash is healed in place by one measured replacement node;
//   * elastic recovery (RecoveryOptions::elastic) cuts at the first crash and
//     re-plans the rest of the budget;
//   * SloSentinel::run attaches the StragglerDetector; its Tg-forecast cut
//     takes the same re-plan step.
#pragma once

#include <vector>

#include "core/provisioner.hpp"
#include "ddnn/workload.hpp"
#include "faults/fault_spec.hpp"
#include "orchestrator/sentinel.hpp"
#include "util/units.hpp"

namespace cynthia::orch {

/// One executed job: the sentinel's report plus the crash-recovery detail.
struct JobRun {
  SentinelReport report;
  util::Seconds restore;  ///< checkpoint read time of one restore
  /// Per crash, in schedule order: the measured replacement-node provisioning
  /// time, or the new cluster's when a re-plan answered the crash.
  std::vector<double> replacement_provisioning;
  /// Job-clock time training resumed after a crash re-plan; 0 otherwise.
  double resume_at = 0.0;
};

/// Runs `workload` to `plan`'s iteration budget under `schedule`.
/// `options.enabled` attaches the sentinel's detector, `provisioner` enables
/// re-planning, and `cut_at_first_crash` selects elastic recovery.
JobRun execute_job(const ddnn::WorkloadSpec& workload, const core::ProvisionPlan& plan,
                   const faults::FaultSchedule& schedule, const core::ProvisionGoal& goal,
                   const SentinelOptions& options, const core::Provisioner* provisioner,
                   bool cut_at_first_crash);

}  // namespace cynthia::orch
