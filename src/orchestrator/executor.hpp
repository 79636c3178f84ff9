// The orchestrator's one job executor.
//
// Every job runs the same loop: deploy the plan through the control plane,
// train to the iteration budget as segments separated by recovery gaps,
// service each cut (add a PS shard, re-plan onto a new cluster, or resume on
// the same nodes, under SSP after a downgrade), tear down, settle the bill
// and render the time, loss and cost verdicts. The entry points are thin
// callers that pick a policy:
//   * TrainingService::submit and repair-in-place run with the monitor off;
//     every crash is healed in place by one measured replacement node;
//   * elastic recovery (RecoveryOptions::elastic) cuts at the first crash and
//     re-plans the rest of the budget;
//   * SloSentinel::run attaches the StragglerDetector; its Tg-forecast cut
//     takes the same re-plan step;
//   * run_on_spot executes plan_spot's mixed or all-spot answer: the market's
//     revocations become crash faults, and the spot tier is billed by the
//     price integral over the windows it holds (docs/SPOT.md).
#pragma once

#include <vector>

#include "cloud/spot.hpp"
#include "core/provisioner.hpp"
#include "ddnn/workload.hpp"
#include "faults/fault_spec.hpp"
#include "orchestrator/sentinel.hpp"
#include "util/units.hpp"

namespace cynthia::orch {

/// Master-side heartbeat latency before a crash repair or a mitigation takes
/// effect.
inline constexpr util::Seconds kDetectionSeconds{5.0};

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

/// A spot fleet to execute: the market and plan_spot's mixed or all-spot
/// answer (whose `plan` is the plan the run deploys).
struct SpotFleet {
  const cloud::SpotMarket& market;
  const core::SpotProvisionPlan& answer;
};

/// Runs `workload` to `plan`'s iteration budget under `schedule`.
/// `options.enabled` attaches the sentinel's detector, `provisioner` enables
/// re-planning, and `cut_at_first_crash` selects elastic recovery. `spot`
/// runs the plan on spot capacity instead: its revocations are the only
/// faults, so it takes no schedule, sentinel or elastic cut (throws
/// std::invalid_argument otherwise).
JobRun execute_job(const ddnn::WorkloadSpec& workload, const core::ProvisionPlan& plan,
                   const faults::FaultSchedule& schedule, const core::ProvisionGoal& goal,
                   const SentinelOptions& options, const core::Provisioner* provisioner,
                   bool cut_at_first_crash, const SpotFleet* spot = nullptr);

/// Executes plan_spot's answer. A durable answer is a plain execute_job run;
/// a mixed or all-spot one launches when the bid first holds, loses its spot
/// tier at every revocation and gets it back kRestartDelay (all-spot: plus
/// one checkpoint restore) after the bid holds again. The bid and the
/// checkpoint cadence come from the answer; the cost verdict checks its
/// expected cost.
JobRun run_on_spot(const cloud::SpotMarket& market, const ddnn::WorkloadSpec& workload,
                   const core::SpotProvisionPlan& answer, const core::ProvisionGoal& goal,
                   const SentinelOptions& options);

}  // namespace cynthia::orch
