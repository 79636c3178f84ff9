// Online training-health observation hook.
//
// A TrainingMonitor rides inside run_training(): the engine calls observe()
// at every clean synchronization point (BSP: a closed barrier; ASP/SSP: a
// completed cycle) with a HealthProbe describing per-worker busy time and
// PS-side saturation since the previous probe. The monitor answers with a
// MonitorAction — do nothing, blacklist a worker (optionally scheduling its
// replacement), or cut the run so an outer controller can reconfigure the
// cluster or, for a BSP -> SSP downgrade, continue under SSP.
//
// Determinism contract: a null monitor — or one that always returns
// kNone — adds zero perturbation; the probe bookkeeping never schedules
// simulator events, so such runs are bit-identical to a monitor-free run.
// The SLO sentinel (orchestrator/sentinel.hpp) is the in-repo monitor; the
// interface lives in ddnn so the trainer owns the mechanism and the
// orchestrator owns the policy.
#pragma once

#include <string>
#include <vector>

#include "ddnn/workload.hpp"
#include "util/units.hpp"

namespace cynthia::ddnn {

/// Snapshot handed to the monitor at each synchronization point.
struct HealthProbe {
  double now = 0.0;            ///< simulation time of the probe
  long iteration = 0;          ///< globally closed updates so far
  long total_iterations = 0;   ///< the run's global budget
  SyncMode mode = SyncMode::BSP;

  /// Per-worker busy seconds over the last completed iteration (BSP: from
  /// the slot open to the worker's last phase end; ASP/SSP: the worker's
  /// most recent full cycle). < 0: dead/blacklisted worker, or no completed
  /// sample yet.
  std::vector<double> worker_busy_seconds;

  /// Seconds since the previous probe (the attribution window).
  util::Seconds window_seconds{0.0};
  /// Largest fraction of the window any PS ingress NIC / PS CPU spent as
  /// the binding max-min constraint (FluidSystem saturated-time integrals).
  double ps_nic_saturated_fraction = 0.0;
  double ps_cpu_saturated_fraction = 0.0;
};

/// What the monitor wants done. Actions execute synchronously at the probe
/// point, where nothing is in flight for the affected worker.
struct MonitorAction {
  enum class Kind {
    kNone,           ///< keep training
    kStop,           ///< cut the run (outer controller reconfigures)
    kExcludeWorker,  ///< blacklist `target`; optionally schedule a replacement
    kDowngradeSsp,   ///< BSP only: cut the run; the rest runs under SSP
  };
  Kind kind = Kind::kNone;
  int target = -1;  ///< worker index for kExcludeWorker

  /// kExcludeWorker: seconds until a replacement node joins at full
  /// capability (detection + provisioning + restore, measured by the
  /// caller). < 0: blacklist permanently, no replacement.
  util::Seconds replacement_after_seconds{-1.0};

  /// kDowngradeSsp: staleness bound the SSP continuation runs under.
  int staleness_bound = 3;

  /// Machine-readable cause ("straggler:wk2", "ps-bottleneck", "replan");
  /// recorded in telemetry and surfaced to the outer controller.
  std::string reason;
};

/// Abstract observer; implementations must be deterministic (no wall clock,
/// no unseeded randomness) so monitored runs stay reproducible.
class TrainingMonitor {
 public:
  virtual ~TrainingMonitor() = default;
  virtual MonitorAction observe(const HealthProbe& probe) = 0;
};

}  // namespace cynthia::ddnn
