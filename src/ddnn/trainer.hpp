// PS-architecture distributed training simulation.
//
// run_training() executes one DDNN training run on a simulated cluster
// and reports the quantities the paper measures: total training time, the
// computation/communication breakdown (Fig. 3), per-docker CPU utilization
// (Table 2), the PS ingress throughput trace (Figs. 2 and 7) and the noisy
// loss curve (Fig. 4).
//
// Mechanics (Fig. 5 of the paper): every iteration a worker computes
// gradients on its own CPU, pushes them to every PS shard over the network,
// each PS folds the update in on its CPU, and the worker pulls fresh
// parameters back.
//   * BSP: the global batch is split across workers (Eq. 4), iteration i's
//     communication overlaps iteration i+1's computation (the
//     SyncReplicasOptimizer behaviour noted in Sec. 2), and a barrier closes
//     each iteration.
//   * ASP: workers draw iterations from a shared counter and run
//     compute -> push -> apply -> pull strictly in sequence (Sec. 3).
// All contention (PS NIC, PS CPU, worker NIC) emerges from max-min fair
// sharing in sim::FluidSystem.
#pragma once

#include <cstdint>
#include <vector>

#include "ddnn/cluster.hpp"
#include "ddnn/loss.hpp"
#include "ddnn/monitor.hpp"
#include "ddnn/workload.hpp"
#include "faults/fault_spec.hpp"
#include "util/time_series.hpp"

namespace cynthia::telemetry {
struct Telemetry;
}

namespace cynthia::ddnn {

/// Bytes on the wire per parameter byte (gRPC/TCP framing overhead).
inline constexpr double kWireOverhead = 1.25;

struct TrainOptions {
  long iterations = 0;  ///< 0 = use the workload's Table 1 default
  std::uint64_t seed = 1;

  /// Relative jitter applied to each compute task (run-to-run variance).
  double compute_jitter = 0.02;

  /// >0 enables PS ingress throughput tracing with this bucket width.
  double trace_bucket_seconds = 0.0;

  /// Loss curve sampling stride; 0 = auto (~200 samples per run).
  long loss_sample_stride = 0;

  /// Parameter-sharding pipeline depth: each worker's update is split into
  /// this many blocks whose push -> apply -> pull stages overlap (how PS
  /// frameworks hide the apply latency). 1 disables pipelining — the
  /// ablation knob for bench/ablation_model.
  int comm_pipeline_blocks = 8;

  /// Optional per-run telemetry sink (metrics + simulation-time trace); not
  /// owned. nullptr (default) disables instrumentation entirely — every
  /// instrument site reduces to one pointer test, and results are identical
  /// either way. See telemetry/telemetry.hpp for what gets recorded.
  telemetry::Telemetry* telemetry = nullptr;

  /// Optional fault timeline injected into the run; not owned. nullptr — or
  /// an empty schedule — reproduces the fault-free run bit-exactly. See
  /// docs/FAULTS.md for the per-kind semantics.
  const faults::FaultSchedule* faults = nullptr;

  /// Global updates between checkpoints. A PS crash rolls progress back to
  /// the last multiple (the paper's PS holds the only authoritative copy of
  /// the parameters). 0 disables checkpointing — a PS crash then restarts
  /// training from iteration 0.
  long checkpoint_interval_iterations = 50;

  /// Component-scoped fluid reallocation (sim/fluid.hpp): after each
  /// start/finish/cancel/capacity event only the touched connected
  /// component is re-water-filled. Allocations — and therefore run results
  /// — are bit-identical with this on or off; off exists for the
  /// equivalence tests and the perf_fluid baseline.
  bool fluid_incremental = true;

  /// > 0: cut the run at this simulated time and finalize what completed
  /// (the elastic re-planner uses this to end segment one at the first
  /// crash). The result carries stopped_early = true.
  double stop_after_seconds = 0.0;

  /// Iteration offset fed to the loss process, so a resumed segment
  /// continues the loss curve from its checkpoint instead of restarting it.
  long loss_iteration_offset = 0;

  /// Optional health observer called at every clean sync point (BSP barrier
  /// close / ASP cycle completion); not owned. nullptr — or a monitor that
  /// never acts — reproduces the unmonitored run bit-exactly. See
  /// ddnn/monitor.hpp.
  TrainingMonitor* monitor = nullptr;

  /// Workers blacklisted before the run starts (dead from t=0, not counted
  /// as crashes). Used to resume a segment after a mid-run exclusion.
  std::vector<int> excluded_workers;
};

/// What actually happened to one scheduled fault during the run.
struct FaultEventOutcome {
  faults::FaultSpec spec;
  bool fired = false;         ///< false: scheduled past the end of the run
  double injected_at = 0.0;   ///< simulation time the fault landed
  double recovered_at = -1.0; ///< < 0: did not recover within the run
  long lost_iterations = 0;   ///< PS crash: updates rolled back at this event
};

/// Aggregate fault/recovery accounting for a run; empty when no schedule
/// was supplied.
struct FaultSummary {
  long injected = 0;
  long crashes = 0;
  long slowdowns = 0;          ///< CPU slowdown faults that fired
  long nic_degradations = 0;   ///< NIC degradation faults that fired
  long blips = 0;              ///< transient blips that fired
  long lost_iterations = 0;   ///< un-checkpointed updates redone after PS crashes
  double outage_seconds = 0.0;  ///< time training was suspended on a dead PS
  /// Node-seconds spent under an active non-crash degradation (summed over
  /// events; overlapping degradations on different nodes both count).
  double degraded_node_seconds = 0.0;
  std::vector<FaultEventOutcome> events;
};

/// One monitor-driven blacklist event inside a run.
struct MonitorExclusion {
  int worker = -1;
  double at = 0.0;           ///< simulation time the worker was cut out
  double replaced_at = -1.0; ///< scheduled replacement join; < 0 = permanent
};

/// Interventions a TrainingMonitor performed during the run; empty/false
/// when no monitor was attached or it never acted. A downgrade cuts the run
/// like a stop: `downgraded` records that the cut asked for SSP, and the
/// caller trains the rest of the budget under `staleness_bound`.
struct MonitorOutcome {
  std::vector<MonitorExclusion> exclusions;
  bool stopped = false;          ///< a monitor action cut the run
  std::string stop_reason;       ///< MonitorAction::reason of the cut
  bool downgraded = false;       ///< the cut was a BSP -> SSP downgrade
  double downgraded_at = -1.0;
  long downgraded_at_iteration = 0;
  int staleness_bound = 0;       ///< bound the SSP continuation runs under
};

struct TrainResult {
  long iterations = 0;
  double total_time = 0.0;  ///< seconds, start to last parameter pull

  /// Fig. 3 breakdown: per-iteration computation phase / communication
  /// phase durations summed over the run (phases overlap under BSP, so
  /// their sum exceeds total_time by design).
  double computation_time = 0.0;
  double communication_time = 0.0;
  double avg_iteration_time = 0.0;

  std::vector<double> worker_cpu_util;  ///< per worker, in [0,1]
  std::vector<double> ps_cpu_util;      ///< per PS node
  double avg_worker_cpu_util = 0.0;
  double avg_fast_worker_cpu_util = 0.0;  ///< fastest-type workers only (Table 2's m4 column)
  double avg_ps_cpu_util = 0.0;

  double ps_ingress_avg_mbps = 0.0;   ///< aggregate across PS nodes
  double ps_ingress_peak_mbps = 0.0;  ///< peak bucket of the trace
  std::vector<util::TimeBucket> ps_ingress_trace;

  double final_loss = 0.0;
  std::vector<LossSample> loss_curve;

  /// True when stop_after_seconds, an unrecoverable PS crash or a monitor
  /// cut ended the run; `iterations` then holds the updates durably applied
  /// by the cut.
  bool stopped_early = false;
  FaultSummary faults;
  MonitorOutcome monitor;
};

/// Runs one training segment on one engine, the one matching
/// `workload.sync`; deterministic for a given seed. It runs to the iteration
/// budget unless `stop_after_seconds`, an unrecoverable PS crash or a monitor
/// cut (kStop, kDowngradeSsp) ends it early. Continuing after a cut is the
/// orchestrator's job (orch::execute_job). Each simulated flow carries its
/// continuation in a 64-bit tag, so a run takes at most 65,536 workers,
/// 65,536 PS nodes and 256 pipeline blocks (std::invalid_argument beyond).
TrainResult run_training(const ClusterSpec& cluster, const WorkloadSpec& workload,
                         const TrainOptions& options = {});

}  // namespace cynthia::ddnn
