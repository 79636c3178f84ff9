// Per-run telemetry bundle threaded through the instrumented layers.
//
// A Telemetry* is nullable everywhere it is accepted (TrainOptions,
// ClusterManager): nullptr — the default — means every instrument site is a
// single pointer test and the run behaves byte-identically to an
// uninstrumented build. One Telemetry per run, like one Simulator per run,
// and one owner: the registry, tracer and journal belong to the thread that
// built the bundle, so concurrent runs each build their own.
//
// Layer conventions (what the instrumented code records):
//   * ddnn::trainer — spans "compute"/"barrier"/"wait" on track "wk<j>.cpu",
//     "push"/"pull" on "wk<j>.comm"; breakdown counters below.
//   * orchestrator — node lifecycle spans ("Booting"/"Installing"/"Joining"/
//     "Ready") on track "i-<id>", "provision" span on track "orchestrator",
//     join failures as instants + kJoinRetries.
//   * sim — kSimEvents / kFluidSettles counters and per-resource
//     "fluid.util.<resource>" gauges snapshotted at the end of a run.
#pragma once

#include <string>

#include "telemetry/journal.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/table.hpp"

namespace cynthia::telemetry {

/// Well-known metric names shared by the instrumented layers and the
/// summary. The three trainer breakdown counters are normalized per worker
/// (each worker contributes dt / n_workers), so
///   comp + comm_exposed + barrier ~= train total seconds
/// holds by construction and the Fig. 3-style percentages fall out directly.
namespace metric {
inline constexpr char kCompSeconds[] = "trainer.comp_seconds";
inline constexpr char kCommExposedSeconds[] = "trainer.comm_exposed_seconds";
inline constexpr char kBarrierSeconds[] = "trainer.barrier_seconds";
inline constexpr char kPushSeconds[] = "trainer.push_seconds";
inline constexpr char kPullSeconds[] = "trainer.pull_seconds";
inline constexpr char kTrainSeconds[] = "trainer.total_seconds";  // gauge
inline constexpr char kTrainWorkers[] = "trainer.workers";        // gauge
inline constexpr char kIterations[] = "trainer.iterations";
inline constexpr char kStaleness[] = "trainer.asp_staleness";  // gauge
inline constexpr char kSimEvents[] = "sim.events_fired";
inline constexpr char kFluidSettles[] = "sim.fluid_settles";
inline constexpr char kProvisionSeconds[] = "orch.provisioning_seconds";
inline constexpr char kJoinRetries[] = "orch.join_retries";
inline constexpr char kBillingDollars[] = "cloud.billing_dollars";  // gauge
inline constexpr char kFaultsInjected[] = "faults.injected";
inline constexpr char kFaultCrashes[] = "faults.crashes";
inline constexpr char kFaultLostIterations[] = "faults.lost_iterations";
inline constexpr char kFaultOutageSeconds[] = "faults.outage_seconds";
inline constexpr char kFaultRecoverySeconds[] = "faults.recovery_seconds";
inline constexpr char kFaultSlowdowns[] = "faults.slowdowns";
inline constexpr char kFaultNicDegradations[] = "faults.nic_degradations";
inline constexpr char kFaultBlips[] = "faults.blips";
inline constexpr char kFaultDegradedNodeSeconds[] = "faults.degraded_node_seconds";
inline constexpr char kRestoreSeconds[] = "spot.restore_seconds";
// SLO sentinel (orchestrator/sentinel.hpp): detection/mitigation counters
// recorded on the run's telemetry alongside the "sentinel" trace track.
inline constexpr char kSentinelDetections[] = "sentinel.detections";
inline constexpr char kSentinelMitigations[] = "sentinel.mitigations";
inline constexpr char kSentinelExclusions[] = "sentinel.exclusions";
inline constexpr char kSentinelSspDowngrades[] = "sentinel.ssp_downgrades";
inline constexpr char kSentinelAddedPs[] = "sentinel.added_ps";
inline constexpr char kSentinelReplans[] = "sentinel.replans";
// Provisioner hot path (core/provisioner.hpp, set_metrics()): planner call
// latency histogram plus cumulative search/cache counters mirrored from
// PlannerStats as gauges.
inline constexpr char kPlannerPlans[] = "planner.plans";
inline constexpr char kPlannerPlanSeconds[] = "planner.plan_seconds";         // histogram
inline constexpr char kPlannerCandidates[] = "planner.candidates_evaluated";  // gauge
inline constexpr char kPlannerPruned[] = "planner.candidates_pruned";         // gauge
inline constexpr char kPlannerCacheHits[] = "planner.cache_hits";             // gauge
inline constexpr char kPlannerCacheMisses[] = "planner.cache_misses";         // gauge
inline constexpr char kPlannerCacheHitRate[] = "planner.cache_hit_rate";      // gauge
// Incremental fluid solver (sim/fluid.hpp): flows actually re-solved by
// max-min settles vs. flows the component-scoped settle proved untouched.
inline constexpr char kFluidFlowsResolved[] = "sim.fluid_flows_resolved";
inline constexpr char kFluidFlowsAvoided[] = "sim.fluid_flows_avoided";
// Multi-tenant provisioning service (service/service.hpp): fleet-level
// counters plus the end-of-run SLO/utilization/$-per-goodput gauges and the
// queue-wait histogram behind the `cynthiactl serve` summary.
inline constexpr char kServiceJobsSubmitted[] = "service.jobs_submitted";
inline constexpr char kServiceJobsAdmitted[] = "service.jobs_admitted";
inline constexpr char kServiceJobsCompleted[] = "service.jobs_completed";
inline constexpr char kServiceJobsRejected[] = "service.jobs_rejected";
inline constexpr char kServiceReplans[] = "service.replans";
inline constexpr char kServiceRevocations[] = "service.revocations";
inline constexpr char kServiceQueueWaitSeconds[] = "service.queue_wait_seconds";  // histogram
inline constexpr char kServiceSloAttainRate[] = "service.slo_attain_rate";        // gauge
inline constexpr char kServiceUtilization[] = "service.region_utilization";       // gauge
inline constexpr char kServiceDollarsPerGoodput[] = "service.dollars_per_goodput";  // gauge
}  // namespace metric

/// Metrics + trace + run journal for one experiment run. The journal is
/// the structured-event side (telemetry/journal.hpp): typed records the
/// cost-attribution and prediction-audit ledgers are derived from.
struct Telemetry {
  MetricsRegistry metrics;
  Tracer tracer;
  Journal journal;

  /// Shifts both sim-time sinks onto the same composed timeline (segmented
  /// runs: provisioning, then training; or per-segment sentinel legs).
  void set_time_offset(double seconds) {
    tracer.set_time_offset(seconds);
    journal.set_time_offset(seconds);
  }
};

/// Per-run breakdown in the shape of the paper's Fig. 3 decomposition:
/// where did the time go — compute, exposed communication, barrier waits —
/// plus the provisioning overhead relative to the whole job.
struct TelemetrySummary {
  double train_seconds = 0.0;
  double provisioning_seconds = 0.0;
  double comp_fraction = 0.0;     ///< of train_seconds
  double comm_fraction = 0.0;     ///< exposed (not hidden by compute)
  double barrier_fraction = 0.0;  ///< BSP barrier / SSP park / idle waits
  double provisioning_fraction = 0.0;  ///< of provisioning + training
  double billing_dollars = 0.0;
  long iterations = 0;
  int workers = 0;

  // Planner hot path (zero unless a Provisioner had set_metrics() pointed
  // at this registry — then plan/replan latency and cache efficiency show
  // up in the summary table).
  long planner_plans = 0;
  double planner_p50_ms = 0.0;
  double planner_p99_ms = 0.0;
  double planner_cache_hit_rate = 0.0;
  double planner_candidates_evaluated = 0.0;
  double planner_candidates_pruned = 0.0;

  // Incremental fluid solver: flows re-solved vs. provably untouched.
  double fluid_flows_resolved = 0.0;
  double fluid_flows_avoided = 0.0;

  static TelemetrySummary from(const MetricsRegistry& metrics);

  /// Renders the breakdown as the repo's standard ASCII table.
  [[nodiscard]] util::Table table(const std::string& title = "Telemetry summary") const;
};

}  // namespace cynthia::telemetry
