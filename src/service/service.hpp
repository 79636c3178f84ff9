// Multi-tenant provisioning service: thousands of jobs on a finite region.
//
// ProvisioningService is the fleet-scale front-end over everything PRs 1-8
// built for one job at a time. Tenants submit JobRequests (workload,
// (Tg, l_g) goal, priority, optional patience); the service admission-
// controls them against the remaining capacity of a region::Region, queues
// what does not fit (priority order, FIFO within a class, bounded backfill
// past a blocked head), packs admitted jobs cost-optimally through the
// existing core::Provisioner (capacity-capped via
// ProvisionOptions::max_total_dockers), and re-plans queued and revoked
// jobs whenever capacity frees up on completion or spot revocation.
//
// The fleet run is one discrete-event simulation (sim::Simulator): arrival,
// completion, revocation and patience-timeout events on a single clock.
// Provisioning latency per admission is produced by a real
// orch::ClusterManager deployment on a per-attempt sub-simulation (boot/
// install/join walks with seeded jitter and join-failure repair); training
// itself is executed analytically — the plan's predicted time under a
// seeded bounded-normal runtime-noise factor — so 10k-job traces finish in
// seconds while per-job dollars stay Eq. 8-exact (core::plan_cost).
//
// Determinism: every random draw comes from a per-(job, attempt) Rng seeded
// by hash-mixing (options.seed, job id, attempt), never from a shared
// stream, so outcomes are independent of admission interleaving; two runs
// of the same trace produce bit-identical outcome digests. The fleet cost
// total folds per-attempt charges in the exact order their settlements are
// journaled, so telemetry::CostLedger::total() reproduces it bit-for-bit
// (see docs/SERVICE.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cloud/instance.hpp"
#include "core/predictor.hpp"
#include "core/provisioner.hpp"
#include "ddnn/workload.hpp"
#include "region/region.hpp"
#include "service/job.hpp"
#include "util/units.hpp"

namespace cynthia::telemetry {
struct Telemetry;
}

namespace cynthia::service {

struct ServeOptions {
  /// Forwarded to Predictor::build for the fleet planners.
  std::string baseline_type = "m4.xlarge";
  core::PredictorOptions predictor;
  std::uint64_t seed = 2024;

  /// Spot-style capacity loss: per running attempt, a revocation strikes
  /// after an Exp(mean) delay when that delay lands inside the attempt's
  /// run window. <= 0 disables revocations.
  util::Seconds mean_revocation_interval{0.0};

  /// Mixed on-demand+spot fleets for revoked jobs: when enabled, every
  /// re-admission of a revoked job runs its workers on spot capacity (the
  /// PS tier stays on-demand), billed at the mean held-price ratio of an
  /// interruption model fitted from a market seeded by `seed`
  /// (core/revocation.hpp). The durable PS keeps the parameters, so a
  /// mixed attempt's progress survives at iteration — not checkpoint —
  /// granularity. Off (the default) is bit-identical to pre-spot behavior.
  bool spot_fleets = false;
  /// Bid as a multiple of each type's long-run mean spot price.
  double spot_bid_multiplier = 1.6;
};

/// Fleet-level rollup over one run()'s outcomes. Queue-wait quantiles are
/// exact order statistics over admitted jobs (not histogram estimates).
struct FleetStats {
  long submitted = 0;
  long admitted = 0;   ///< granted capacity at least once
  long completed = 0;
  long rejected = 0;   ///< infeasible goal / unknown workload / never fits
  long timed_out = 0;  ///< patience exceeded while queued
  long starved = 0;    ///< still queued when the fleet drained
  long attempts = 0;   ///< capacity grants across all jobs
  long replans = 0;    ///< Algorithm 1 re-runs beyond each job's first plan
  /// Provisioner searches the admission ladder ran for those re-plans; not
  /// the arrival plan (nor its re-run when a job is admitted on it) or the
  /// empty-region check. Not part of the digest.
  long ladder_searches = 0;
  long revocations = 0;
  long spot_attempts = 0;  ///< mixed-fleet re-admissions (spot_fleets only)

  long slo_attained = 0;        ///< completed with completed_at - arrival <= Tg
  double slo_attain_rate = 0.0; ///< slo_attained / submitted
  /// Exact busy-slot integral over capacity * makespan; 0 for an unbounded
  /// region (no finite denominator).
  double utilization = 0.0;
  util::Seconds queue_wait_p50{0.0};
  util::Seconds queue_wait_p99{0.0};
  util::Seconds queue_wait_mean{0.0};
  util::Seconds queue_wait_max{0.0};
  util::Dollars total_cost{0.0};       ///< bit-exact fold (docs/SERVICE.md)
  double dollars_per_goodput = 0.0;    ///< total_cost / slo_attained; 0 if none
  util::Seconds makespan{0.0};         ///< fleet-clock time at drain
};

struct FleetResult {
  std::vector<JobOutcome> outcomes;  ///< input order (one per request)
  FleetStats stats;
  /// FNV-1a over the canonical outcome encoding — two runs of the same
  /// trace on the same binary must produce equal digests.
  std::uint64_t digest = 0;
};

class ProvisioningService {
 public:
  explicit ProvisioningService(region::Region region,
                               const cloud::Catalog& catalog = cloud::Catalog::aws(),
                               ServeOptions options = {});

  /// Fleet path: runs the whole request stream through one event-driven
  /// simulation to drain. Requests may arrive in any order (they are
  /// scheduled by their arrival stamps) but ids must be unique. `telemetry`
  /// is nullable as everywhere else; attaching it changes no outcome.
  FleetResult run(const std::vector<JobRequest>& requests,
                  telemetry::Telemetry* telemetry = nullptr);

  /// The pristine region template runs start from (each run() gets a copy).
  [[nodiscard]] const region::Region& region() const { return region_; }
  [[nodiscard]] const ServeOptions& options() const { return options_; }

 private:
  friend struct FleetEngine;

  /// Per-workload planning state, cached across runs: one Predictor build
  /// and one single-type Provisioner per stocked type, in stocked order
  /// (each keeps its own warm PredictionCache). The cost-optimal plan over
  /// every stocked type is the cheapest of their answers, the earliest type
  /// winning ties: the reduction a Provisioner over all of them makes.
  struct WorkloadPlanners {
    ddnn::WorkloadSpec spec;
    std::vector<core::Provisioner> per_type;
  };

  WorkloadPlanners* planners_for(const std::string& workload);

  region::Region region_;
  const cloud::Catalog* catalog_;
  ServeOptions options_;
  std::vector<cloud::InstanceType> stocked_types_;  ///< region types, name order
  std::vector<std::size_t> stocked_slots_;          ///< region index of each stocked type
  std::map<std::string, WorkloadPlanners> planners_;
};

}  // namespace cynthia::service
