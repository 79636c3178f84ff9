// Algorithm 1: the Cynthia cost-efficient provisioning strategy.
//
// Given a time goal Tg and target loss l_g, searches the instance catalog
// within the Theorem 4.1 bounds for the homogeneous (type, n_wk, n_ps)
// plan that meets both goals at minimum predicted dollar cost (Eq. 8 under
// Constraints 9-11).
//
// The search hot path is engineered for sub-millisecond planning (the SLO
// sentinel and the multi-tenant service call it thousands of times): each
// call is one serial scan over the catalog, perf-model evaluations are
// memoized in the provisioner's own PredictionCache, and provably
// non-winning grid points are pruned with Theorem 4.1 bound structure plus
// cost-monotonicity lower bounds (see docs/PERF.md for the safety argument).
// A Provisioner is single-owner: it belongs to the thread that built it, and
// each thread that plans builds its own (plan and replan check the caller
// in CYNTHIA_INVARIANTS builds, see util::OwnerThread).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "cloud/instance.hpp"
#include "cloud/spot.hpp"
#include "core/bounds.hpp"
#include "core/loss_model.hpp"
#include "core/perf_model.hpp"
#include "core/prediction_cache.hpp"
#include "core/revocation.hpp"
#include "ddnn/workload.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace cynthia::telemetry {
class MetricsRegistry;
}  // namespace cynthia::telemetry

namespace cynthia::core {

struct ProvisionGoal {
  util::Seconds time_goal;   ///< Tg
  double target_loss = 0.0;  ///< l_g
};

/// One (type, n) candidate examined by the search — kept for ablation
/// benches and for explaining decisions in examples.
struct CandidateEvaluation {
  std::string type;
  int n_workers = 0;
  int n_ps = 0;
  long iterations = 0;
  double t_iter = 0.0;
  double total_time = 0.0;
  double cost = 0.0;
  bool feasible = false;
  /// Full model diagnostics for this candidate (reused for the chosen
  /// plan's diagnostics instead of re-running the model).
  IterationPrediction prediction;
};

struct ProvisionPlan {
  bool feasible = false;
  cloud::InstanceType type;
  int n_workers = 0;
  int n_ps = 0;
  /// BSP: global iteration budget. ASP: iterations per worker.
  long iterations = 0;
  long total_iterations = 0;
  double t_iter = 0.0;
  util::Seconds predicted_time;
  util::Dollars predicted_cost;
  IterationPrediction diagnostics;
  WorkerBounds bounds;  ///< bounds for the chosen type

  [[nodiscard]] std::string describe() const;
};

/// When no worker count inside the minimum-PS interval meets the goal,
/// Algorithm 1 escalates n_ps by up to this many extra PS nodes (re-deriving
/// the Eq. 19/23 upper bound each time). This is how the paper's prototype
/// arrives at 2-PS plans for tight goals (Figs. 12-13).
inline constexpr int kMaxExtraPs = 3;

/// The rows Algorithm 1's bounded search scans on one instance type: row k
/// has n_ps + k PS nodes and scans workers n_lower..upper[k] (Theorem 4.1
/// after the worker quota). A candidate's predicted time does not depend on
/// the time goal, so two goals with equal windows scan the same candidates
/// in the same order and differ only in which of them meet the goal.
struct SearchWindow {
  int n_lower = 0;  ///< 0: no rows (infeasible bounds, or n_lower over the quota)
  int n_ps = 0;
  std::array<int, kMaxExtraPs + 1> upper{};
  /// Provisioner::window: every time goal from this one up to the goal asked
  /// has this window (verified, docs/SERVICE.md). Not part of ==.
  util::Seconds floor{std::numeric_limits<double>::infinity()};

  [[nodiscard]] bool empty() const { return n_lower == 0; }
  friend bool operator==(const SearchWindow& a, const SearchWindow& b) {
    return a.n_lower == b.n_lower && a.n_ps == b.n_ps && a.upper == b.upper;
  }
};

/// The grid n in [1, kExhaustiveMaxWorkers] x n_ps in [1, kExhaustiveMaxPs]
/// that the exhaustive ablation scans and replan() searches.
inline constexpr int kExhaustiveMaxWorkers = 32;
inline constexpr int kExhaustiveMaxPs = 4;

/// Account-level instance quota: plans needing more workers than this are
/// rejected (EC2 accounts cannot launch unbounded fleets). Applies to the
/// bounded search; the exhaustive grid lies inside it.
inline constexpr int kMaxWorkersQuota = 64;
static_assert(kExhaustiveMaxWorkers <= kMaxWorkersQuota);

struct ProvisionOptions {
  /// Algorithm 1's pseudocode semantics (line 11): stop at the first
  /// feasible worker count per (type, n_ps). The smallest feasible cluster
  /// is preferred; disabling this evaluates the whole [lower, upper]
  /// interval and keeps the cheapest candidate (the prose semantics);
  /// bench/ablation_bounds compares the two.
  bool first_feasible_only = true;

  /// Ablation: ignore Theorem 4.1 and scan the kExhaustiveMaxWorkers x
  /// kExhaustiveMaxPs grid. Used to validate that the bounds never exclude
  /// the optimum.
  bool exhaustive = false;

  /// Record every candidate into `considered` (costs memory on sweeps).
  /// With `prune` enabled, provably skipped grid points are absent from the
  /// trace; the chosen plan is unaffected.
  bool keep_trace = false;

  /// Finite-region admission (src/service): skip candidates whose total
  /// docker footprint (n_workers + n_ps) exceeds this cap; <= 0 = no cap.
  /// Lets plan()/replan() answer "cheapest plan that fits the slots this
  /// region still has free" directly, instead of filtering after the fact.
  int max_total_dockers = 0;

  /// Memoize perf-model evaluations in the provisioner's PredictionCache
  /// (shared across plan/replan/sentinel calls on this Provisioner).
  bool use_cache = true;

  /// Skip grid points that a numerically-safe lower bound proves infeasible
  /// or no cheaper than the best candidate found so far (Theorem 4.1 bound
  /// structure + cost monotonicity; docs/PERF.md gives the argument). The
  /// chosen plan is bit-identical with pruning on or off.
  bool prune = true;
};

/// Durability of a candidate fleet in the revocation-aware search.
enum class FleetDurability {
  kDurable,  ///< everything on-demand (Algorithm 1 as-is)
  kMixed,    ///< workers on spot, PS tier on-demand: parameters survive
  kAllSpot,  ///< whole fleet on spot, checkpoint/rollback protected
};

[[nodiscard]] const char* to_string(FleetDurability durability);

struct SpotPlanOptions {
  /// Bid as a multiple of each type's long-run mean spot price.
  double bid_multiplier = 1.6;
  /// Underlying Algorithm 1 grid options for candidate enumeration.
  ProvisionOptions search;
};

/// plan_spot()'s answer: the cheapest (shape, durability) pairing by
/// expected cost under the fitted interruption process, next to the
/// durable-only reference for planned-vs-durable comparisons.
struct SpotProvisionPlan {
  bool feasible = false;
  FleetDurability durability = FleetDurability::kDurable;
  /// The chosen shape with its nominal (revocation-free) prediction.
  ProvisionPlan plan;
  /// Algorithm 1's durable-only answer over the same options.
  ProvisionPlan durable;
  util::DollarsPerHour bid{0.0};           ///< per worker instance; 0 = durable
  util::Seconds checkpoint_interval{0.0};  ///< co-optimized cadence; 0 = none
  util::Seconds expected_time{0.0};        ///< E[wall] under the fitted process
  util::Dollars expected_cost{0.0};
  double expected_revocations = 0.0;
  ExpectedRun estimate;            ///< renewal estimate behind expected_*
  InterruptionModel interruption;  ///< fitted process for the chosen type

  [[nodiscard]] std::string describe() const;
};

/// Degradation-aware inputs to Provisioner::replan(), measured by the caller
/// (the SLO sentinel) from the run so far. The defaults reproduce the healthy
/// prediction exactly, so pre-existing call sites are unchanged.
struct ReplanDegradation {
  /// Measured capability as a fraction of the model's nominal prediction
  /// (1.0 = the cluster performs as modeled; 0.8 = iterations run 25%
  /// longer than predicted). Predicted t_iter is scaled by 1/derate.
  double capability_derate = 1.0;
  /// Fraction of the remaining time budget held back as slack against
  /// further degradation (0.1 = plan as if 10% less time were left).
  double slack_margin = 0.0;
};

/// Cumulative hot-path statistics for one Provisioner (all plan/replan
/// calls since construction). Mirrored into telemetry when a registry is
/// attached via set_metrics().
struct PlannerStats {
  std::uint64_t plans = 0;                 ///< plan() + replan() calls
  std::uint64_t candidates_evaluated = 0;  ///< perf-model evaluations requested
  std::uint64_t candidates_pruned = 0;     ///< grid points provably skipped
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  [[nodiscard]] double cache_hit_rate() const {
    const double total = static_cast<double>(cache_hits + cache_misses);
    return total > 0.0 ? static_cast<double>(cache_hits) / total : 0.0;
  }
};

class Provisioner {
 public:
  Provisioner(CynthiaModel model, LossModel loss, std::vector<cloud::InstanceType> types);

  /// Movable for construction-time plumbing (bench harnesses aggregate a
  /// Provisioner by value); the cache and counters carry over.
  Provisioner(Provisioner&&) noexcept = default;
  Provisioner& operator=(Provisioner&&) = delete;
  Provisioner(const Provisioner&) = delete;
  Provisioner& operator=(const Provisioner&) = delete;

  /// Runs Algorithm 1. `mode` is the workload's sync mechanism. Throws
  /// std::invalid_argument for a non-finite goal or Tg <= 0 (as replan does
  /// for a non-finite budget or degradation, and plan_spot for a non-finite
  /// bid multiplier).
  [[nodiscard]] ProvisionPlan plan(ddnn::SyncMode mode, const ProvisionGoal& goal,
                                   const ProvisionOptions& options = {}) const;

  /// The rows plan() scans on the type at `type_index` (catalog order) for
  /// this goal: a few divisions over terms computed once per type, plus the
  /// window's floor (Theorem 4.1's ceilings inverted, then checked by
  /// computing the window there). Throws as plan() does for a bad goal and
  /// std::out_of_range for a bad index.
  [[nodiscard]] SearchWindow window(std::size_t type_index, ddnn::SyncMode mode,
                                    const ProvisionGoal& goal) const;

  /// Revocation-aware Algorithm 1 (the durability dimension): enumerates
  /// the same bounded (type, n_wk, n_ps) grid, fits one interruption model
  /// per type at bid = mean spot price x bid_multiplier, then prices every
  /// nominally-feasible shape as a durable, mixed (workers spot, PS
  /// on-demand) and all-spot fleet — each with its checkpoint cadence
  /// co-optimized against the fitted hazard — and keeps the cheapest
  /// variant whose *expected* wall time still meets Tg. The durable
  /// reference plan is always a candidate, so the answer never costs more
  /// than Algorithm 1's. Deterministic: same market seed, same answer.
  [[nodiscard]] SpotProvisionPlan plan_spot(ddnn::SyncMode mode, const ProvisionGoal& goal,
                                            const cloud::SpotMarket& market,
                                            const SpotPlanOptions& options = {}) const;

  using ReplanDegradation = core::ReplanDegradation;

  /// Elastic re-planning after a fault: cheapest homogeneous plan that
  /// finishes `remaining_iterations` global updates within `remaining_time`.
  /// Theorem 4.1's worker bounds assume the iteration count comes from the
  /// loss model; here it is pinned by the checkpoint instead, so the search
  /// scans the exhaustive grid (pruned by the same bound structure) and
  /// keeps the cheapest feasible candidate (possibly a different n_wk/n_ps
  /// than the original plan). `degradation` biases the prediction by the
  /// measured slowdown and holds back a slack margin, so the new plan
  /// survives the conditions that invalidated the old one.
  [[nodiscard]] ProvisionPlan replan(ddnn::SyncMode mode, long remaining_iterations,
                                     util::Seconds remaining_time,
                                     const ProvisionOptions& options = {},
                                     const ReplanDegradation& degradation = {}) const;

  /// Candidates examined by the last call when keep_trace was set, in
  /// catalog order, then scan order.
  [[nodiscard]] const std::vector<CandidateEvaluation>& considered() const {
    return considered_;
  }

  [[nodiscard]] const CynthiaModel& model() const { return model_; }
  [[nodiscard]] const LossModel& loss() const { return loss_; }

  /// Snapshot of the cumulative hot-path counters.
  [[nodiscard]] PlannerStats stats() const;

  /// Attaches a metrics registry: every subsequent plan/replan records its
  /// wall-clock latency plus cache/prune counters (telemetry/telemetry.hpp
  /// names). Not owned; nullptr detaches.
  void set_metrics(telemetry::MetricsRegistry* metrics) { metrics_ = metrics; }

 private:
  struct TypeSearch;  // per-type search result (provisioner.cpp)

  CynthiaModel model_;
  LossModel loss_;
  std::vector<cloud::InstanceType> types_;
  std::vector<BoundTerms> terms_;  ///< Theorem 4.1's budget-free half, per type
  mutable PredictionCache cache_;
  mutable std::vector<CandidateEvaluation> considered_;
  mutable std::uint64_t plans_ = 0;
  mutable std::uint64_t evaluated_ = 0;
  mutable std::uint64_t pruned_ = 0;
  util::OwnerThread owner_;
  telemetry::MetricsRegistry* metrics_ = nullptr;

  /// Theorem 4.1 for the type at `type_index`, and the rows it leaves.
  [[nodiscard]] WorkerBounds bounds_for(std::size_t type_index, ddnn::SyncMode mode,
                                        const ProvisionGoal& goal) const;
  [[nodiscard]] SearchWindow window_of(std::size_t type_index, const WorkerBounds& bounds,
                                       ddnn::SyncMode mode) const;

  /// Memoized predict_iteration over the homogeneous candidate shape.
  [[nodiscard]] IterationPrediction predict_cached(const cloud::InstanceType& type,
                                                   std::size_t type_index, int n_wk, int n_ps,
                                                   ddnn::SyncMode mode, bool use_cache) const;

  /// Algorithm 1's scan of one row: workers n_from..n_to with n_ps PS nodes
  /// on the type at `type_index`, each candidate running iterations_at(n)
  /// iterations at its predicted t_iter / derate against `budget` seconds,
  /// pruned as docs/PERF.md argues. Folds the row into `out` (trace, local
  /// best, counters); with `first_feasible` it stops at the row's first
  /// feasible candidate (line 11). Returns whether the row had one.
  template <class IterationsAt>
  bool scan_row(std::size_t type_index, ddnn::SyncMode mode, int n_ps, int n_from, int n_to,
                const IterationsAt& iterations_at, double derate, double budget,
                const ProvisionOptions& options, bool first_feasible, TypeSearch& out) const;

  /// Runs `search_type` for each instance type in catalog order, publishes
  /// the trace and counters, and returns the cheapest local best (strict
  /// `<`, so the earliest type wins ties). The caller fills in
  /// total_iterations.
  template <class SearchFn>
  ProvisionPlan search_catalog(SearchFn&& search_type) const;
  void record_latency(util::Seconds planner_seconds) const;
};

/// Eq. 8: dollar cost of running the homogeneous plan for `duration`.
util::Dollars plan_cost(const cloud::InstanceType& type, int n_workers, int n_ps,
                        util::Seconds duration);

}  // namespace cynthia::core
