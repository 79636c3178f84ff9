// Theorem 4.1: search-space bounds for the provisioned worker count and the
// minimum PS count (Eqs. 12-14 and Appendix A).
//
// These bounds are what makes Algorithm 1 cheap: instead of scanning every
// (n_wk, n_ps) pair, Cynthia derives (a) the maximum worker:PS ratio r that
// keeps the PS un-bottlenecked (Eq. 12), (b) the smallest worker count that
// can meet the time goal at full utilization, and (c) the largest worker
// count beyond which communication must dominate — then searches only that
// interval with the minimum viable PS count.
//
// The theorem comes in two halves. BoundTerms holds every term that depends
// on neither the time goal nor the loss target (Eq. 12's r, the per-docker
// compute and PS bandwidth, Eq. 19's balance denominator, the SSP staleness
// factor), so a planner computes it once per instance type; the budget-
// dependent remainder is a few divisions on top. compute_bounds and
// upper_bound_for_ps compose the two halves.
#pragma once

#include "cloud/instance.hpp"
#include "core/loss_model.hpp"
#include "ddnn/workload.hpp"
#include "profiler/profiler.hpp"
#include "util/units.hpp"

namespace cynthia::core {

struct WorkerBounds {
  bool feasible = false;  ///< false when no worker count can meet the goal
  int n_lower = 0;
  int n_upper = 0;
  int n_ps = 0;       ///< minimum PS count (Eqs. 18/22)
  double r = 0.0;     ///< Eq. 12 max worker:PS ratio
  double u = 0.0;     ///< Eq. 17 updated ratio (BSP only; = r for ASP)
  long iterations = 0;  ///< BSP: global iteration budget; ASP: recomputed per n
};

/// The budget-free half of Theorem 4.1 for one (workload, instance type).
struct BoundTerms {
  double witer = 0.0;        ///< profiled work per iteration
  double gparam = 0.0;       ///< profiled parameter payload
  double cwk = 0.0;          ///< per-docker compute of the type
  double bps = 0.0;          ///< headroom x effective PS bandwidth
  double r = 0.0;            ///< Eq. 12
  double balance_den = 0.0;  ///< 2 gparam cwk: Eq. 19's balance denominator
  double ssp_phi = 0.0;      ///< SSP staleness factor at the loss model's bound
};

/// Computes the budget-free terms. `supply_headroom` must match the
/// CynthiaModel used for prediction (see perf_model.hpp).
BoundTerms bound_terms(const profiler::ProfileResult& profile, const LossModel& loss,
                       const cloud::InstanceType& type, double supply_headroom = 0.85);

/// The budget-dependent half: Theorem 4.1 at time goal `t_goal` and loss
/// target `target_loss`. Throws std::invalid_argument for t_goal <= 0 or a
/// target at or below the loss asymptote.
WorkerBounds bounds_for_goal(const BoundTerms& terms, const LossModel& loss, ddnn::SyncMode mode,
                             util::Seconds t_goal, double target_loss);

/// Eq. 19/23 worker upper bound for `n_ps` PS nodes (n_ps > 0).
int row_upper_bound(const BoundTerms& terms, const WorkerBounds& bounds, ddnn::SyncMode mode,
                    int n_ps);

/// Computes Theorem 4.1 for a homogeneous cluster of instance type `type`,
/// a time goal `t_goal` and loss target `target_loss`.
WorkerBounds compute_bounds(const profiler::ProfileResult& profile, const LossModel& loss,
                            const cloud::InstanceType& type, ddnn::SyncMode mode,
                            util::Seconds t_goal, double target_loss,
                            double supply_headroom = 0.85);

/// Eq. 19/23 worker upper bound re-evaluated for a larger PS count than the
/// theorem's minimum (Algorithm 1 escalates n_ps when no candidate inside
/// the minimum-PS interval meets the goal).
int upper_bound_for_ps(const WorkerBounds& bounds, const profiler::ProfileResult& profile,
                       const cloud::InstanceType& type, ddnn::SyncMode mode, int n_ps,
                       double supply_headroom = 0.85);

/// Eq. 12 in isolation (also used by tests and the ablation bench).
double max_provisioning_ratio(const profiler::ProfileResult& profile,
                              const cloud::InstanceType& type, double supply_headroom = 0.85);

}  // namespace cynthia::core
