#include "core/provisioner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace cynthia::core {

namespace {

/// Self-timing scope for the operator-facing planner-latency metric. This
/// wall-clock read never feeds simulated time — it only measures how long
/// Algorithm 1 itself took.
class PlannerTimer {
 public:
  explicit PlannerTimer(bool enabled) : enabled_(enabled) {
    if (enabled_) {
      start_ = std::chrono::steady_clock::now();  // cynthia-lint: allow(DET-001) — planner self-timing
    }
  }

  [[nodiscard]] double seconds() const {
    if (!enabled_) return 0.0;
    const auto dt = std::chrono::steady_clock::now() - start_;  // cynthia-lint: allow(DET-001) — planner self-timing
    return std::chrono::duration<double>(dt).count();  // cynthia-lint: allow(DET-001) — planner self-timing
  }

 private:
  bool enabled_;
  // cynthia-lint: allow(DET-001) — planner self-timing state, never simulated time
  std::chrono::steady_clock::time_point start_;
};

/// Numerically-safe per-(type, n_ps) lower bounds on a candidate's
/// predicted iteration time. Every expression replicates the operation
/// order of CynthiaModel::predict_iteration bit-for-bit where equality
/// matters (t_comm) and uses provably-not-larger inputs elsewhere
/// (utilization <= 1), so for every n:
///   t_comm_lb(n) == prediction.t_comm            (exact)
///   comp_floor(n) <= prediction.t_comp           (rounding-monotone)
/// and therefore t_iter_lb(n) <= prediction.t_iter. Pruning on these
/// bounds can only skip candidates the unpruned scan would also reject,
/// which is what makes the pruned search bit-identical (docs/PERF.md).
struct RowBounds {
  double witer = 0.0;
  double gparam = 0.0;
  double cpu = 0.0;        ///< per-docker compute capability of the type
  double bw_supply = 0.0;  ///< headroom * aggregate effective PS bandwidth

  RowBounds(const CynthiaModel& model, const cloud::InstanceType& type, int n_ps) {
    const auto& profile = model.profile();
    witer = profile.witer.value();
    gparam = profile.gparam.value();
    cpu = type.compute_gflops().value();
    // Same summation order as estimate_utilization's PS loop.
    double bw = 0.0;
    for (int i = 0; i < n_ps; ++i) bw += effective_ps_bandwidth(type).value();
    bw_supply = model.supply_headroom() * bw;
  }

  /// Exact t_comm for the candidate (Eq. 5 / the ASP branch).
  [[nodiscard]] double t_comm(ddnn::SyncMode mode, int n) const {
    if (mode == ddnn::SyncMode::BSP) {
      return 2.0 * gparam * static_cast<double>(n) / bw_supply;
    }
    return 2.0 * gparam / bw_supply;
  }

  /// t_comp at full utilization (u == 1), a lower bound on the real t_comp.
  [[nodiscard]] double comp_floor(ddnn::SyncMode mode, int n) const {
    if (mode == ddnn::SyncMode::BSP) return witer / (static_cast<double>(n) * cpu);
    return witer / cpu;
  }

  /// Lower bound on t_iter combining the two (max for BSP, sum for ASP,
  /// mirroring Eq. 3's combination rule).
  [[nodiscard]] double t_iter_lb(ddnn::SyncMode mode, int n) const {
    if (mode == ddnn::SyncMode::BSP) return std::max(comp_floor(mode, n), t_comm(mode, n));
    return comp_floor(mode, n) + t_comm(mode, n);
  }
};

/// plan()'s and window()'s goal validation.
void check_goal(const ProvisionGoal& goal) {
  if (!std::isfinite(goal.time_goal.value()) || goal.time_goal.value() <= 0.0) {
    throw std::invalid_argument("Provisioner: time goal must be finite and > 0");
  }
  if (!std::isfinite(goal.target_loss)) {
    throw std::invalid_argument("Provisioner: target loss must be finite");
  }
}

/// Lower bound on a candidate's dollar cost given a lower bound on its
/// total time — the same expression shape as plan_cost().
double cost_lb(const cloud::InstanceType& type, int n, int n_ps, double total_time_lb) {
  const util::DollarsPerHour hourly = type.docker_price() * static_cast<double>(n + n_ps);
  return (hourly * util::Seconds{total_time_lb}).value();
}

}  // namespace

util::Dollars plan_cost(const cloud::InstanceType& type, int n_workers, int n_ps,
                        util::Seconds duration) {
  const util::DollarsPerHour hourly = type.docker_price() * static_cast<double>(n_workers + n_ps);
  return hourly * duration;
}

std::string ProvisionPlan::describe() const {
  std::ostringstream os;
  if (!feasible) {
    os << "infeasible (no plan meets the goal)";
    return os.str();
  }
  os << n_workers << " worker(s) + " << n_ps << " PS on " << type.name << ", "
     << iterations << " iterations, predicted " << predicted_time.value() << " s, $"
     << predicted_cost.value();
  return os.str();
}

/// Per-instance-type search result: the type's local best candidate plus
/// the trace and counters its scan produced. Pruning compares against this
/// local best, never the running best across types, so each type's scan
/// (and the PlannerStats counts) is independent of the others.
struct Provisioner::TypeSearch {
  bool has_best = false;
  CandidateEvaluation best;
  WorkerBounds bounds;
  std::vector<CandidateEvaluation> trace;
  std::uint64_t evaluated = 0;
  std::uint64_t pruned = 0;
};

Provisioner::Provisioner(CynthiaModel model, LossModel loss,
                         std::vector<cloud::InstanceType> types)
    : model_(std::move(model)),
      loss_(std::move(loss)),
      types_(std::move(types)),
      cache_(types_.size()) {
  if (types_.empty()) throw std::invalid_argument("Provisioner: empty instance type list");
  // A zero rate divides by zero in the Theorem 4.1 bounds, and a zero price
  // makes any shape free; reject both instead of planning on them.
  for (const cloud::InstanceType& t : types_) {
    for (const double v : {t.compute_gflops().value(), t.core_gflops.value(), t.nic_mbps.value(),
                           t.price.value()}) {
      if (!(std::isfinite(v) && v > 0.0)) {
        throw std::invalid_argument("Provisioner: instance type '" + t.name +
                                    "' needs finite positive GFLOPS, bandwidth and price");
      }
    }
    terms_.push_back(bound_terms(model_.profile(), loss_, t, model_.supply_headroom()));
  }
}

WorkerBounds Provisioner::bounds_for(std::size_t type_index, ddnn::SyncMode mode,
                                     const ProvisionGoal& goal) const {
  return bounds_for_goal(terms_[type_index], loss_, mode, goal.time_goal, goal.target_loss);
}

SearchWindow Provisioner::window_of(std::size_t type_index, const WorkerBounds& bounds,
                                    ddnn::SyncMode mode) const {
  SearchWindow w;
  if (!bounds.feasible || bounds.n_lower > kMaxWorkersQuota) return w;  // no rows
  w.n_lower = bounds.n_lower;
  w.n_ps = bounds.n_ps;
  w.upper[0] = std::min(kMaxWorkersQuota, bounds.n_upper);  // Eqs. 19/23 at n_ps
  for (int extra = 1; extra <= kMaxExtraPs; ++extra) {
    w.upper[static_cast<std::size_t>(extra)] =
        std::min(kMaxWorkersQuota,
                 row_upper_bound(terms_[type_index], bounds, mode, bounds.n_ps + extra));
  }
  return w;
}

SearchWindow Provisioner::window(std::size_t type_index, ddnn::SyncMode mode,
                                 const ProvisionGoal& goal) const {
  check_goal(goal);
  if (type_index >= types_.size()) throw std::out_of_range("Provisioner::window: type index");
  const WorkerBounds bounds = bounds_for(type_index, mode, goal);
  SearchWindow w = window_of(type_index, bounds, mode);
  // The floor: the smallest goal that keeps every ceiling fixing the window
  // (bounds_for_goal's terms inverted), nudged up past rounding and kept only
  // if the window there is this one. Each window term is weakly monotone in
  // the goal, so equal windows at both ends hold at every goal between, and
  // no rows stays no rows at every smaller goal (n_lower only grows, u falls).
  if (w.empty()) {
    w.floor = util::Seconds{0.0};
    return w;
  }
  const BoundTerms& t = terms_[type_index];
  const double lower = w.n_lower;
  double candidate = 0.0;
  if (mode == ddnn::SyncMode::BSP) {
    // n_lower holds while witer s / (Tg cwk) <= n_lower (Eq. 16); n_ps and
    // each row above n_lower hold while u = Tg bps / (2 s gparam) (Eq. 17)
    // stays above min_u (Eqs. 18-19).
    const double s = static_cast<double>(bounds.iterations);
    double min_u = lower / w.n_ps;
    for (int k = 0; k <= kMaxExtraPs; ++k) {
      const int upper = w.upper[static_cast<std::size_t>(k)];
      if (upper > w.n_lower) min_u = std::max(min_u, (upper - 1.0) / (w.n_ps + k));
    }
    candidate = std::max(t.witer * s / (lower * t.cwk), min_u * 2.0 * s * t.gparam / t.bps);
  } else {  // n_lower (ratio^2 for ASP, ratio phi for SSP) fixes the rest
    const double scale = t.witer * loss_.beta0() / (t.cwk * (goal.target_loss - loss_.beta1()));
    candidate = mode == ddnn::SyncMode::SSP ? scale * t.ssp_phi / lower : scale / std::sqrt(lower);
  }
  const util::Seconds floor{candidate * (1.0 + 1e-9)};
  const bool holds = floor.value() > 0.0 && floor < goal.time_goal &&
                     window_of(type_index, bounds_for(type_index, mode, {floor, goal.target_loss}),
                               mode) == w;
  w.floor = holds ? floor : goal.time_goal;
  return w;
}

IterationPrediction Provisioner::predict_cached(const cloud::InstanceType& type,
                                                std::size_t type_index, int n_wk, int n_ps,
                                                ddnn::SyncMode mode, bool use_cache) const {
  if (!use_cache) {
    return model_.predict_iteration(ddnn::ClusterSpec::homogeneous(type, n_wk, n_ps), mode);
  }
  const PredictionCache::Key key = PredictionCache::pack(
      static_cast<std::uint32_t>(type_index), static_cast<std::uint32_t>(n_wk),
      static_cast<std::uint32_t>(n_ps), static_cast<std::uint32_t>(mode));
  return cache_.get_or_compute(key, [&] {
    return model_.predict_iteration(ddnn::ClusterSpec::homogeneous(type, n_wk, n_ps), mode);
  });
}

template <class IterationsAt>
bool Provisioner::scan_row(std::size_t type_index, ddnn::SyncMode mode, int n_ps, int n_from,
                           int n_to, const IterationsAt& iterations_at, double derate,
                           double budget, const ProvisionOptions& options, bool first_feasible,
                           TypeSearch& out) const {
  const cloud::InstanceType& type = types_[type_index];
  const RowBounds row(model_, type, n_ps);
  bool any_feasible = false;
  for (int n = n_from; n <= n_to; ++n) {
    // Footprint grows with n: the whole remaining row is over the cap.
    if (options.max_total_dockers > 0 && n + n_ps > options.max_total_dockers) break;
    // BSP: the budget is global; ASP/SSP: per worker (Constraint 9 applies to
    // the per-iteration time times the iterations the critical path executes).
    const long iterations = iterations_at(n);
    const double di = static_cast<double>(iterations);
    if (options.prune) {
      // The evaluation's own operation order, (t / derate) * iterations, so
      // each bound stays <= the total time it bounds.
      const double total_lb = (row.t_iter_lb(mode, n) / derate) * di;
      // From here to n_to the row bound never falls and cost_lb rises: BSP's
      // exact t_comm grows with n at a fixed iteration count, and an ASP/SSP
      // tail at one iteration per worker has a flat t_iter_lb.
      const bool monotone_tail =
          mode == ddnn::SyncMode::BSP || (iterations == 1 && iterations_at(n_to) == 1);
      if (monotone_tail) {
        const double row_lb =
            mode == ddnn::SyncMode::BSP ? (row.t_comm(mode, n) / derate) * di : total_lb;
        // The cost break needs a local best, a feasible candidate; on the
        // window's rows it comes from this row (a feasible row ends the PS
        // escalation), so the break cannot change that decision.
        if (row_lb > budget ||
            (out.has_best && cost_lb(type, n, n_ps, row_lb) >= out.best.cost)) {
          out.pruned += static_cast<std::uint64_t>(n_to - n + 1);
          break;
        }
      }
      if (total_lb > budget) {
        ++out.pruned;  // provably infeasible; skip this n only
        continue;
      }
    }
    IterationPrediction p = predict_cached(type, type_index, n, n_ps, mode, options.use_cache);
    ++out.evaluated;
    p.t_iter /= derate;
    const double total_time = (p.t_iter * di).value();
    const double cost = plan_cost(type, n, n_ps, util::Seconds{total_time}).value();
    // A saturated step count is no count, and an ASP/SSP total (iterations
    // per worker times n) must fit a long: neither candidate can be planned.
    const bool countable =
        iterations < std::numeric_limits<long>::max() &&
        (mode == ddnn::SyncMode::BSP || iterations <= std::numeric_limits<long>::max() / n);
    const bool feasible = countable && total_time <= budget;
    const bool better = feasible && (!out.has_best || cost < out.best.cost);
    if (options.keep_trace || better) {
      CandidateEvaluation c{.type = type.name, .n_workers = n, .n_ps = n_ps,
                            .iterations = iterations, .t_iter = p.t_iter.value(),
                            .total_time = total_time, .cost = cost, .feasible = feasible,
                            .prediction = p};
      if (options.keep_trace) out.trace.push_back(c);
      if (better) {
        out.has_best = true;
        out.best = std::move(c);
      }
    }
    if (!feasible) continue;
    any_feasible = true;
    if (first_feasible) break;  // Alg. 1 line 11
  }
  return any_feasible;
}

template <class SearchFn>
ProvisionPlan Provisioner::search_catalog(SearchFn&& search_type) const {
  ProvisionPlan best;
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<CandidateEvaluation> trace;
  std::uint64_t evaluated = 0, pruned = 0;
  for (std::size_t ti = 0; ti < types_.size(); ++ti) {
    TypeSearch r = search_type(ti);
    evaluated += r.evaluated;
    pruned += r.pruned;
    trace.insert(trace.end(), std::make_move_iterator(r.trace.begin()),
                 std::make_move_iterator(r.trace.end()));
    if (!r.has_best || r.best.cost >= best_cost) continue;
    best_cost = r.best.cost;
    best.feasible = true;
    best.type = types_[ti];
    best.n_workers = r.best.n_workers;
    best.n_ps = r.best.n_ps;
    best.iterations = r.best.iterations;
    best.t_iter = r.best.t_iter;
    best.predicted_time = util::Seconds{r.best.total_time};
    best.predicted_cost = util::Dollars{r.best.cost};
    best.diagnostics = r.best.prediction;
    best.bounds = r.bounds;
  }

  ++plans_;
  evaluated_ += evaluated;
  pruned_ += pruned;
  considered_ = std::move(trace);  // empty unless keep_trace
  return best;
}

void Provisioner::record_latency(util::Seconds planner_seconds) const {
  if (metrics_ == nullptr) return;
  // Latencies span sub-microsecond cache hits to milliseconds of cold
  // exhaustive scans; half-decade buckets keep the p50 readable.
  telemetry::HistogramOptions hist;
  hist.lowest_bound = 1e-7;
  hist.growth = 3.1622776601683795;  // sqrt(10): two buckets per decade
  hist.bucket_count = 24;
  metrics_->histogram(telemetry::metric::kPlannerPlanSeconds, hist).observe(planner_seconds.value());
  metrics_->counter(telemetry::metric::kPlannerPlans).inc(1.0);
  const PlannerStats s = stats();
  metrics_->gauge(telemetry::metric::kPlannerCandidates)
      .set(static_cast<double>(s.candidates_evaluated));
  metrics_->gauge(telemetry::metric::kPlannerPruned)
      .set(static_cast<double>(s.candidates_pruned));
  metrics_->gauge(telemetry::metric::kPlannerCacheHits).set(static_cast<double>(s.cache_hits));
  metrics_->gauge(telemetry::metric::kPlannerCacheMisses)
      .set(static_cast<double>(s.cache_misses));
  metrics_->gauge(telemetry::metric::kPlannerCacheHitRate).set(s.cache_hit_rate());
}

PlannerStats Provisioner::stats() const {
  PlannerStats s;
  s.plans = plans_;
  s.candidates_evaluated = evaluated_;
  s.candidates_pruned = pruned_;
  s.cache_hits = cache_.hits();
  s.cache_misses = cache_.misses();
  return s;
}

ProvisionPlan Provisioner::plan(ddnn::SyncMode mode, const ProvisionGoal& goal,
                                const ProvisionOptions& options) const {
  owner_.check("Provisioner");
  check_goal(goal);
  const PlannerTimer timer(metrics_ != nullptr);

  const double budget = goal.time_goal.value();
  const auto iterations_at = [&](int n) { return loss_.iterations_for(goal.target_loss, n); };
  auto search_type = [&](std::size_t ti) -> TypeSearch {
    TypeSearch out;
    if (options.exhaustive) {
      for (int n_ps = 1; n_ps <= kExhaustiveMaxPs; ++n_ps) {
        scan_row(ti, mode, n_ps, 1, kExhaustiveMaxWorkers, iterations_at, 1.0, budget, options,
                 false, out);
      }
      return out;
    }
    const WorkerBounds bounds = bounds_for(ti, mode, goal);
    const SearchWindow window = window_of(ti, bounds, mode);
    if (window.empty()) return out;
    out.bounds = bounds;
    // Minimum PS count first (Theorem 4.1); escalate only if nothing in the
    // interval meets the goal.
    for (int extra = 0; extra <= kMaxExtraPs; ++extra) {
      if (scan_row(ti, mode, window.n_ps + extra, window.n_lower,
                   window.upper[static_cast<std::size_t>(extra)], iterations_at, 1.0, budget,
                   options, options.first_feasible_only, out)) {
        break;
      }
    }
    return out;
  };

  ProvisionPlan best = search_catalog(search_type);
  if (best.feasible) {
    // ASP/SSP iteration budgets are per worker (Eq. 20 semantics).
    best.total_iterations = mode == ddnn::SyncMode::BSP
                                ? best.iterations
                                : best.iterations * static_cast<long>(best.n_workers);
  }
  record_latency(util::Seconds{timer.seconds()});
  return best;
}

ProvisionPlan Provisioner::replan(ddnn::SyncMode mode, long remaining_iterations,
                                  util::Seconds remaining_time,
                                  const ProvisionOptions& options,
                                  const ReplanDegradation& degradation) const {
  owner_.check("Provisioner");
  if (remaining_iterations <= 0) {
    throw std::invalid_argument("Provisioner::replan: nothing left to train");
  }
  if (!std::isfinite(remaining_time.value()) || !std::isfinite(degradation.capability_derate) ||
      !std::isfinite(degradation.slack_margin)) {
    throw std::invalid_argument("Provisioner::replan: non-finite budget or degradation");
  }
  if (degradation.capability_derate <= 0.0 || degradation.capability_derate > 1.0 ||
      degradation.slack_margin < 0.0 || degradation.slack_margin >= 1.0) {
    throw std::invalid_argument("Provisioner::replan: degradation inputs out of range");
  }
  // Degradation-aware budget: predictions run slower by the measured derate
  // and the deadline shrinks by the slack margin, so the chosen plan holds
  // under the conditions that invalidated the previous one.
  remaining_time = util::Seconds{remaining_time.value() * (1.0 - degradation.slack_margin)};
  if (remaining_time.value() <= 0.0) {
    // The budget is already blown; no cluster can fix that. Report the
    // failure as an infeasible plan rather than throwing — callers still
    // want the cheapest-effort answer in that case, which is "keep going".
    ProvisionPlan none;
    none.feasible = false;
    considered_.clear();
    return none;
  }
  const PlannerTimer timer(metrics_ != nullptr);

  const double budget = remaining_time.value();
  // BSP budgets are global; ASP/SSP execute remaining/n per worker.
  const auto iterations_at = [&](int n) {
    return mode == ddnn::SyncMode::BSP ? remaining_iterations
                                       : remaining_iterations / n + (remaining_iterations % n != 0);
  };
  auto search_type = [&](std::size_t ti) -> TypeSearch {
    TypeSearch out;
    for (int n_ps = 1; n_ps <= kExhaustiveMaxPs; ++n_ps) {
      scan_row(ti, mode, n_ps, 1, kExhaustiveMaxWorkers, iterations_at,
               degradation.capability_derate, budget, options, false, out);
    }
    return out;
  };

  ProvisionPlan best = search_catalog(search_type);
  if (best.feasible) best.total_iterations = remaining_iterations;
  record_latency(util::Seconds{timer.seconds()});
  return best;
}

const char* to_string(FleetDurability durability) {
  switch (durability) {
    case FleetDurability::kDurable: return "durable";
    case FleetDurability::kMixed: return "mixed";
    case FleetDurability::kAllSpot: return "all-spot";
  }
  return "?";
}

std::string SpotProvisionPlan::describe() const {
  std::ostringstream os;
  if (!feasible) {
    os << "infeasible (no fleet meets the goal)";
    return os.str();
  }
  os << to_string(durability) << " fleet: " << plan.n_workers << " worker(s) + " << plan.n_ps
     << " PS on " << plan.type.name << ", expected " << expected_time.value() << " s, $"
     << expected_cost.value() << " expected";
  if (durability != FleetDurability::kDurable) {
    os << " (bid $" << bid.value() << "/h";
    if (checkpoint_interval.value() > 0.0) {
      os << ", checkpoint every " << checkpoint_interval.value() << " s";
    }
    os << ", E[revocations] " << expected_revocations << ")";
  }
  return os.str();
}

SpotProvisionPlan Provisioner::plan_spot(ddnn::SyncMode mode, const ProvisionGoal& goal,
                                         const cloud::SpotMarket& market,
                                         const SpotPlanOptions& options) const {
  if (!std::isfinite(options.bid_multiplier) || options.bid_multiplier <= 0.0) {
    throw std::invalid_argument("plan_spot: bid multiplier must be finite and positive");
  }
  SpotProvisionPlan out;
  out.durable = plan(mode, goal, options.search);
  if (out.durable.feasible) {
    out.feasible = true;
    out.durability = FleetDurability::kDurable;
    out.plan = out.durable;
    out.expected_time = out.durable.predicted_time;
    out.expected_cost = out.durable.predicted_cost;
    out.estimate.finite = true;
    out.estimate.expected_busy = out.durable.predicted_time;
    out.estimate.expected_wall = out.durable.predicted_time;
  }

  // Enumerate the full bounded grid once (whole intervals, traced): a
  // durable-infeasible shape can never become feasible on spot — the
  // interruption process only stretches time — so the nominally-feasible
  // trace entries are exactly the spot-search candidates.
  ProvisionOptions sweep = options.search;
  sweep.keep_trace = true;
  sweep.first_feasible_only = false;
  (void)plan(mode, goal, sweep);
  const std::vector<CandidateEvaluation> candidates = considered();

  const util::Seconds ckpt_write = model_.profile().gparam / kCheckpointBandwidth;
  std::map<std::string, InterruptionModel> fits;  // ordered: deterministic reuse

  for (const CandidateEvaluation& c : candidates) {
    if (!c.feasible) continue;
    const auto type_it = std::find_if(types_.begin(), types_.end(),
                                      [&c](const cloud::InstanceType& t) { return t.name == c.type; });
    if (type_it == types_.end()) continue;
    const cloud::InstanceType& type = *type_it;

    auto fit = fits.find(c.type);
    if (fit == fits.end()) {
      const util::DollarsPerHour bid{market.mean_price(c.type) * options.bid_multiplier};
      fit = fits.emplace(c.type, fit_interruption_model(market, type, bid)).first;
    }
    const InterruptionModel& process = fit->second;
    if (process.held.value() <= 0.0) continue;  // bid never acquires capacity

    RevocationRunShape shape;
    shape.work = util::Seconds{c.total_time};
    shape.t_iter = util::Seconds{c.t_iter};

    const FleetDurability variants[] = {FleetDurability::kMixed, FleetDurability::kAllSpot};
    for (const FleetDurability variant : variants) {
      RevocationRunShape s = shape;
      s.state_survives = variant == FleetDurability::kMixed;
      if (!s.state_survives) {
        s.checkpoint_write = ckpt_write;
        s.restore_read = ckpt_write;
      }
      const ExpectedRun estimate = optimize_checkpoint_cadence(process, s);
      if (!estimate.finite) continue;
      if (estimate.expected_wall.value() > goal.time_goal.value()) continue;  // Tg on E[wall]

      const util::DollarsPerHour docker = type.docker_price();
      const util::DollarsPerHour spot_docker{docker.value() * process.held_price_ratio};
      util::Dollars expected_cost{0.0};
      if (variant == FleetDurability::kMixed) {
        // Workers pay the fitted spot rate while busy; the durable PS tier
        // is held (and billed on-demand) through outages as well.
        expected_cost =
            util::Dollars{(spot_docker * estimate.expected_busy).value() * c.n_workers +
                          (docker * estimate.expected_wall).value() * c.n_ps};
      } else {
        expected_cost = util::Dollars{(spot_docker * estimate.expected_busy).value() *
                                      (c.n_workers + c.n_ps)};
      }
      // Strict improvement only: ties keep the earlier (deterministic
      // catalog/scan-order, mixed-before-all-spot) candidate.
      if (out.feasible && !(expected_cost.value() < out.expected_cost.value())) continue;

      out.feasible = true;
      out.durability = variant;
      out.plan = ProvisionPlan{};
      out.plan.feasible = true;
      out.plan.type = type;
      out.plan.n_workers = c.n_workers;
      out.plan.n_ps = c.n_ps;
      out.plan.iterations = c.iterations;
      out.plan.total_iterations = mode == ddnn::SyncMode::BSP
                                      ? c.iterations
                                      : c.iterations * static_cast<long>(c.n_workers);
      out.plan.t_iter = c.t_iter;
      out.plan.predicted_time = util::Seconds{c.total_time};
      out.plan.predicted_cost = util::Dollars{c.cost};
      out.plan.diagnostics = c.prediction;
      out.bid = process.bid;
      out.checkpoint_interval = estimate.checkpoint_interval;
      out.expected_time = estimate.expected_wall;
      out.expected_cost = expected_cost;
      out.expected_revocations = estimate.expected_revocations;
      out.estimate = estimate;
      out.interruption = process;
    }
  }
  return out;
}

}  // namespace cynthia::core
