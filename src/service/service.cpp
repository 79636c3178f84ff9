#include "service/service.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "cloud/spot.hpp"
#include "core/revocation.hpp"
#include "orchestrator/cluster_manager.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cynthia::service {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kDeploySalt = 0x8f1bbcdcbfa53e0bull;
/// "Finish at any cost" budget for re-admitting revoked jobs whose time
/// goal is already blown: wide enough that any plan is feasible.
constexpr util::Seconds kAnyTimeBudget{1.0e9};
constexpr double kBudgetEpsilon = 1e-9;
/// Deterministic stand-in when a sub-simulated deployment exhausts its
/// join-repair budget (rare); admission proceeds with a painful latency
/// instead of unwinding.
constexpr util::Seconds kDeployFailureLatency{300.0};
/// Relative stddev of actual vs predicted run time (bounded normal, clamped
/// to +-3 sigma).
constexpr double kRuntimeNoise = 0.03;
/// Checkpoint granularity: iterations completed at revocation are rounded
/// down to a multiple of this before re-planning the remainder.
constexpr long kCheckpointIterations = 50;
/// Admission-scan width: queued jobs examined per capacity-release event
/// (priority order; smaller jobs may backfill past a blocked head).
constexpr int kBackfillWindow = 64;
/// Cached admission plans for queued jobs are recomputed at most this often,
/// bounding planner work to O(queue / interval) per release storm.
constexpr util::Seconds kReplanInterval{300.0};
/// A capped search on a type the region does not limit runs uncapped; the
/// ladder memo records its failure as a failure at this cap.
constexpr int kNoCap = std::numeric_limits<int>::max();

/// splitmix64-style mix: every (job, attempt) draws from its own stream, so
/// outcomes are independent of admission interleaving.
std::uint64_t mix_seed(std::uint64_t seed, long job_id, int attempt) {
  std::uint64_t h = seed + 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(job_id) + 1) +
                    0xbf58476d1ce4e5b9ull * static_cast<std::uint64_t>(attempt);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

std::string job_subject(long id) { return "job-" + std::to_string(id); }

/// Nearest-rank quantile over a sorted sample — exact order statistics, not
/// a histogram estimate.
double exact_quantile(const std::vector<double>& sorted, double quantile_frac) {
  if (sorted.empty()) return 0.0;
  const double pos = quantile_frac * static_cast<double>(sorted.size() - 1);
  auto rank = static_cast<std::size_t>(pos + 0.5);
  rank = std::min(rank, sorted.size() - 1);
  return sorted[rank];
}

}  // namespace

const char* to_string(Priority priority) {
  switch (priority) {
    case Priority::kBatch: return "batch";
    case Priority::kStandard: return "standard";
    case Priority::kProduction: return "production";
  }
  return "?";
}

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kCompleted: return "completed";
    case JobState::kRejected: return "rejected";
    case JobState::kTimedOut: return "timed-out";
    case JobState::kStarved: return "starved";
  }
  return "?";
}

/// One run()'s event-loop state. Lives on the stack of run(); every event
/// closure captures the engine pointer, which is stable for the run.
struct FleetEngine {
  ProvisioningService& svc;
  telemetry::Telemetry* tel;

  sim::Simulator sim;
  region::Region region;  ///< working copy of the service's template
  std::vector<JobOutcome> outcomes;

  /// What one fixed-budget rung of the admission ladder (rung 1: the
  /// original Tg; rung 2: any-time) already knows about a queued job. The
  /// inputs of its searches (budget, goal, `remaining`) do not change while
  /// the job waits, so their answers are remembered rather than recomputed
  /// on every capacity release; on_revoked resets the memo with `remaining`.
  ///
  /// Skipping is exact. The uncapped search gives the same plan for the same
  /// inputs, so only its type and footprint are kept: the call is skipped
  /// while that plan is infeasible or does not fit, and re-run when it fits.
  /// A capped search sees its cap only as the row cut `n + n_ps >
  /// max_total_dockers` (Provisioner::plan and replan). Rows, their order
  /// and every other cut ignore the cap, and the cost cut fires only after a
  /// feasible candidate. So at a fixed budget each row's scan at a smaller
  /// cap is a prefix of its scan at a larger one, and "no plan at cap c"
  /// implies "no plan at any cap <= c". Rung 0's budget shrinks with the
  /// clock, and Algorithm 1 is not monotone in the budget (the Theorem 4.1
  /// bounds move with Tg), so rung 0 keeps no memo.
  struct RungMemo {
    static constexpr int kUnknown = -2;     ///< uncapped search not run yet
    static constexpr int kInfeasible = -1;  ///< uncapped search found no plan
    int uncapped_type = kUnknown;           ///< else an index into stocked_types_
    int uncapped_footprint = 0;
    /// Per stocked type, the largest cap at which the capped search found no
    /// plan (0: none yet; kNoCap: it failed uncapped). Empty until the rung
    /// first reaches its capped searches.
    std::vector<int> failed_cap;
  };

  /// Queued-job planning cache: bounds planner work during release storms.
  struct QueueState {
    /// The cached decision is positive: from arrival until the first ladder
    /// run it is the arrival plan, which at_tg keeps as rung 1's uncapped
    /// answer (a ladder run that finds a plan admits the job at once).
    bool has_plan = false;
    double planned_at = -std::numeric_limits<double>::infinity();
    /// 0 = fresh job (iteration budget comes from the loss model); > 0 =
    /// iterations pinned by the last revocation checkpoint (replan path).
    long remaining = 0;
    RungMemo at_tg;     ///< rung 1
    RungMemo any_time;  ///< rung 2 (revoked jobs only)
  };
  std::vector<QueueState> qstate;

  struct RunningAttempt {
    cloud::InstanceType type;
    int n_workers = 0;
    int n_ps = 0;
    int dockers = 0;
    double prov = 0.0;
    double train_start = 0.0;
    double duration = 0.0;
    long attempt_total = 0;  ///< total_iterations this attempt set out to run
    bool mixed = false;      ///< workers on spot, PS on-demand (spot_fleets)
    sim::EventId completion = 0;
  };
  std::map<long, RunningAttempt> running;  ///< by outcome index

  std::vector<std::size_t> queue_;  ///< outcome indices, admission order

  util::Dollars fleet_cost{0.0};
  long total_attempts = 0;
  long total_replans = 0;
  long total_ladder_searches = 0;
  long total_revocations = 0;
  long total_spot_attempts = 0;

  /// Mixed-fleet pricing (options.spot_fleets): one seeded market per run
  /// plus lazily fitted per-type interruption models (core/revocation.hpp).
  std::optional<cloud::SpotMarket> spot_market;
  std::map<std::string, core::InterruptionModel> spot_fits;

  FleetEngine(ProvisioningService& service, telemetry::Telemetry* telemetry)
      : svc(service), tel(telemetry), region(service.region_) {
    if (svc.options_.spot_fleets) {
      spot_market.emplace(*svc.catalog_, svc.options_.seed);
    }
  }

  [[nodiscard]] const core::InterruptionModel& spot_fit(const cloud::InstanceType& type) {
    auto it = spot_fits.find(type.name);
    if (it == spot_fits.end()) {
      const util::DollarsPerHour bid{spot_market->mean_price(type.name) *
                                     svc.options_.spot_bid_multiplier};
      it = spot_fits.emplace(type.name, core::fit_interruption_model(*spot_market, type, bid))
               .first;
    }
    return it->second;
  }

  // -- queue order: priority desc, then arrival asc, then id asc ----------

  [[nodiscard]] bool before(std::size_t a, std::size_t b) const {
    const JobRequest& ra = outcomes[a].request;
    const JobRequest& rb = outcomes[b].request;
    if (ra.priority != rb.priority) return ra.priority > rb.priority;
    if (ra.arrival.value() != rb.arrival.value()) return ra.arrival < rb.arrival;
    return ra.id < rb.id;
  }

  void enqueue(std::size_t idx) {
    const auto pos = std::upper_bound(queue_.begin(), queue_.end(), idx,
                                      [this](std::size_t a, std::size_t b) { return before(a, b); });
    queue_.insert(pos, idx);
  }

  // -- capacity helpers ----------------------------------------------------

  [[nodiscard]] static int footprint(const core::ProvisionPlan& plan) {
    return plan.n_workers + plan.n_ps;
  }

  [[nodiscard]] bool fits_now(const core::ProvisionPlan& plan) const {
    return region.fits(plan.type.name, footprint(plan));
  }

  [[nodiscard]] bool fits_empty_region(const core::ProvisionPlan& plan) const {
    const int cap = region.capacity(plan.type.name);
    return cap == region::Region::kUnbounded || footprint(plan) <= cap;
  }

  /// Is the remembered uncapped answer worth a search now: not known yet,
  /// or a plan whose footprint fits the free slots of its type?
  [[nodiscard]] bool uncapped_may_fit(const RungMemo& memo) const {
    if (memo.uncapped_type == RungMemo::kUnknown) return true;
    if (memo.uncapped_type == RungMemo::kInfeasible) return false;
    const auto type = static_cast<std::size_t>(memo.uncapped_type);
    return region.fits(svc.stocked_types_[type].name, memo.uncapped_footprint);
  }

  void remember_uncapped(RungMemo& memo, const core::ProvisionPlan& plan) const {
    if (!plan.feasible) {
      memo.uncapped_type = RungMemo::kInfeasible;
      return;
    }
    const auto& types = svc.stocked_types_;
    const auto it = std::find_if(types.begin(), types.end(), [&](const cloud::InstanceType& t) {
      return t.name == plan.type.name;
    });
    CYNTHIA_CHECK(it != types.end(), "plan on an unstocked type: ", plan.type.name);
    memo.uncapped_type = static_cast<int>(it - types.begin());
    memo.uncapped_footprint = footprint(plan);
  }

  /// Could any capacity-capped plan for this goal run on the *empty*
  /// region? Jobs failing this can never start and are rejected up front
  /// instead of starving the queue head forever.
  [[nodiscard]] bool feasible_on_empty_region(ProvisioningService::WorkloadPlanners& wp,
                                              const core::ProvisionGoal& goal) {
    for (const auto& type : svc.stocked_types_) {
      const int cap = region.capacity(type.name);
      if (cap == 0) continue;
      core::ProvisionOptions opts;
      if (cap != region::Region::kUnbounded) opts.max_total_dockers = cap;
      if (wp.per_type.at(type.name)->plan(wp.spec.sync, goal, opts).feasible) return true;
    }
    return false;
  }

  // -- event handlers ------------------------------------------------------

  void on_arrival(std::size_t idx) {
    JobOutcome& o = outcomes[idx];
    const JobRequest& rq = o.request;
    if (tel != nullptr) {
      tel->journal.event(sim.now(), telemetry::JournalKind::kJobSubmitted, job_subject(rq.id),
                         rq.workload + " " + to_string(rq.priority) +
                             " tenant=" + rq.tenant + " lg=" + std::to_string(rq.goal.target_loss),
                         rq.goal.time_goal.value());
    }
    ProvisioningService::WorkloadPlanners* wp = svc.planners_for(rq.workload);
    if (wp == nullptr) {
      reject(idx, JobState::kRejected, "unknown workload '" + rq.workload + "'");
      return;
    }
    core::ProvisionPlan plan;
    try {
      plan = wp->all->plan(wp->spec.sync, rq.goal);
    } catch (const std::invalid_argument&) {
      reject(idx, JobState::kRejected, "invalid goal");
      return;
    }
    if (!plan.feasible) {
      reject(idx, JobState::kRejected, "no feasible plan for goal");
      return;
    }
    if (!region.is_unbounded() && !fits_empty_region(plan) &&
        !feasible_on_empty_region(*wp, rq.goal)) {
      reject(idx, JobState::kRejected, "exceeds region capacity");
      return;
    }
    qstate[idx].has_plan = true;
    qstate[idx].planned_at = sim.now();
    // Rung 1's uncapped search for a fresh job is exactly this call.
    remember_uncapped(qstate[idx].at_tg, plan);
    enqueue(idx);
    if (rq.max_queue_wait.value() > 0.0) {
      sim.at(rq.arrival.value() + rq.max_queue_wait.value(), [this, idx] { on_timeout(idx); });
    }
    scan();
  }

  void on_timeout(std::size_t idx) {
    JobOutcome& o = outcomes[idx];
    // Patience bounds time-to-first-capacity only: a job that was admitted
    // once (even if later revoked and re-queued) is carried to completion.
    if (o.state != JobState::kQueued || o.admitted_at.value() >= 0.0) return;
    const auto it = std::find(queue_.begin(), queue_.end(), idx);
    CYNTHIA_CHECK(it != queue_.end(), "timed-out job not queued: ", o.request.id);
    queue_.erase(it);
    reject(idx, JobState::kTimedOut, "patience exceeded");
  }

  void on_complete(std::size_t idx) {
    const auto it = running.find(static_cast<long>(idx));
    CYNTHIA_CHECK(it != running.end(), "completion for non-running job index ", idx);
    const RunningAttempt ra = it->second;
    running.erase(it);
    const double now = sim.now();
    region.release(ra.type.name, ra.dockers, util::Seconds{now});

    JobOutcome& o = outcomes[idx];
    o.run_seconds += util::Seconds{ra.duration};
    charge_attempt(idx, ra, util::Seconds{ra.duration}, telemetry::CostCause::kPlan);
    o.state = JobState::kCompleted;
    o.completed_at = util::Seconds{now};
    o.slo_met = (now - o.request.arrival.value()) <= o.request.goal.time_goal.value();
    if (tel != nullptr) {
      tel->journal.event(now, telemetry::JournalKind::kJobCompleted, job_subject(o.request.id),
                         o.slo_met ? "slo-met" : "slo-missed", o.cost.value());
    }
    clear_negative_caches();
    scan();
  }

  void on_revoked(std::size_t idx, sim::EventId completion) {
    const auto it = running.find(static_cast<long>(idx));
    if (it == running.end() || it->second.completion != completion) return;
    const RunningAttempt ra = it->second;
    running.erase(it);
    sim.cancel(ra.completion);
    const double now = sim.now();
    region.release(ra.type.name, ra.dockers, util::Seconds{now});

    JobOutcome& o = outcomes[idx];
    const double elapsed = now - ra.train_start;
    o.run_seconds += util::Seconds{elapsed};
    o.revocations += 1;
    total_revocations += 1;
    charge_attempt(idx, ra, util::Seconds{elapsed}, telemetry::CostCause::kFault);

    // Progress survives at checkpoint granularity — except on a mixed
    // fleet, where the on-demand PS keeps the parameters and every closed
    // iteration is durable. The remainder is pinned for the replan path.
    const long ckpt = ra.mixed ? 1 : kCheckpointIterations;
    const double frac = ra.duration > 0.0 ? elapsed / ra.duration : 0.0;
    long done = static_cast<long>(frac * static_cast<double>(ra.attempt_total)) / ckpt * ckpt;
    done = std::min(done, ra.attempt_total - 1);
    done = std::max<long>(done, 0);
    const long prior = qstate[idx].remaining > 0 ? qstate[idx].remaining : ra.attempt_total;
    qstate[idx].remaining = std::max<long>(1, prior - done);
    qstate[idx].has_plan = false;
    qstate[idx].planned_at = -std::numeric_limits<double>::infinity();
    qstate[idx].at_tg = {};
    qstate[idx].any_time = {};

    o.state = JobState::kQueued;
    if (tel != nullptr) {
      tel->journal.event(now, telemetry::JournalKind::kFaultInjected, job_subject(o.request.id),
                         std::string(ra.mixed ? "spot revocation (mixed fleet): " :
                                                "spot revocation: ") +
                             std::to_string(qstate[idx].remaining) + " iterations remain",
                         elapsed);
    }
    enqueue(idx);
    clear_negative_caches();
    scan();
  }

  // -- admission -----------------------------------------------------------

  /// A capacity release genuinely changes what the ladder can find, so
  /// negative planning caches (ladder found nothing) are dropped on every
  /// release; positive caches stay until kReplanInterval expires (the job
  /// keeps waiting for its planned type unless the wait grows stale).
  void clear_negative_caches() {
    for (const std::size_t idx : queue_) {
      if (!qstate[idx].has_plan) {
        qstate[idx].planned_at = -std::numeric_limits<double>::infinity();
      }
    }
  }

  void scan() {
    int examined = 0;
    std::size_t i = 0;
    while (i < queue_.size() && examined < kBackfillWindow) {
      const std::size_t idx = queue_[i];
      ++examined;
      if (try_admit(idx)) {
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }

  bool try_admit(std::size_t idx) {
    QueueState& st = qstate[idx];
    const double now = sim.now();
    if (now - st.planned_at <= kReplanInterval.value()) {
      // Cache window: reuse the last planning decision (or its negative).
      if (!st.has_plan || !uncapped_may_fit(st.at_tg)) return false;
      // It fits: plan again from the arrival inputs (same inputs, same plan).
      const JobRequest& rq = outcomes[idx].request;
      ProvisioningService::WorkloadPlanners* wp = svc.planners_for(rq.workload);
      commit(idx, wp->all->plan(wp->spec.sync, rq.goal));
      return true;
    }
    std::optional<core::ProvisionPlan> plan = admission_plan(idx);
    st.planned_at = now;
    st.has_plan = false;
    total_replans += 1;
    outcomes[idx].replans += 1;
    if (!plan.has_value()) return false;
    commit(idx, *plan);
    return true;
  }

  /// Re-plans a queued job against what the region has free *now*: first
  /// the unconstrained cost-optimal plan (if its footprint fits, it is
  /// optimal among fitting plans too), then per-type capacity-capped
  /// searches. Ladder: remaining SLO budget -> original Tg (best effort) ->
  /// for revoked jobs only, any-time (sunk work is never abandoned).
  std::optional<core::ProvisionPlan> admission_plan(std::size_t idx) {
    JobOutcome& o = outcomes[idx];
    const JobRequest& rq = o.request;
    QueueState& st = qstate[idx];
    ProvisioningService::WorkloadPlanners* wp = svc.planners_for(rq.workload);
    CYNTHIA_CHECK(wp != nullptr, "queued job lost its planners: ", rq.workload);
    const double now = sim.now();

    std::optional<core::ProvisionPlan> best;
    auto consider = [&](const core::ProvisionPlan& p) {
      if (!p.feasible || !fits_now(p)) return;
      if (!best.has_value() || p.predicted_cost < best->predicted_cost ||
          (p.predicted_cost == best->predicted_cost && p.type.name < best->type.name)) {
        best = p;
      }
    };
    auto search = [&](core::Provisioner& prov, util::Seconds budget,
                      const core::ProvisionOptions& opts) {
      total_ladder_searches += 1;
      if (st.remaining > 0) return prov.replan(wp->spec.sync, st.remaining, budget, opts);
      return prov.plan(wp->spec.sync, {budget, rq.goal.target_loss}, opts);
    };
    // `memo` is null on rung 0, which searches in full (see RungMemo).
    auto ladder_step = [&](util::Seconds budget, RungMemo* memo) {
      if (memo == nullptr || uncapped_may_fit(*memo)) {
        const core::ProvisionPlan plan = search(*wp->all, budget, {});
        if (memo != nullptr) remember_uncapped(*memo, plan);
        consider(plan);
        if (best.has_value()) return;  // unconstrained optimum fits: done
      }
      const auto& types = svc.stocked_types_;
      if (memo != nullptr) memo->failed_cap.resize(types.size());  // 0: no failure yet
      for (std::size_t t = 0; t < types.size(); ++t) {
        const int avail = region.available(types[t].name);
        if (avail == 0) continue;
        const int cap = avail == region::Region::kUnbounded ? kNoCap : avail;
        // Already failed at this cap or a larger one: fails here too.
        if (memo != nullptr && cap <= memo->failed_cap[t]) continue;
        core::ProvisionOptions opts;
        if (cap != kNoCap) opts.max_total_dockers = cap;
        const core::ProvisionPlan plan = search(*wp->per_type.at(types[t].name), budget, opts);
        if (memo != nullptr && !plan.feasible) memo->failed_cap[t] = cap;
        consider(plan);
      }
    };

    const double budget_left = rq.goal.time_goal.value() - (now - rq.arrival.value());
    if (budget_left > kBudgetEpsilon) ladder_step(util::Seconds{budget_left}, nullptr);
    if (!best.has_value()) ladder_step(rq.goal.time_goal, &st.at_tg);
    if (!best.has_value() && st.remaining > 0) ladder_step(kAnyTimeBudget, &st.any_time);
    return best;
  }

  void commit(std::size_t idx, const core::ProvisionPlan& plan) {
    const double now = sim.now();
    JobOutcome& o = outcomes[idx];
    const JobRequest& rq = o.request;
    const int dockers = footprint(plan);
    region.reserve(plan.type.name, dockers, util::Seconds{now});

    o.plan = plan;
    o.state = JobState::kRunning;
    if (o.admitted_at.value() < 0.0) {
      o.admitted_at = util::Seconds{now};
      o.queue_wait = util::Seconds{now - rq.arrival.value()};
    }
    o.attempts += 1;
    total_attempts += 1;
    qstate[idx].has_plan = false;

    RunningAttempt ra;
    ra.type = plan.type;
    ra.n_workers = plan.n_workers;
    ra.n_ps = plan.n_ps;
    ra.dockers = dockers;
    ra.attempt_total = std::max<long>(1, plan.total_iterations);
    // Revoked jobs re-plan onto mixed fleets: the remainder (pinned by the
    // last revocation) runs its workers on spot while the PS tier stays
    // on-demand, keeping the parameters durable across further revocations.
    ra.mixed = spot_market.has_value() && qstate[idx].remaining > 0;
    if (ra.mixed) total_spot_attempts += 1;
    ra.prov = deploy_latency(plan, mix_seed(svc.options_.seed ^ kDeploySalt, rq.id, o.attempts));
    o.provisioning += util::Seconds{ra.prov};
    ra.train_start = now + ra.prov;

    util::Rng rng(mix_seed(svc.options_.seed, rq.id, o.attempts));
    const double factor = rng.bounded_normal(1.0, kRuntimeNoise, 3.0 * kRuntimeNoise);
    ra.duration = std::max(1e-9, plan.predicted_time.value() * factor);

    // Revocation delay is always drawn so the attempt's stream is stable
    // whether or not the revocation process is enabled.
    const double mean_rev = svc.options_.mean_revocation_interval.value();
    const double exp_draw = -std::log(1.0 - rng.uniform(0.0, 1.0));
    const double rev_delay = mean_rev > 0.0 ? mean_rev * exp_draw
                                            : std::numeric_limits<double>::infinity();

    ra.completion = sim.at(ra.train_start + ra.duration, [this, idx] { on_complete(idx); });
    if (rev_delay < ra.duration) {
      const sim::EventId completion = ra.completion;
      sim.at(ra.train_start + rev_delay,
             [this, idx, completion] { on_revoked(idx, completion); });
    }
    running[static_cast<long>(idx)] = ra;

    if (tel != nullptr) {
      tel->journal.event(now, telemetry::JournalKind::kJobAdmitted, job_subject(rq.id),
                         plan.describe() + (ra.mixed ? " [mixed fleet: workers on spot]" : ""),
                         now - rq.arrival.value());
    }
  }

  /// Provisioning latency from a real ClusterManager deployment on a
  /// throwaway sub-simulation: boot/install/join walks with seeded jitter
  /// plus join-failure repair, isolated from the fleet clock.
  [[nodiscard]] static double deploy_latency(const core::ProvisionPlan& plan,
                                             std::uint64_t seed) {
    sim::Simulator sub;
    cloud::BillingMeter meter;
    orch::ClusterManager manager(sub, meter, seed);
    try {
      orch::Deployment deployment = manager.deploy(plan);
      const double latency = deployment.provisioning_seconds();
      manager.teardown(deployment);
      return latency;
    } catch (const std::exception&) {
      return kDeployFailureLatency.value();
    }
  }

  // -- accounting ----------------------------------------------------------

  /// Bit-exactness contract: the fleet total folds charge_prov then
  /// charge_train per attempt, in event order — exactly the order the two
  /// single-delta settlements hit the journal, so CostLedger::total()
  /// reproduces stats.total_cost bit-for-bit.
  /// Eq. 8 for an attempt's duration; mixed attempts blend the worker tier
  /// down to the fitted spot rate (spot off reproduces plan_cost exactly).
  [[nodiscard]] util::Dollars attempt_cost(const RunningAttempt& ra, util::Seconds duration) {
    if (!ra.mixed) return core::plan_cost(ra.type, ra.n_workers, ra.n_ps, duration);
    const double ratio = spot_fit(ra.type).held_price_ratio;
    const util::DollarsPerHour rate{ra.type.docker_price().value() *
                                    (ratio * ra.n_workers + ra.n_ps)};
    return rate * duration;
  }

  void charge_attempt(std::size_t idx, const RunningAttempt& ra, util::Seconds train_time,
                      telemetry::CostCause cause) {
    JobOutcome& o = outcomes[idx];
    const util::Dollars charge_total =
        attempt_cost(ra, util::Seconds{ra.prov + train_time.value()});
    const util::Dollars charge_prov = attempt_cost(ra, util::Seconds{ra.prov});
    const util::Dollars charge_train{charge_total.value() - charge_prov.value()};
    o.cost += charge_prov;
    o.cost += charge_train;
    fleet_cost += charge_prov;
    fleet_cost += charge_train;
    if (tel != nullptr) {
      const double now = sim.now();
      const std::string subject = job_subject(o.request.id);
      const std::string detail =
          ra.type.name + " x" + std::to_string(ra.dockers) + " attempt " + std::to_string(o.attempts);
      tel->journal.billing_delta(now, tel->journal.next_settlement(),
                                 telemetry::CostPhase::kProvision, cause, subject,
                                 charge_prov.value(), detail);
      tel->journal.billing_delta(now, tel->journal.next_settlement(), telemetry::CostPhase::kTrain,
                                 cause, subject, charge_train.value(), detail);
    }
  }

  void reject(std::size_t idx, JobState state, const std::string& reason) {
    const double now = sim.now();
    JobOutcome& o = outcomes[idx];
    o.state = state;
    o.completed_at = util::Seconds{now};
    o.queue_wait = util::Seconds{now - o.request.arrival.value()};
    o.reason = reason;
    if (tel != nullptr) {
      tel->journal.event(now, telemetry::JournalKind::kJobRejected, job_subject(o.request.id),
                         reason);
    }
  }

  // -- run -----------------------------------------------------------------

  FleetResult run(const std::vector<JobRequest>& requests) {
    outcomes.reserve(requests.size());
    for (const JobRequest& rq : requests) {
      JobOutcome o;
      o.request = rq;
      outcomes.push_back(std::move(o));
    }
    qstate.resize(outcomes.size());
    for (std::size_t idx = 0; idx < outcomes.size(); ++idx) {
      const double arrival = std::max(0.0, outcomes[idx].request.arrival.value());
      outcomes[idx].request.arrival = util::Seconds{arrival};
      sim.at(arrival, [this, idx] { on_arrival(idx); });
    }
    sim.run();
    CYNTHIA_CHECK(running.empty(), "fleet drained with jobs still running");

    const double end = sim.now();
    for (const std::size_t idx : queue_) {
      reject(idx, JobState::kStarved, "starved: fleet drained before capacity freed");
    }
    queue_.clear();
    region.advance_to(util::Seconds{end});

    FleetResult result;
    result.outcomes = std::move(outcomes);
    result.stats = build_stats(result.outcomes, end);
    result.digest = digest_of(result.outcomes);
    publish(result.stats, result.outcomes);
    return result;
  }

  [[nodiscard]] FleetStats build_stats(const std::vector<JobOutcome>& outs, double end) const {
    FleetStats s;
    s.submitted = static_cast<long>(outs.size());
    std::vector<double> waits;
    for (const JobOutcome& o : outs) {
      if (o.admitted_at.value() >= 0.0) {
        s.admitted += 1;
        waits.push_back(o.queue_wait.value());
      }
      switch (o.state) {
        case JobState::kCompleted: s.completed += 1; break;
        case JobState::kRejected: s.rejected += 1; break;
        case JobState::kTimedOut: s.timed_out += 1; break;
        case JobState::kStarved: s.starved += 1; break;
        case JobState::kQueued:
        case JobState::kRunning: break;
      }
      if (o.state == JobState::kCompleted && o.slo_met) s.slo_attained += 1;
    }
    s.attempts = total_attempts;
    s.replans = total_replans;
    s.ladder_searches = total_ladder_searches;
    s.revocations = total_revocations;
    s.spot_attempts = total_spot_attempts;
    if (s.submitted > 0) {
      s.slo_attain_rate = static_cast<double>(s.slo_attained) / static_cast<double>(s.submitted);
    }
    s.utilization = region.utilization(util::Seconds{end});
    std::sort(waits.begin(), waits.end());
    s.queue_wait_p50 = util::Seconds{exact_quantile(waits, 0.50)};
    s.queue_wait_p99 = util::Seconds{exact_quantile(waits, 0.99)};
    if (!waits.empty()) {
      double sum = 0.0;
      for (const double w : waits) sum += w;
      s.queue_wait_mean = util::Seconds{sum / static_cast<double>(waits.size())};
      s.queue_wait_max = util::Seconds{waits.back()};
    }
    s.total_cost = fleet_cost;
    if (s.slo_attained > 0) {
      s.dollars_per_goodput = fleet_cost.value() / static_cast<double>(s.slo_attained);
    }
    s.makespan = util::Seconds{end};
    return s;
  }

  [[nodiscard]] static std::uint64_t digest_of(const std::vector<JobOutcome>& outs) {
    std::uint64_t h = kFnvOffset;
    const auto fold_u64 = [&h](std::uint64_t v) {
      h = telemetry::detail::fnv1a(h, &v, sizeof v);
    };
    const auto fold_d = [&h](double v) { h = telemetry::detail::fnv1a(h, &v, sizeof v); };
    const auto fold_s = [&](const std::string& s) {
      fold_u64(s.size());
      h = telemetry::detail::fnv1a(h, s.data(), s.size());
    };
    for (const JobOutcome& o : outs) {
      fold_u64(static_cast<std::uint64_t>(o.request.id));
      fold_u64(static_cast<std::uint64_t>(o.state));
      fold_s(o.plan.type.name);
      fold_u64(static_cast<std::uint64_t>(o.plan.n_workers));
      fold_u64(static_cast<std::uint64_t>(o.plan.n_ps));
      fold_u64(static_cast<std::uint64_t>(o.plan.total_iterations));
      fold_d(o.admitted_at.value());
      fold_d(o.completed_at.value());
      fold_d(o.queue_wait.value());
      fold_d(o.provisioning.value());
      fold_d(o.run_seconds.value());
      fold_d(o.cost.value());
      fold_u64(static_cast<std::uint64_t>(o.attempts));
      fold_u64(static_cast<std::uint64_t>(o.replans));
      fold_u64(static_cast<std::uint64_t>(o.revocations));
      fold_u64(o.slo_met ? 1u : 0u);
    }
    return h;
  }

  void publish(const FleetStats& s, const std::vector<JobOutcome>& outs) const {
    if (tel == nullptr) return;
    namespace metric = telemetry::metric;
    telemetry::MetricsRegistry& m = tel->metrics;
    m.counter(metric::kServiceJobsSubmitted).inc(static_cast<double>(s.submitted));
    m.counter(metric::kServiceJobsAdmitted).inc(static_cast<double>(s.admitted));
    m.counter(metric::kServiceJobsCompleted).inc(static_cast<double>(s.completed));
    m.counter(metric::kServiceJobsRejected)
        .inc(static_cast<double>(s.rejected + s.timed_out + s.starved));
    m.counter(metric::kServiceReplans).inc(static_cast<double>(s.replans));
    m.counter(metric::kServiceRevocations).inc(static_cast<double>(s.revocations));
    telemetry::Histogram& waits = m.histogram(metric::kServiceQueueWaitSeconds);
    for (const JobOutcome& o : outs) {
      if (o.admitted_at.value() >= 0.0) waits.observe(o.queue_wait.value());
    }
    m.gauge(metric::kServiceSloAttainRate).set(s.slo_attain_rate);
    m.gauge(metric::kServiceUtilization).set(s.utilization);
    m.gauge(metric::kServiceDollarsPerGoodput).set(s.dollars_per_goodput);
  }
};

// -- ProvisioningService ---------------------------------------------------

ProvisioningService::ProvisioningService(region::Region region, const cloud::Catalog& catalog,
                                         ServeOptions options)
    : region_(std::move(region)), catalog_(&catalog), options_(std::move(options)) {
  for (const region::TypeCapacity& cap : region_.capacities()) {
    if (const auto type = catalog_->find(cap.type)) stocked_types_.push_back(*type);
  }
}

ProvisioningService::WorkloadPlanners* ProvisioningService::planners_for(
    const std::string& workload) {
  const auto it = planners_.find(workload);
  if (it != planners_.end()) return &it->second;
  ddnn::WorkloadSpec spec;
  try {
    spec = ddnn::workload_by_name(workload);
  } catch (const std::invalid_argument&) {
    return nullptr;
  }
  if (stocked_types_.empty()) return nullptr;  // empty region stocks nothing
  const core::Predictor predictor =
      core::Predictor::build(spec, catalog_->at(options_.baseline_type), options_.predictor);
  WorkloadPlanners planners;
  planners.spec = spec;
  planners.all = std::make_unique<core::Provisioner>(predictor.model(), predictor.loss(),
                                                     stocked_types_);
  for (const cloud::InstanceType& type : stocked_types_) {
    planners.per_type[type.name] = std::make_unique<core::Provisioner>(
        predictor.model(), predictor.loss(), std::vector<cloud::InstanceType>{type});
  }
  const auto [inserted, ok] = planners_.emplace(workload, std::move(planners));
  CYNTHIA_CHECK(ok, "duplicate planner insertion for ", workload);
  return &inserted->second;
}

FleetResult ProvisioningService::run(const std::vector<JobRequest>& requests,
                                     telemetry::Telemetry* telemetry) {
  if (util::invariants_enabled()) {
    std::map<long, bool> seen;
    for (const JobRequest& rq : requests) {
      CYNTHIA_CHECK(!seen[rq.id], "duplicate job id ", rq.id);
      seen[rq.id] = true;
    }
  }
  FleetEngine engine(*this, telemetry);
  return engine.run(requests);
}

}  // namespace cynthia::service
