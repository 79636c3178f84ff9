#include "service/service.hpp"

#include <algorithm>
#include <array>
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

  /// What one rung of the admission ladder knows about one stocked type while
  /// a job waits: the type's uncapped answer at the rung's budget and the
  /// largest cap at which its capped search found no plan. Rungs 1 (Tg) and
  /// 2 (any-time) never change their budget. Rung 0's (the SLO time left)
  /// only shrinks, and within one Theorem 4.1 search window (or replan's
  /// fixed grid) a smaller budget only turns candidates infeasible, so a
  /// fresh job's rung-0 entry keeps its window and is reset when the window
  /// moves. rung() skips every search these facts answer; docs/SERVICE.md
  /// ("Ladder memo") shows each skip is exact.
  struct TypeMemo {
    static constexpr int kUnknown = -2;     ///< uncapped search not run yet
    static constexpr int kInfeasible = -1;  ///< uncapped search found no plan
    int footprint = kUnknown;               ///< else the uncapped answer's dockers
    int failed_cap = 0;                     ///< 0: no capped search failed yet
    double cost = 0.0;                      ///< the uncapped answer's dollars
    double predicted_time = 0.0;            ///< and seconds
    core::SearchWindow window;              ///< rung 0 of a fresh job only
  };
  /// One entry per stocked type; empty until the job first reaches the rung.
  using RungMemo = std::vector<TypeMemo>;

  /// Queued-job planning cache: bounds planner work during release storms.
  struct QueueState {
    /// Resolved once, at arrival.
    ProvisioningService::WorkloadPlanners* planners = nullptr;
    /// The cached decision is positive: from arrival until the first ladder
    /// run it is the arrival plan, which is rung 1's uncapped answer (a
    /// ladder run that finds a plan admits the job at once).
    bool has_plan = false;
    double planned_at = -std::numeric_limits<double>::infinity();
    /// `releases` at the last ladder run: a negative decision expires with
    /// the next capacity release.
    std::uint64_t planned_release = 0;
    /// 0 = fresh job (iteration budget comes from the loss model); > 0 =
    /// iterations pinned by the last revocation checkpoint (replan path).
    long remaining = 0;
    /// Rung 0 (the SLO time left), 1 (Tg), 2 (any-time; revoked jobs only).
    /// Dropped at admission: a revoked job re-enters the queue with new inputs.
    std::array<RungMemo, 3> rungs;
  };
  std::vector<QueueState> qstate;
  /// Capacity releases (completions and revocations) so far.
  std::uint64_t releases = 0;

  struct RunningAttempt {
    std::size_t type = 0;  ///< stocked index
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

  /// A ladder rung's answer: the stocked type and the plan to admit.
  struct Admission {
    std::size_t type = 0;
    core::ProvisionPlan plan;
  };
  /// One rung run's scratch, per stocked type: the plan its uncapped search
  /// returned in this run, if it ran.
  std::vector<core::ProvisionPlan> fresh_plans;
  std::vector<char> fresh;

  util::Dollars fleet_cost{0.0};
  long total_attempts = 0;
  long total_replans = 0;
  long total_ladder_searches = 0;
  long total_revocations = 0;
  long total_spot_attempts = 0;

  /// Mixed-fleet pricing (options.spot_fleets): one seeded market per run
  /// plus lazily fitted interruption models per stocked type
  /// (core/revocation.hpp).
  std::optional<cloud::SpotMarket> spot_market;
  std::vector<std::optional<core::InterruptionModel>> spot_fits;

  FleetEngine(ProvisioningService& service, telemetry::Telemetry* telemetry)
      : svc(service),
        tel(telemetry),
        region(service.region_),
        fresh_plans(service.stocked_types_.size()),
        spot_fits(service.stocked_types_.size()) {
    if (svc.options_.spot_fleets) {
      spot_market.emplace(*svc.catalog_, svc.options_.seed);
    }
  }

  [[nodiscard]] const cloud::InstanceType& stocked(std::size_t type) const {
    return svc.stocked_types_[type];
  }
  [[nodiscard]] std::size_t slot_of(std::size_t type) const { return svc.stocked_slots_[type]; }

  [[nodiscard]] const core::InterruptionModel& spot_fit(std::size_t type) {
    std::optional<core::InterruptionModel>& fit = spot_fits[type];
    if (!fit.has_value()) {
      const util::DollarsPerHour bid{spot_market->mean_price(stocked(type).name) *
                                     svc.options_.spot_bid_multiplier};
      fit = core::fit_interruption_model(*spot_market, stocked(type), bid);
    }
    return *fit;
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

  // -- planning helpers ----------------------------------------------------

  [[nodiscard]] static int footprint(const core::ProvisionPlan& plan) {
    return plan.n_workers + plan.n_ps;
  }

  static void remember(TypeMemo& memo, const core::ProvisionPlan& plan) {
    if (!plan.feasible) {
      memo.footprint = TypeMemo::kInfeasible;
      return;
    }
    memo.footprint = footprint(plan);
    memo.cost = plan.predicted_cost.value();
    memo.predicted_time = plan.predicted_time.value();
  }

  /// The type of the cheapest remembered uncapped answer, the earliest type
  /// winning ties (Provisioner::plan's reduction over types); nullopt when
  /// no type has one.
  [[nodiscard]] static std::optional<std::size_t> cheapest(const RungMemo& memo) {
    std::optional<std::size_t> best;
    for (std::size_t t = 0; t < memo.size(); ++t) {
      if (memo[t].footprint < 0) continue;
      if (!best.has_value() || memo[t].cost < memo[*best].cost) best = t;
    }
    return best;
  }

  /// One ladder search on one stocked type: `plan` for a fresh job, `replan`
  /// of the pinned remainder for a revoked one.
  core::ProvisionPlan search(const QueueState& st, const JobRequest& rq, std::size_t type,
                             util::Seconds budget, const core::ProvisionOptions& opts) {
    total_ladder_searches += 1;
    const core::Provisioner& prov = st.planners->per_type[type];
    const ddnn::SyncMode sync = st.planners->spec.sync;
    if (st.remaining > 0) return prov.replan(sync, st.remaining, budget, opts);
    return prov.plan(sync, {budget, rq.goal.target_loss}, opts);
  }

  /// Could any capacity-capped plan for this goal run on the *empty*
  /// region? Jobs failing this can never start and are rejected up front
  /// instead of starving the queue head forever. Rung 1's memo answers the
  /// question for most types; a capped search that fails at a type's full
  /// capacity fails at every cap rung 1 can meet.
  [[nodiscard]] bool feasible_on_empty_region(QueueState& st, const core::ProvisionGoal& goal) {
    RungMemo& at_tg = st.rungs[1];
    for (std::size_t t = 0; t < at_tg.size(); ++t) {
      const int cap = region.capacity(slot_of(t));
      if (cap == 0 || at_tg[t].footprint == TypeMemo::kInfeasible) continue;
      if (cap == region::Region::kUnbounded || at_tg[t].footprint <= cap) return true;
      core::ProvisionOptions opts;
      opts.max_total_dockers = cap;
      if (st.planners->per_type[t].plan(st.planners->spec.sync, goal, opts).feasible) return true;
      at_tg[t].failed_cap = cap;
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
    QueueState& st = qstate[idx];
    st.planners = svc.planners_for(rq.workload);
    if (st.planners == nullptr) {
      reject(idx, JobState::kRejected, "unknown workload '" + rq.workload + "'");
      return;
    }
    // The cost-optimal plan, one type at a time: it is rung 1's uncapped
    // search for a fresh job, so it seeds that rung's memo.
    RungMemo& at_tg = st.rungs[1];
    at_tg.resize(st.planners->per_type.size());
    try {
      for (std::size_t t = 0; t < at_tg.size(); ++t) {
        remember(at_tg[t], st.planners->per_type[t].plan(st.planners->spec.sync, rq.goal));
      }
    } catch (const std::invalid_argument&) {
      reject(idx, JobState::kRejected, "invalid goal");
      return;
    }
    const std::optional<std::size_t> type = cheapest(at_tg);
    if (!type.has_value()) {
      reject(idx, JobState::kRejected, "no feasible plan for goal");
      return;
    }
    const int cap = region.capacity(slot_of(*type));
    const bool fits_empty = cap == region::Region::kUnbounded || at_tg[*type].footprint <= cap;
    if (!region.is_unbounded() && !fits_empty && !feasible_on_empty_region(st, rq.goal)) {
      reject(idx, JobState::kRejected, "exceeds region capacity");
      return;
    }
    st.has_plan = true;
    st.planned_at = sim.now();
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
    region.release(slot_of(ra.type), ra.dockers, util::Seconds{now});

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
    releases += 1;
    scan();
  }

  void on_revoked(std::size_t idx, sim::EventId completion) {
    const auto it = running.find(static_cast<long>(idx));
    if (it == running.end() || it->second.completion != completion) return;
    const RunningAttempt ra = it->second;
    running.erase(it);
    sim.cancel(ra.completion);
    const double now = sim.now();
    region.release(slot_of(ra.type), ra.dockers, util::Seconds{now});

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
    QueueState& st = qstate[idx];
    const long prior = st.remaining > 0 ? st.remaining : ra.attempt_total;
    st.remaining = std::max<long>(1, prior - done);
    st.has_plan = false;
    st.planned_at = -std::numeric_limits<double>::infinity();

    o.state = JobState::kQueued;
    if (tel != nullptr) {
      tel->journal.event(now, telemetry::JournalKind::kFaultInjected, job_subject(o.request.id),
                         std::string(ra.mixed ? "spot revocation (mixed fleet): " :
                                                "spot revocation: ") +
                             std::to_string(st.remaining) + " iterations remain",
                         elapsed);
    }
    enqueue(idx);
    releases += 1;
    scan();
  }

  // -- admission -----------------------------------------------------------

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

  /// A capacity release genuinely changes what the ladder can find, so a
  /// negative decision (the ladder found nothing) holds until the next
  /// release; a positive one holds until kReplanInterval expires (the job
  /// keeps waiting for its planned type unless the wait grows stale).
  bool try_admit(std::size_t idx) {
    QueueState& st = qstate[idx];
    const double now = sim.now();
    if (now - st.planned_at <= kReplanInterval.value() &&
        (st.has_plan || st.planned_release == releases)) {
      if (!st.has_plan) return false;
      const std::size_t type = *cheapest(st.rungs[1]);
      if (!region.fits(slot_of(type), st.rungs[1][type].footprint)) return false;
      // It fits: plan the arrival inputs again on its type (same inputs, same plan).
      const JobRequest& rq = outcomes[idx].request;
      commit(idx, type, st.planners->per_type[type].plan(st.planners->spec.sync, rq.goal));
      return true;
    }
    std::optional<Admission> admission = admission_plan(idx);
    st.planned_at = now;
    st.planned_release = releases;
    st.has_plan = false;
    total_replans += 1;
    outcomes[idx].replans += 1;
    if (!admission.has_value()) return false;
    commit(idx, admission->type, admission->plan);
    return true;
  }

  /// Re-plans a queued job against what the region has free *now*. Ladder:
  /// remaining SLO budget -> original Tg (best effort) -> for revoked jobs
  /// only, any-time (sunk work is never abandoned).
  std::optional<Admission> admission_plan(std::size_t idx) {
    const JobRequest& rq = outcomes[idx].request;
    QueueState& st = qstate[idx];
    std::optional<Admission> admission;
    const double budget_left = rq.goal.time_goal.value() - (sim.now() - rq.arrival.value());
    if (budget_left > kBudgetEpsilon) {
      admission = rung(st, rq, util::Seconds{budget_left}, st.rungs[0], /*shrinking=*/true);
    }
    if (!admission.has_value()) admission = rung(st, rq, rq.goal.time_goal, st.rungs[1], false);
    if (!admission.has_value() && st.remaining > 0) {
      admission = rung(st, rq, kAnyTimeBudget, st.rungs[2], false);
    }
    return admission;
  }

  /// One rung at `budget`: first the unconstrained cost-optimal plan (if its
  /// footprint fits, it is optimal among fitting plans too), then per type
  /// the cheapest plan within the type's free slots. `shrinking` marks rung
  /// 0, whose budget only shrinks from one run to the next.
  std::optional<Admission> rung(QueueState& st, const JobRequest& rq, util::Seconds budget,
                                RungMemo& memo, bool shrinking) {
    const std::size_t types = st.planners->per_type.size();
    if (memo.empty()) memo.resize(types);
    const bool windowed = shrinking && st.remaining == 0;
    fresh.assign(types, 0);
    for (std::size_t t = 0; t < types; ++t) {
      TypeMemo& m = memo[t];
      if (windowed) {
        const core::SearchWindow window = st.planners->per_type[t].window(
            0, st.planners->spec.sync, {budget, rq.goal.target_loss});
        if (window != m.window) {  // what the memo knows holds within one window
          m = TypeMemo{};
          m.window = window;
        }
      }
      const bool known = m.footprint != TypeMemo::kUnknown &&
                         (!shrinking || m.footprint == TypeMemo::kInfeasible ||
                          m.predicted_time <= budget.value());
      if (known) continue;
      fresh_plans[t] = search(st, rq, t, budget, {});
      fresh[t] = 1;
      remember(m, fresh_plans[t]);
    }
    // The admitted plan always comes from a search at this budget.
    auto uncapped_plan = [&](std::size_t t) {
      return fresh[t] != 0 ? std::move(fresh_plans[t]) : search(st, rq, t, budget, {});
    };
    if (const std::optional<std::size_t> t = cheapest(memo);
        t.has_value() && region.fits(slot_of(*t), memo[*t].footprint)) {
      return Admission{*t, uncapped_plan(*t)};
    }

    std::optional<std::size_t> best;
    double best_cost = 0.0;
    std::optional<core::ProvisionPlan> best_capped;  // when a capped search found the best
    for (std::size_t t = 0; t < types; ++t) {
      TypeMemo& m = memo[t];
      if (m.footprint == TypeMemo::kInfeasible) continue;
      const int avail = region.available(slot_of(t));
      if (avail == 0) continue;
      std::optional<core::ProvisionPlan> capped;
      double cost = m.cost;
      // Within the free slots (all of them, for a type the region does not
      // limit) the capped search finds the uncapped answer itself.
      if (avail != region::Region::kUnbounded && m.footprint > avail) {
        if (avail <= m.failed_cap) continue;
        core::ProvisionOptions opts;
        opts.max_total_dockers = avail;
        capped = search(st, rq, t, budget, opts);
        if (!capped->feasible) {
          m.failed_cap = avail;
          continue;
        }
        cost = capped->predicted_cost.value();
      }
      // Strict `<`: the earliest type wins ties.
      if (best.has_value() && !(cost < best_cost)) continue;
      best = t;
      best_cost = cost;
      best_capped = std::move(capped);
    }
    if (!best.has_value()) return std::nullopt;
    if (best_capped.has_value()) return Admission{*best, std::move(*best_capped)};
    return Admission{*best, uncapped_plan(*best)};
  }

  void commit(std::size_t idx, std::size_t type, const core::ProvisionPlan& plan) {
    const double now = sim.now();
    JobOutcome& o = outcomes[idx];
    const JobRequest& rq = o.request;
    const int dockers = footprint(plan);
    region.reserve(slot_of(type), dockers, util::Seconds{now});

    o.plan = plan;
    o.state = JobState::kRunning;
    if (o.admitted_at.value() < 0.0) {
      o.admitted_at = util::Seconds{now};
      o.queue_wait = util::Seconds{now - rq.arrival.value()};
    }
    o.attempts += 1;
    total_attempts += 1;
    QueueState& st = qstate[idx];
    st.has_plan = false;
    st.rungs = {};

    RunningAttempt ra;
    ra.type = type;
    ra.n_workers = plan.n_workers;
    ra.n_ps = plan.n_ps;
    ra.dockers = dockers;
    ra.attempt_total = std::max<long>(1, plan.total_iterations);
    // Revoked jobs re-plan onto mixed fleets: the remainder (pinned by the
    // last revocation) runs its workers on spot while the PS tier stays
    // on-demand, keeping the parameters durable across further revocations.
    ra.mixed = spot_market.has_value() && st.remaining > 0;
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
    const cloud::InstanceType& type = stocked(ra.type);
    if (!ra.mixed) return core::plan_cost(type, ra.n_workers, ra.n_ps, duration);
    const double ratio = spot_fit(ra.type).held_price_ratio;
    const util::DollarsPerHour rate{type.docker_price().value() *
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
      const std::string detail = stocked(ra.type).name + " x" + std::to_string(ra.dockers) +
                                 " attempt " + std::to_string(o.attempts);
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
    qstate[idx].rungs = {};
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
  const std::vector<region::TypeCapacity> capacities = region_.capacities();
  for (std::size_t slot = 0; slot < capacities.size(); ++slot) {
    if (const auto type = catalog_->find(capacities[slot].type)) {
      stocked_types_.push_back(*type);
      stocked_slots_.push_back(slot);
    }
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
  planners.per_type.reserve(stocked_types_.size());
  for (const cloud::InstanceType& type : stocked_types_) {
    planners.per_type.emplace_back(predictor.model(), predictor.loss(),
                                   std::vector<cloud::InstanceType>{type});
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
