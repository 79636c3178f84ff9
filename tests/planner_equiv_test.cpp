// Bit-identical equivalence of the optimized planner hot path (memoized +
// bound-pruned) against the unoptimized reference scan, across
// the workload x instance x sync-mode matrix. The optimizations are only
// admissible because they provably never change the chosen plan
// (docs/PERF.md gives the pruning-safety argument); these tests pin that
// contract with exact floating-point comparisons — EXPECT_EQ on doubles,
// no tolerances — so a single ULP of drift in any optimized path fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "cloud/instance.hpp"
#include "cloud/spot.hpp"
#include "core/loss_model.hpp"
#include "core/predictor.hpp"
#include "core/provisioner.hpp"
#include "ddnn/workload.hpp"
#include "profiler/profiler.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace co = cynthia::core;
namespace cd = cynthia::ddnn;
namespace cc = cynthia::cloud;
namespace cp = cynthia::profiler;
namespace cu = cynthia::util;

namespace {

const cc::InstanceType& m4() { return cc::Catalog::aws().at("m4.xlarge"); }

co::Provisioner make_provisioner(const char* name, cd::SyncMode mode,
                                 std::vector<cc::InstanceType> types =
                                     cc::Catalog::aws().provisionable()) {
  static std::map<std::string, cp::ProfileResult> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, cp::profile_workload(cd::workload_by_name(name), m4())).first;
  }
  const auto& w = cd::workload_by_name(name);
  const auto& coef = w.loss_for(mode);
  co::LossModel loss(mode, coef.beta0, coef.beta1);
  return co::Provisioner(co::CynthiaModel(it->second), std::move(loss), std::move(types));
}

struct Case {
  const char* workload;
  cd::SyncMode mode;
  co::ProvisionGoal goal;
};

std::vector<Case> paper_cases() {
  std::vector<Case> cases;
  for (cd::SyncMode mode : {cd::SyncMode::BSP, cd::SyncMode::ASP, cd::SyncMode::SSP}) {
    cases.push_back({"mnist", mode, {cu::minutes(30), 0.1}});
    cases.push_back({"cifar10", mode, {cu::minutes(90), 0.8}});
    cases.push_back({"vgg19", mode, {cu::minutes(240), 0.8}});
  }
  return cases;
}

// The reference path: every candidate evaluated through the model.
co::ProvisionOptions reference_options() {
  co::ProvisionOptions o;
  o.use_cache = false;
  o.prune = false;
  return o;
}

// Default hot path (cache + prune).
co::ProvisionOptions optimized_options() { return {}; }

/// The replan inputs every replan test sweeps: remaining iterations x
/// capability derate x slack margin, against a 45-minute budget.
struct ReplanInput {
  long remaining;
  co::ReplanDegradation degradation;
};

const cu::Seconds kReplanBudget = cu::minutes(45);

std::vector<ReplanInput> degradation_matrix() {
  std::vector<ReplanInput> inputs;
  for (long remaining : {500L, 2000L}) {
    for (double derate : {1.0, 0.9, 0.8}) {
      for (double slack : {0.0, 0.1}) inputs.push_back({remaining, {derate, slack}});
    }
  }
  return inputs;
}

void expect_same_prediction(const co::IterationPrediction& a, const co::IterationPrediction& b) {
  EXPECT_EQ(a.t_comp, b.t_comp);
  EXPECT_EQ(a.t_comm, b.t_comm);
  EXPECT_EQ(a.t_iter, b.t_iter);
  EXPECT_EQ(a.worker_utilization, b.worker_utilization);
  EXPECT_EQ(a.r_scale, b.r_scale);
  EXPECT_EQ(a.cpu_demand, b.cpu_demand);
  EXPECT_EQ(a.cpu_supply, b.cpu_supply);
  EXPECT_EQ(a.bw_demand, b.bw_demand);
  EXPECT_EQ(a.bw_supply, b.bw_supply);
  EXPECT_EQ(a.cpu_bottleneck, b.cpu_bottleneck);
  EXPECT_EQ(a.bw_bottleneck, b.bw_bottleneck);
}

/// The chosen candidate, bit for bit; not the bounds, which belong to the
/// goal the plan was searched at.
void expect_same_answer(const co::ProvisionPlan& a, const co::ProvisionPlan& b) {
  ASSERT_EQ(a.feasible, b.feasible);
  if (!a.feasible) return;
  EXPECT_EQ(a.type.name, b.type.name);
  EXPECT_EQ(a.n_workers, b.n_workers);
  EXPECT_EQ(a.n_ps, b.n_ps);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.total_iterations, b.total_iterations);
  EXPECT_EQ(a.t_iter, b.t_iter);
  EXPECT_EQ(a.predicted_time.value(), b.predicted_time.value());
  EXPECT_EQ(a.predicted_cost.value(), b.predicted_cost.value());
  expect_same_prediction(a.diagnostics, b.diagnostics);
}

void expect_same_plan(const co::ProvisionPlan& a, const co::ProvisionPlan& b) {
  expect_same_answer(a, b);
  if (!a.feasible || !b.feasible) return;
  EXPECT_EQ(a.bounds.feasible, b.bounds.feasible);
  EXPECT_EQ(a.bounds.n_lower, b.bounds.n_lower);
  EXPECT_EQ(a.bounds.n_upper, b.bounds.n_upper);
  EXPECT_EQ(a.bounds.n_ps, b.bounds.n_ps);
}

/// expect_same_plan, and every field of the bounds.
void expect_identical_plan(const co::ProvisionPlan& a, const co::ProvisionPlan& b) {
  expect_same_plan(a, b);
  if (!a.feasible || !b.feasible) return;
  EXPECT_EQ(a.bounds.r, b.bounds.r);
  EXPECT_EQ(a.bounds.u, b.bounds.u);
  EXPECT_EQ(a.bounds.iterations, b.bounds.iterations);
}

}  // namespace

TEST(PlannerEquiv, BoundedPlanBitIdenticalAcrossMatrix) {
  for (const Case& c : paper_cases()) {
    SCOPED_TRACE(std::string(c.workload) + " mode " + std::to_string(int(c.mode)));
    const auto prov = make_provisioner(c.workload, c.mode);
    const auto reference = prov.plan(c.mode, c.goal, reference_options());
    const auto optimized = prov.plan(c.mode, c.goal, optimized_options());
    // Second optimized call answers fully from the warm cache.
    const auto warm = prov.plan(c.mode, c.goal, optimized_options());
    expect_same_plan(reference, optimized);
    expect_same_plan(reference, warm);
  }
}

TEST(PlannerEquiv, ExhaustivePlanBitIdenticalAcrossMatrix) {
  for (const Case& c : paper_cases()) {
    SCOPED_TRACE(std::string(c.workload) + " mode " + std::to_string(int(c.mode)));
    const auto prov = make_provisioner(c.workload, c.mode);
    auto reference = reference_options();
    auto optimized = optimized_options();
    reference.exhaustive = optimized.exhaustive = true;
    expect_same_plan(prov.plan(c.mode, c.goal, reference),
                     prov.plan(c.mode, c.goal, optimized));
  }
}

TEST(PlannerEquiv, ReplanBitIdenticalUnderDegradationMatrix) {
  for (const char* workload : {"mnist", "cifar10", "vgg19"}) {
    for (cd::SyncMode mode : {cd::SyncMode::BSP, cd::SyncMode::ASP, cd::SyncMode::SSP}) {
      const auto prov = make_provisioner(workload, mode);
      for (const ReplanInput& in : degradation_matrix()) {
        SCOPED_TRACE(std::string(workload) + " mode " + std::to_string(int(mode)) + " rem " +
                     std::to_string(in.remaining) + " derate " +
                     std::to_string(in.degradation.capability_derate) + " slack " +
                     std::to_string(in.degradation.slack_margin));
        const auto reference =
            prov.replan(mode, in.remaining, kReplanBudget, reference_options(), in.degradation);
        const auto optimized =
            prov.replan(mode, in.remaining, kReplanBudget, optimized_options(), in.degradation);
        expect_same_plan(reference, optimized);
      }
    }
  }
}

TEST(PlannerEquiv, InfeasibleGoalAgreesAcrossPaths) {
  const auto prov = make_provisioner("vgg19", cd::SyncMode::BSP);
  const co::ProvisionGoal goal{cu::Seconds{30.0}, 0.8};  // nothing trains VGG in 30 s
  EXPECT_FALSE(prov.plan(cd::SyncMode::BSP, goal, reference_options()).feasible);
  EXPECT_FALSE(prov.plan(cd::SyncMode::BSP, goal, optimized_options()).feasible);
}

TEST(PlannerEquiv, TraceBitIdenticalWithAndWithoutCache) {
  const auto prov = make_provisioner("cifar10", cd::SyncMode::BSP);
  const co::ProvisionGoal goal{cu::minutes(90), 0.8};
  // Pruning off so the trace covers the full grid; cold and warm cached
  // scans must emit the uncached candidate sequence (catalog order, then
  // scan order) with the same bits.
  auto uncached = reference_options();
  uncached.keep_trace = true;
  auto cached = uncached;
  cached.use_cache = true;

  (void)prov.plan(cd::SyncMode::BSP, goal, uncached);
  const std::vector<co::CandidateEvaluation> uncached_trace = prov.considered();
  ASSERT_FALSE(uncached_trace.empty());

  for (int run = 0; run < 3; ++run) {
    (void)prov.plan(cd::SyncMode::BSP, goal, cached);
    const auto& trace = prov.considered();
    ASSERT_EQ(trace.size(), uncached_trace.size()) << "run " << run;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      EXPECT_EQ(trace[i].type, uncached_trace[i].type) << "entry " << i;
      EXPECT_EQ(trace[i].n_workers, uncached_trace[i].n_workers) << "entry " << i;
      EXPECT_EQ(trace[i].n_ps, uncached_trace[i].n_ps) << "entry " << i;
      EXPECT_EQ(trace[i].iterations, uncached_trace[i].iterations) << "entry " << i;
      EXPECT_EQ(trace[i].t_iter, uncached_trace[i].t_iter) << "entry " << i;
      EXPECT_EQ(trace[i].total_time, uncached_trace[i].total_time) << "entry " << i;
      EXPECT_EQ(trace[i].cost, uncached_trace[i].cost) << "entry " << i;
      EXPECT_EQ(trace[i].feasible, uncached_trace[i].feasible) << "entry " << i;
      expect_same_prediction(trace[i].prediction, uncached_trace[i].prediction);
    }
  }
}

TEST(PlannerEquiv, CacheServesRepeatCallsWithoutRecomputing) {
  const auto prov = make_provisioner("cifar10", cd::SyncMode::BSP);
  const co::ProvisionGoal goal{cu::minutes(90), 0.8};
  (void)prov.plan(cd::SyncMode::BSP, goal, optimized_options());
  const auto cold = prov.stats();
  EXPECT_GT(cold.cache_misses, 0u);
  (void)prov.plan(cd::SyncMode::BSP, goal, optimized_options());
  const auto warm = prov.stats();
  EXPECT_EQ(warm.cache_misses, cold.cache_misses) << "warm call must not recompute";
  EXPECT_GT(warm.cache_hits, cold.cache_hits);
  EXPECT_EQ(warm.plans, cold.plans + 1);
}

// The fleet service plans with one single-type Provisioner per stocked type
// and takes the cheapest answer, the earliest type winning ties. That is the
// all-types Provisioner's answer: each type's scan is independent of the
// others, and search_catalog reduces with a strict `<`.
TEST(PlannerEquiv, CheapestPerTypeAnswerIsTheCatalogAnswer) {
  const std::vector<cc::InstanceType> types =
      cc::Catalog::aws().provisionable_with_accelerators();
  long feasible = 0;
  long infeasible = 0;
  long later_type_won = 0;  // the reduction picked a type other than the first
  auto check = [&](const co::ProvisionPlan& all, const std::vector<co::ProvisionPlan>& each) {
    std::size_t best = each.size();
    for (std::size_t t = 0; t < each.size(); ++t) {
      if (!each[t].feasible) continue;
      if (best == each.size() || each[t].predicted_cost < each[best].predicted_cost) best = t;
    }
    if (best == each.size()) {
      EXPECT_FALSE(all.feasible);
      ++infeasible;
      return;
    }
    expect_identical_plan(all, each[best]);
    ++feasible;
    later_type_won += best > 0 ? 1 : 0;
  };
  for (const Case& c : paper_cases()) {
    SCOPED_TRACE(std::string(c.workload) + " mode " + std::to_string(int(c.mode)));
    const auto all = make_provisioner(c.workload, c.mode, types);
    std::vector<co::Provisioner> per_type;
    for (const cc::InstanceType& type : types) {
      per_type.push_back(make_provisioner(c.workload, c.mode, {type}));
    }
    // The paper goal, and one a tenth as long that some types cannot meet.
    for (const double scale : {1.0, 0.1}) {
      const co::ProvisionGoal goal{c.goal.time_goal * scale, c.goal.target_loss};
      std::vector<co::ProvisionPlan> each;
      for (const co::Provisioner& prov : per_type) each.push_back(prov.plan(c.mode, goal));
      check(all.plan(c.mode, goal), each);
    }
    for (const ReplanInput& in : degradation_matrix()) {
      for (const double scale : {1.0, 0.05}) {
        const cu::Seconds budget = kReplanBudget * scale;
        std::vector<co::ProvisionPlan> each;
        for (const co::Provisioner& prov : per_type) {
          each.push_back(prov.replan(c.mode, in.remaining, budget, {}, in.degradation));
        }
        check(all.replan(c.mode, in.remaining, budget, {}, in.degradation), each);
      }
    }
  }
  EXPECT_GT(feasible, 0);
  EXPECT_GT(infeasible, 0);
  EXPECT_GT(later_type_won, 0);
}

// ----------------------------------------------------- pinned plan digests
//
// The tests above compare two paths of the same build, so a change that moves
// both the same way (a wrong search constant, say) passes them. These pin the
// default hot path's answers, its PlannerStats counts and plan_spot's sweep
// trace to constants.

namespace {

/// FNV-1a over the bit patterns of every field folded in.
class PlanFold {
 public:
  PlanFold& add(double x) { return mix(std::bit_cast<std::uint64_t>(x)); }
  PlanFold& add(long x) { return mix(static_cast<std::uint64_t>(x)); }
  PlanFold& add(int x) { return mix(static_cast<std::uint64_t>(static_cast<long>(x))); }
  PlanFold& add(bool x) { return mix(x ? 1u : 0u); }
  PlanFold& add(std::uint64_t x) { return mix(x); }
  PlanFold& add(const std::string& s) {
    for (const char c : s) mix(static_cast<unsigned char>(c));
    return mix(s.size());
  }
  PlanFold& add(const co::ProvisionPlan& p) {
    add(p.feasible).add(p.type.name).add(p.n_workers).add(p.n_ps);
    add(p.iterations).add(p.total_iterations).add(p.t_iter);
    return add(p.predicted_time.value()).add(p.predicted_cost.value());
  }
  PlanFold& add(const co::CandidateEvaluation& c) {
    add(c.type).add(c.n_workers).add(c.n_ps).add(c.iterations).add(c.t_iter);
    return add(c.total_time).add(c.cost).add(c.feasible);
  }
  PlanFold& add(const co::PlannerStats& s) {
    return add(s.candidates_evaluated).add(s.candidates_pruned);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  PlanFold& mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
    return *this;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Each digest comes from a fresh provisioner, so the stats cover that path only.
std::uint64_t bounded_digest(const Case& c) {
  const auto prov = make_provisioner(c.workload, c.mode);
  PlanFold f;
  f.add(prov.plan(c.mode, c.goal));
  return f.add(prov.stats()).value();
}

std::uint64_t exhaustive_digest(const Case& c) {
  const auto prov = make_provisioner(c.workload, c.mode);
  co::ProvisionOptions options;
  options.exhaustive = true;
  PlanFold f;
  f.add(prov.plan(c.mode, c.goal, options));
  return f.add(prov.stats()).value();
}

std::uint64_t replan_digest(const Case& c) {
  const auto prov = make_provisioner(c.workload, c.mode);
  PlanFold f;
  for (const ReplanInput& in : degradation_matrix()) {
    f.add(prov.replan(c.mode, in.remaining, kReplanBudget, {}, in.degradation));
  }
  return f.add(prov.stats()).value();
}

std::uint64_t spot_digest(const Case& c, const cc::SpotMarket& market) {
  const auto prov = make_provisioner(c.workload, c.mode);
  const co::SpotProvisionPlan sp = prov.plan_spot(c.mode, c.goal, market);
  PlanFold f;
  f.add(sp.feasible).add(static_cast<int>(sp.durability)).add(sp.plan).add(sp.durable);
  f.add(sp.expected_time.value()).add(sp.expected_cost.value());
  f.add(sp.checkpoint_interval.value());
  for (const co::CandidateEvaluation& e : prov.considered()) f.add(e);  // the sweep's trace
  return f.add(prov.stats()).value();
}

struct PinnedDigests {
  std::uint64_t bounded, exhaustive, replan, spot;
};

}  // namespace

TEST(PlannerEquiv, PinnedPlanDigests) {
  // One row per paper_cases() entry, in order.
  const PinnedDigests expected[] = {
      {0xe4829b1045d7e5baull, 0xf4610581a8c01c8cull, 0x7fd2c4e14dc9f79aull, 0x106f36c00d2966eeull},
      {0x7ec9d0a7c1dc37fdull, 0xc0a335e9a2215744ull, 0xaf05945c1dc387deull, 0x05a050ca4cd85bceull},
      {0xbcf15efb4a833ec8ull, 0x886c3fc8b0dd983aull, 0x1cbad4a39422d30dull, 0x5055121188f090b3ull},
      {0x76f607d3913dcf95ull, 0x66e43bd25e958491ull, 0xf9e4ec8d9c117967ull, 0x522330b90da784faull},
      {0x2d640a1f32d306bfull, 0x2c8a7d45fd5025aaull, 0x833438433485431eull, 0xe9e01901eecc0e16ull},
      {0x3837ffc540fb9faaull, 0x465f93d988bc2baeull, 0xaf10c2d14db50ea8ull, 0x0014c1c14130d0dcull},
      {0x9f5c273f4c578bdaull, 0xad83bb53941817deull, 0xf9e4ec8d9c117967ull, 0x01617a1894f5e424ull},
      {0x6327dd0f4282acc3ull, 0xb30db7f43200e254ull, 0x833438433485431eull, 0x3862cffb3336f936ull},
      {0xa8d7e1e1538042e0ull, 0x1efde66df29d8237ull, 0xaf10c2d14db50ea8ull, 0x48b9b1ee76100ae8ull},
  };
  const std::vector<Case> cases = paper_cases();
  ASSERT_EQ(cases.size(), std::size(expected));
  const cc::SpotMarket market(cc::Catalog::aws(), 42);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    SCOPED_TRACE(std::string(c.workload) + " mode " + std::to_string(int(c.mode)));
    EXPECT_EQ(hex(bounded_digest(c)), hex(expected[i].bounded)) << "bounded plan";
    EXPECT_EQ(hex(exhaustive_digest(c)), hex(expected[i].exhaustive)) << "exhaustive plan";
    EXPECT_EQ(hex(replan_digest(c)), hex(expected[i].replan)) << "replan";
    EXPECT_EQ(hex(spot_digest(c, market)), hex(expected[i].spot)) << "plan_spot";
  }
}

// ------------------------------------------ feasibility monotonicity
//
// The fleet service's admission ladder (src/service/service.cpp, TypeMemo)
// remembers, per queued job, rung and stocked type, the type's uncapped
// answer and the largest cap at which its capped search found no plan, and
// skips every search whose answer that fixes. These sample the properties
// that make the skips exact, on the planners the service builds
// (Predictor::build on m4.xlarge, one single-type Provisioner per type), over
// the four fleet workloads in their own sync mode and in SSP, and pin why
// rung 0's memo is keyed by the search window.

namespace {

struct FleetPlanner {
  std::string label;
  cd::SyncMode mode;
  double loss_floor;  ///< the fitted loss asymptote: l_g must lie above it
  std::vector<co::Provisioner> per_type;
};

co::Predictor fleet_predictor(const char* workload, cd::SyncMode mode) {
  cd::WorkloadSpec spec = cd::workload_by_name(workload);
  spec.sync = mode;
  return co::Predictor::build(spec, m4());
}

const std::vector<FleetPlanner>& fleet_planners() {
  static const std::vector<FleetPlanner> planners = [] {
    std::vector<FleetPlanner> out;
    // The workloads of service::default_workload_mix().
    for (const char* workload : {"mnist", "cifar10", "vgg19", "resnet32"}) {
      for (cd::SyncMode mode : {cd::workload_by_name(workload).sync, cd::SyncMode::SSP}) {
        const co::Predictor predictor = fleet_predictor(workload, mode);
        FleetPlanner fp{std::string(workload) + " mode " + std::to_string(int(mode)), mode,
                        predictor.loss().beta1(), {}};
        for (const cc::InstanceType& type : cc::Catalog::aws().provisionable_with_accelerators()) {
          fp.per_type.emplace_back(predictor.model(), predictor.loss(),
                                   std::vector<cc::InstanceType>{type});
        }
        out.push_back(std::move(fp));
      }
    }
    return out;
  }();
  return planners;
}

double log_uniform(cu::Rng& rng, double lo, double hi) {
  return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

/// `count` sorted budgets in [lo, hi] seconds, log-uniform.
std::vector<double> sample_budgets(cu::Rng& rng, int count, double lo, double hi) {
  std::vector<double> out;
  for (int i = 0; i < count; ++i) out.push_back(log_uniform(rng, lo, hi));
  std::sort(out.begin(), out.end());
  return out;
}

/// Ascending caps in [1, 128] (past every plan's footprint), then 0: no cap.
std::vector<int> sample_caps(cu::Rng& rng, int count) {
  std::vector<int> out;
  for (int i = 0; i < count; ++i) out.push_back(static_cast<int>(rng.uniform_int(1, 128)));
  std::sort(out.begin(), out.end());
  out.push_back(0);
  return out;
}

co::ProvisionOptions capped(int cap) {
  co::ProvisionOptions options;
  options.max_total_dockers = cap;
  return options;
}

constexpr int kDraws = 100;

}  // namespace

// "No plan at cap c" implies "no plan at any cap <= c", at a fixed budget:
// the cap only cuts each row of the scan short, and no other cut depends on
// it until a feasible candidate exists.
TEST(PlannerMonotone, CappedFeasibilityIsMonotoneInTheCap) {
  cu::Rng rng(0x5eed0026);
  long plan_flips = 0;    // draws whose plan feasibility changed along the caps
  long replan_flips = 0;  // the same for replan
  for (const FleetPlanner& fp : fleet_planners()) {
    for (std::size_t t = 0; t < fp.per_type.size(); ++t) {
      const co::Provisioner& prov = fp.per_type[t];
      for (int draw = 0; draw < kDraws; ++draw) {
        const co::ProvisionGoal goal{cu::Seconds{log_uniform(rng, 30.0, 8.0 * 3600.0)},
                                    fp.loss_floor + log_uniform(rng, 0.005, 0.5)};
        const long remaining = static_cast<long>(log_uniform(rng, 1.0, 20000.0));
        const cu::Seconds budget{log_uniform(rng, 10.0, 2.0e5)};
        SCOPED_TRACE(fp.label + " type " + std::to_string(t) + " Tg " +
                     std::to_string(goal.time_goal.value()) + " l_g " +
                     std::to_string(goal.target_loss) + " remaining " +
                     std::to_string(remaining) + " budget " + std::to_string(budget.value()));
        bool plan_found = false;
        bool replan_found = false;
        bool plan_missed = false;
        bool replan_missed = false;
        for (const int cap : sample_caps(rng, 10)) {
          const bool plan_ok = prov.plan(fp.mode, goal, capped(cap)).feasible;
          const bool replan_ok = prov.replan(fp.mode, remaining, budget, capped(cap)).feasible;
          EXPECT_FALSE(plan_found && !plan_ok) << "plan lost its answer at cap " << cap;
          EXPECT_FALSE(replan_found && !replan_ok) << "replan lost its answer at cap " << cap;
          plan_missed = plan_missed || !plan_ok;
          replan_missed = replan_missed || !replan_ok;
          plan_found = plan_found || plan_ok;
          replan_found = replan_found || replan_ok;
        }
        plan_flips += plan_found && plan_missed ? 1 : 0;
        replan_flips += replan_found && replan_missed ? 1 : 0;
      }
    }
  }
  // The sample reaches the boundary it claims to test.
  EXPECT_GT(plan_flips, 0);
  EXPECT_GT(replan_flips, 0);
}

// replan's grid does not move with the budget, so a budget that finds no plan
// bounds every smaller one: the any-time rung's failures stay failures.
TEST(PlannerMonotone, ReplanFeasibilityIsMonotoneInTheBudget) {
  cu::Rng rng(0x5eed0027);
  long flips = 0;
  for (const FleetPlanner& fp : fleet_planners()) {
    for (std::size_t t = 0; t < fp.per_type.size(); ++t) {
      const co::Provisioner& prov = fp.per_type[t];
      for (int draw = 0; draw < kDraws; ++draw) {
        const long remaining = static_cast<long>(log_uniform(rng, 1.0, 20000.0));
        const int cap = rng.chance(0.3) ? 0 : static_cast<int>(rng.uniform_int(1, 64));
        SCOPED_TRACE(fp.label + " type " + std::to_string(t) + " remaining " +
                     std::to_string(remaining) + " cap " + std::to_string(cap));
        bool found = false;
        bool missed = false;
        for (const double budget : sample_budgets(rng, 10, 10.0, 2.0e5)) {
          const bool ok =
              prov.replan(fp.mode, remaining, cu::Seconds{budget}, capped(cap)).feasible;
          EXPECT_FALSE(found && !ok) << "replan lost its answer at budget " << budget;
          missed = missed || !ok;
          found = found || ok;
        }
        flips += found && missed ? 1 : 0;
      }
    }
  }
  EXPECT_GT(flips, 0);
}

// Within one Theorem 4.1 window a smaller budget scans the same candidates in
// the same order and only turns some of them infeasible. So for B1 < B0 with
// equal windows, a capped failure at (B0, c0) is a failure at (B1, c1 <= c0),
// and an answer at B0 that meets B1 is the answer at B1. Rung 0 of the
// admission ladder, whose budget shrinks with the clock, keys its memo on
// this.
TEST(PlannerMonotone, EqualWindowsKeepFailuresAndAnswers) {
  cu::Rng rng(0x5eed0030);
  long equal_windows = 0;
  long moved_windows = 0;
  long failures_kept = 0;  // a capped failure at B0 checked at B1
  long answers_kept = 0;   // B0's answer met B1 and was B1's answer
  long answers_lost = 0;   // B0's answer missed B1 (the memo searches again)
  long nothing_kept = 0;   // no plan at B0, checked at B1
  for (const FleetPlanner& fp : fleet_planners()) {
    for (std::size_t t = 0; t < fp.per_type.size(); ++t) {
      const co::Provisioner& prov = fp.per_type[t];
      for (int draw = 0; draw < kDraws; ++draw) {
        const double l_g = fp.loss_floor + log_uniform(rng, 0.005, 0.5);
        const double b0 = log_uniform(rng, 30.0, 8.0 * 3600.0);
        const int c0 = static_cast<int>(rng.uniform_int(1, 32));
        SCOPED_TRACE(fp.label + " type " + std::to_string(t) + " l_g " + std::to_string(l_g) +
                     " B0 " + std::to_string(b0) + " c0 " + std::to_string(c0));
        const auto at = [&](double budget, int cap) {
          return prov.plan(fp.mode, {cu::Seconds{budget}, l_g}, capped(cap));
        };
        const co::SearchWindow w0 = prov.window(0, fp.mode, {cu::Seconds{b0}, l_g});
        const co::ProvisionPlan answer = at(b0, 0);
        const bool capped_failed = !at(b0, c0).feasible;
        double b1 = b0;
        for (int step = 0; step < 4; ++step) {
          // Smaller and smaller budgets, most of them within B0's window.
          b1 *= 1.0 - log_uniform(rng, 1e-4, 0.2);
          if (prov.window(0, fp.mode, {cu::Seconds{b1}, l_g}) != w0) {
            ++moved_windows;
            continue;
          }
          ++equal_windows;
          if (capped_failed) {
            const int c1 = static_cast<int>(rng.uniform_int(1, c0));
            EXPECT_FALSE(at(b1, c1).feasible) << "cap " << c1 << " at B1 " << b1;
            ++failures_kept;
          }
          const co::ProvisionPlan now = at(b1, 0);
          if (!answer.feasible) {
            EXPECT_FALSE(now.feasible) << "B1 " << b1;
            ++nothing_kept;
          } else if (answer.predicted_time.value() <= b1) {
            expect_same_answer(now, answer);
            ++answers_kept;
          } else {
            ++answers_lost;
          }
        }
      }
    }
  }
  EXPECT_GT(equal_windows, 0);
  EXPECT_GT(moved_windows, 0);
  EXPECT_GT(failures_kept, 0);
  EXPECT_GT(answers_kept, 0);
  EXPECT_GT(answers_lost, 0);
  EXPECT_GT(nothing_kept, 0);
}

// At one budget a capped row is a prefix of the uncapped row, so the uncapped
// answer settles every capped search at or above its footprint (the same
// plan, bit for bit), and an uncapped search that finds nothing means that no
// capped one does. The admission ladder skips those capped searches.
TEST(PlannerMonotone, UncappedAnswerSettlesEveryCapAtOrAboveItsFootprint) {
  cu::Rng rng(0x5eed0031);
  long plan_settled = 0;
  long plan_empty = 0;
  long replan_settled = 0;
  long replan_empty = 0;
  const auto settle = [](const co::ProvisionPlan& uncapped, const co::ProvisionPlan& at_cap,
                         int cap, long& settled, long& empty) {
    if (!uncapped.feasible) {
      EXPECT_FALSE(at_cap.feasible) << "cap " << cap;
      ++empty;
    } else if (uncapped.n_workers + uncapped.n_ps <= cap) {
      expect_identical_plan(at_cap, uncapped);
      ++settled;
    }
  };
  for (const FleetPlanner& fp : fleet_planners()) {
    for (std::size_t t = 0; t < fp.per_type.size(); ++t) {
      const co::Provisioner& prov = fp.per_type[t];
      for (int draw = 0; draw < kDraws; ++draw) {
        const co::ProvisionGoal goal{cu::Seconds{log_uniform(rng, 30.0, 8.0 * 3600.0)},
                                    fp.loss_floor + log_uniform(rng, 0.005, 0.5)};
        const long remaining = static_cast<long>(log_uniform(rng, 1.0, 20000.0));
        const cu::Seconds budget{log_uniform(rng, 10.0, 2.0e5)};
        SCOPED_TRACE(fp.label + " type " + std::to_string(t) + " Tg " +
                     std::to_string(goal.time_goal.value()) + " l_g " +
                     std::to_string(goal.target_loss) + " remaining " +
                     std::to_string(remaining) + " budget " + std::to_string(budget.value()));
        const co::ProvisionPlan plan = prov.plan(fp.mode, goal);
        const co::ProvisionPlan replan = prov.replan(fp.mode, remaining, budget);
        for (int i = 0; i < 4; ++i) {
          const int cap = static_cast<int>(rng.uniform_int(1, 128));
          settle(plan, prov.plan(fp.mode, goal, capped(cap)), cap, plan_settled, plan_empty);
          settle(replan, prov.replan(fp.mode, remaining, budget, capped(cap)), cap,
                 replan_settled, replan_empty);
        }
      }
    }
  }
  EXPECT_GT(plan_settled, 0);
  EXPECT_GT(plan_empty, 0);
  EXPECT_GT(replan_settled, 0);
  EXPECT_GT(replan_empty, 0);
}

// Algorithm 1's bounded search is not monotone in the budget: bounds_for_goal
// moves n_lower, n_ps and each row's upper bound with Tg, so a larger Tg can
// lose every candidate a smaller one found. A failure or an answer therefore
// carries over to a smaller budget only within one search window, which is
// how rung 0 of the admission ladder keys its memo; these windows differ.
TEST(PlannerMonotone, PlanIsNotMonotoneInTheBudget) {
  const co::Predictor predictor = fleet_predictor("vgg19", cd::SyncMode::ASP);
  const co::Provisioner prov(predictor.model(), predictor.loss(),
                             {cc::Catalog::aws().at("p3.2xlarge")});
  const auto at = [&](double tg) {
    return prov.plan(cd::SyncMode::ASP, {cu::Seconds{tg}, 0.172});
  };
  const co::ProvisionPlan tight = at(233.0);
  ASSERT_TRUE(tight.feasible);
  EXPECT_EQ(tight.n_workers, 50);
  EXPECT_EQ(tight.n_ps, 60);
  EXPECT_FALSE(at(233.5).feasible);
  const co::ProvisionPlan loose = at(234.0);
  ASSERT_TRUE(loose.feasible);
  EXPECT_EQ(loose.n_workers, 50);
  EXPECT_EQ(loose.n_ps, 59);
  const auto window_at = [&](double tg) {
    return prov.window(0, cd::SyncMode::ASP, {cu::Seconds{tg}, 0.172});
  };
  EXPECT_NE(window_at(233.5), window_at(233.0));
}

// Theorem 4.1's ceilings saturate at INT_MAX: a budget too small for any
// worker count asks for more workers than an int holds, and its window is
// empty. So a window that is empty at one budget is empty at every smaller
// one. (Converting such a ceiling to int unsaturated is undefined; on x86 it
// read as INT_MIN and then one worker, which gave resnet32 a (1, 1, 64)
// window at 1 s where larger budgets had none.)
TEST(PlannerMonotone, EmptyWindowStaysEmptyAtSmallerBudgets) {
  cu::Rng rng(0x5eed0032);
  long emptied = 0;  // draws whose window went empty along their budgets
  for (const FleetPlanner& fp : fleet_planners()) {
    for (std::size_t t = 0; t < fp.per_type.size(); ++t) {
      const co::Provisioner& prov = fp.per_type[t];
      for (int draw = 0; draw < kDraws / 4; ++draw) {
        const double l_g = fp.loss_floor + log_uniform(rng, 0.005, 0.5);
        SCOPED_TRACE(fp.label + " type " + std::to_string(t) + " l_g " + std::to_string(l_g));
        const std::vector<double> budgets = sample_budgets(rng, 12, 1e-6, 8.0 * 3600.0);
        bool empty = false;
        for (auto b = budgets.rbegin(); b != budgets.rend(); ++b) {
          const bool now_empty = prov.window(0, fp.mode, {cu::Seconds{*b}, l_g}).empty();
          EXPECT_FALSE(empty && !now_empty) << "rows at " << *b << " s below an empty window";
          emptied += !empty && now_empty ? 1 : 0;
          empty = empty || now_empty;
        }
      }
    }
  }
  EXPECT_GT(emptied, 0);
}

// Provisioner::window's floor: every budget from the floor up to the one
// asked has the same window, so rung 0 of the admission ladder, whose budget
// only shrinks, computes the window again only below the floor. An empty
// window's floor is 0. The floor is tight: just under it the window moves.
TEST(PlannerMonotone, WindowHoldsDownToItsFloor) {
  cu::Rng rng(0x5eed0033);
  long below = 0;   // non-empty windows whose floor lies under their budget
  long at_budget = 0;  // ... whose floor is the budget itself
  long moved = 0;   // windows that differ 1e-6 under their floor
  for (const FleetPlanner& fp : fleet_planners()) {
    for (std::size_t t = 0; t < fp.per_type.size(); ++t) {
      const co::Provisioner& prov = fp.per_type[t];
      for (int draw = 0; draw < kDraws / 2; ++draw) {
        const double l_g = fp.loss_floor + log_uniform(rng, 0.005, 0.5);
        const double b0 = log_uniform(rng, 1e-3, 8.0 * 3600.0);
        SCOPED_TRACE(fp.label + " type " + std::to_string(t) + " l_g " + std::to_string(l_g) +
                     " B0 " + std::to_string(b0));
        const auto window_at = [&](double budget) {
          return prov.window(0, fp.mode, {cu::Seconds{budget}, l_g});
        };
        const co::SearchWindow w = window_at(b0);
        const double floor = w.floor.value();
        if (w.empty()) {
          EXPECT_EQ(floor, 0.0);
          continue;
        }
        ASSERT_LE(floor, b0);
        if (floor == b0) {
          ++at_budget;
          continue;
        }
        ++below;
        EXPECT_TRUE(window_at(floor) == w) << "at the floor " << floor;
        for (int i = 0; i < 4; ++i) {
          const double b = floor + (b0 - floor) * rng.uniform(0.0, 1.0);
          EXPECT_TRUE(window_at(b) == w) << "at " << b << " above the floor " << floor;
        }
        moved += window_at(floor * (1.0 - 1e-6)) != w ? 1 : 0;
      }
    }
  }
  EXPECT_GT(below, 0);
  EXPECT_EQ(at_budget, 0);
  EXPECT_EQ(moved, below);
}
