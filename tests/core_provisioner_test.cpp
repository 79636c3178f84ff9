// Tests for Algorithm 1: goal-driven, cost-minimizing provisioning.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>
#include <vector>

#include "cloud/instance.hpp"
#include "cloud/spot.hpp"
#include "core/predictor.hpp"
#include "core/provisioner.hpp"
#include "ddnn/trainer.hpp"
#include "profiler/profiler.hpp"
#include "util/units.hpp"

namespace co = cynthia::core;
namespace cd = cynthia::ddnn;
namespace cc = cynthia::cloud;
namespace cp = cynthia::profiler;
namespace cu = cynthia::util;

namespace {
const cc::InstanceType& m4() { return cc::Catalog::aws().at("m4.xlarge"); }

co::Provisioner make_provisioner(const char* name,
                                 std::vector<cc::InstanceType> types = {}) {
  static std::map<std::string, cp::ProfileResult> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, cp::profile_workload(cd::workload_by_name(name), m4())).first;
  }
  const auto& w = cd::workload_by_name(name);
  co::LossModel loss(w.sync, w.loss().beta0, w.loss().beta1);
  if (types.empty()) types = cc::Catalog::aws().provisionable();
  return co::Provisioner(co::CynthiaModel(it->second), std::move(loss), std::move(types));
}
}  // namespace

TEST(PlanCost, Eq8Arithmetic) {
  // (p_wk * n_wk + p_ps * n_ps) * duration.
  const auto c = co::plan_cost(m4(), 10, 2, cu::hours(1));
  EXPECT_NEAR(c.value(), 12 * m4().docker_price().value(), 1e-12);
}

TEST(Provisioner, FeasibleGoalProducesPlan) {
  auto prov = make_provisioner("cifar10");
  const auto plan = prov.plan(cd::SyncMode::BSP, {cu::minutes(120), 0.8});
  ASSERT_TRUE(plan.feasible);
  EXPECT_GE(plan.n_workers, 1);
  EXPECT_GE(plan.n_ps, 1);
  EXPECT_GT(plan.iterations, 0);
  EXPECT_LE(plan.predicted_time.value(), 120 * 60.0);
  EXPECT_GT(plan.predicted_cost.value(), 0.0);
  EXPECT_FALSE(plan.describe().empty());
}

TEST(Provisioner, ImpossibleGoalReportsInfeasible) {
  auto prov = make_provisioner("vgg19");
  // Nothing trains VGG-19 to 0.8 in half a minute.
  const auto plan = prov.plan(cd::SyncMode::ASP, {cu::Seconds{30.0}, 0.8});
  EXPECT_FALSE(plan.feasible);
  EXPECT_NE(plan.describe().find("infeasible"), std::string::npos);
}

TEST(Provisioner, TighterGoalsBuyMoreWorkers) {
  // Fig. 11: the 90-minute plan uses more workers than the 180-minute plan.
  auto prov = make_provisioner("cifar10");
  const auto tight = prov.plan(cd::SyncMode::BSP, {cu::minutes(90), 0.8});
  const auto loose = prov.plan(cd::SyncMode::BSP, {cu::minutes(180), 0.8});
  ASSERT_TRUE(tight.feasible);
  ASSERT_TRUE(loose.feasible);
  EXPECT_GT(tight.n_workers, loose.n_workers);
}

TEST(Provisioner, HarderLossTargetsRaiseWorkersAndPs) {
  // Fig. 12: at a fixed 60-minute goal, pushing the loss target from 0.8 to
  // 0.7 forces a larger cluster and eventually a second PS.
  auto prov = make_provisioner("cifar10");
  const auto easy = prov.plan(cd::SyncMode::BSP, {cu::minutes(60), 0.8});
  const auto hard = prov.plan(cd::SyncMode::BSP, {cu::minutes(60), 0.7});
  ASSERT_TRUE(easy.feasible);
  ASSERT_TRUE(hard.feasible);
  EXPECT_GT(hard.n_workers, easy.n_workers);
  EXPECT_GE(hard.n_ps, easy.n_ps);
  EXPECT_GT(hard.iterations, easy.iterations);
  EXPECT_GT(hard.predicted_cost.value(), easy.predicted_cost.value());
}

TEST(Provisioner, EscalatesPsWhenMinimumPsInfeasible) {
  // Fig. 13's 30-minute VGG goal: a single PS cannot move the payload fast
  // enough at the required worker count; the plan must carry extra PS
  // capacity rather than report infeasible.
  auto prov = make_provisioner("vgg19");
  const auto plan = prov.plan(cd::SyncMode::ASP, {cu::minutes(30), 0.8});
  ASSERT_TRUE(plan.feasible);
  const auto relaxed = prov.plan(cd::SyncMode::ASP, {cu::minutes(90), 0.8});
  ASSERT_TRUE(relaxed.feasible);
  EXPECT_GT(plan.n_workers, relaxed.n_workers);
  EXPECT_GE(plan.n_ps, relaxed.n_ps);
}

TEST(Provisioner, PlanRespectsTheoremBounds) {
  auto prov = make_provisioner("cifar10");
  const auto plan = prov.plan(cd::SyncMode::BSP, {cu::minutes(90), 0.8});
  ASSERT_TRUE(plan.feasible);
  EXPECT_GE(plan.n_workers, plan.bounds.n_lower);
}

TEST(Provisioner, AspPlansAccountForStaleness) {
  auto prov = make_provisioner("vgg19");
  const auto plan = prov.plan(cd::SyncMode::ASP, {cu::minutes(60), 0.8});
  ASSERT_TRUE(plan.feasible);
  // total = per-worker * n.
  EXPECT_EQ(plan.total_iterations, plan.iterations * plan.n_workers);
}

TEST(Provisioner, KeepTraceRecordsCandidates) {
  auto prov = make_provisioner("cifar10");
  co::ProvisionOptions opts;
  opts.keep_trace = true;
  opts.first_feasible_only = false;
  const auto plan = prov.plan(cd::SyncMode::BSP, {cu::minutes(90), 0.8}, opts);
  ASSERT_TRUE(plan.feasible);
  EXPECT_GT(prov.considered().size(), 1u);
  bool found_chosen = false;
  for (const auto& c : prov.considered()) {
    if (c.type == plan.type.name && c.n_workers == plan.n_workers && c.n_ps == plan.n_ps) {
      found_chosen = true;
      EXPECT_TRUE(c.feasible);
    }
  }
  EXPECT_TRUE(found_chosen);
}

TEST(Provisioner, ExhaustiveNeverBeatsBoundedByMuchAndBothMeetGoal) {
  // The ablation claim: Theorem 4.1 pruning does not exclude materially
  // cheaper plans than brute force over the full grid.
  auto prov = make_provisioner("cifar10");
  const co::ProvisionGoal goal{cu::minutes(90), 0.8};
  co::ProvisionOptions bounded;  // default: Algorithm 1
  co::ProvisionOptions brute;
  brute.exhaustive = true;
  brute.first_feasible_only = false;
  const auto a = prov.plan(cd::SyncMode::BSP, goal, bounded);
  const auto b = prov.plan(cd::SyncMode::BSP, goal, brute);
  ASSERT_TRUE(a.feasible);
  ASSERT_TRUE(b.feasible);
  EXPECT_LE(a.predicted_time.value(), goal.time_goal.value());
  EXPECT_LE(b.predicted_time.value(), goal.time_goal.value());
  EXPECT_LE(b.predicted_cost.value(), a.predicted_cost.value() + 1e-9);
  EXPECT_GT(b.predicted_cost.value(), a.predicted_cost.value() * 0.8);
}

TEST(Provisioner, SingleTypeRestrictionHonored) {
  const auto& r3 = cc::Catalog::aws().at("r3.xlarge");
  auto prov = make_provisioner("cifar10", {r3});
  const auto plan = prov.plan(cd::SyncMode::BSP, {cu::minutes(120), 0.8});
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.type.name, "r3.xlarge");
}

TEST(Provisioner, PrefersCheaperTypeWhenBothFeasible) {
  // m4.xlarge is both faster and cheaper per docker than r3.xlarge in the
  // catalog, so it must win an open search.
  auto prov = make_provisioner("cifar10");
  const auto plan = prov.plan(cd::SyncMode::BSP, {cu::minutes(120), 0.8});
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.type.name, "m4.xlarge");
}

// mnist's fitted loss asymptote lies a hair below this goal, so reaching it
// takes more iterations than a long holds. The count saturates: the bounded
// window is empty and every exhaustive candidate misses the hour. (An
// unclamped count wrapped to LONG_MIN and the exhaustive grid returned a plan
// of -9.2e18 iterations costing $-2.2e15.)
TEST(Provisioner, GoalAtTheAsymptoteIsInfeasible) {
  const auto& w = cd::workload_by_name("mnist");
  const co::Predictor pred = co::Predictor::build(w, m4());
  const co::Provisioner prov(pred.model(), pred.loss(), cc::Catalog::aws().provisionable());
  const co::ProvisionGoal goal{cu::minutes(60), 0.05038256766028726};
  EXPECT_EQ(pred.loss().iterations_for(goal.target_loss, 1), std::numeric_limits<long>::max());
  EXPECT_FALSE(prov.plan(w.sync, goal).feasible);
  co::ProvisionOptions exhaustive;
  exhaustive.exhaustive = true;
  EXPECT_FALSE(prov.plan(w.sync, goal, exhaustive).feasible);
  exhaustive.prune = false;
  EXPECT_FALSE(prov.plan(w.sync, goal, exhaustive).feasible);
}

TEST(Provisioner, InvalidArgumentsThrow) {
  auto prov = make_provisioner("cifar10");
  EXPECT_THROW(prov.plan(cd::SyncMode::BSP, {cu::Seconds{0.0}, 0.8}), std::invalid_argument);
  // Non-finite goals, budgets and bids fail closed: an infinite l_g used to
  // plan 0 iterations for $0, and NaN slipped past every range check.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const cc::SpotMarket market(cc::Catalog::aws(), 1);
  for (double bad : {inf, -inf, nan}) {
    EXPECT_THROW(prov.plan(cd::SyncMode::BSP, {cu::Seconds{bad}, 0.8}), std::invalid_argument);
    EXPECT_THROW(prov.plan(cd::SyncMode::BSP, {cu::minutes(90), bad}), std::invalid_argument);
    EXPECT_THROW(prov.replan(cd::SyncMode::BSP, 1000, cu::Seconds{bad}), std::invalid_argument);
    co::ReplanDegradation derate;
    derate.capability_derate = bad;
    EXPECT_THROW(prov.replan(cd::SyncMode::BSP, 1000, cu::minutes(90), {}, derate),
                 std::invalid_argument);
    co::ReplanDegradation slack;
    slack.slack_margin = bad;
    EXPECT_THROW(prov.replan(cd::SyncMode::BSP, 1000, cu::minutes(90), {}, slack),
                 std::invalid_argument);
    co::SpotPlanOptions spot;
    spot.bid_multiplier = bad;
    EXPECT_THROW(prov.plan_spot(cd::SyncMode::BSP, {cu::minutes(90), 0.8}, market, spot),
                 std::invalid_argument);
  }
  const auto& w = cd::workload_by_name("cifar10");
  co::LossModel loss(w.sync, w.loss().beta0, w.loss().beta1);
  EXPECT_THROW(
      co::Provisioner(prov.model(), loss, std::vector<cc::InstanceType>{}),
      std::invalid_argument);
  // One degenerate copy of m4.xlarge per rate or price field, listed after a
  // sane type: a $0 type would win every plan, a zero rate divides by zero.
  std::vector<cc::InstanceType> bad(4, cc::Catalog::aws().at("m4.xlarge"));
  bad[0].core_gflops = cu::GFlopsRate{0.0};
  bad[1].accel_gflops = cu::GFlopsRate{std::numeric_limits<double>::infinity()};  // compute_gflops
  bad[2].nic_mbps = cu::MBps{std::numeric_limits<double>::quiet_NaN()};
  bad[3].price = cu::DollarsPerHour{0.0};
  for (const cc::InstanceType& type : bad) {
    EXPECT_THROW(co::Provisioner(prov.model(), loss,
                                 std::vector<cc::InstanceType>{cc::Catalog::aws().at("r3.xlarge"),
                                                               type}),
                 std::invalid_argument);
  }
}

// The end-to-end guarantee: a plan executed on the simulated testbed meets
// its goal (the Sec. 5.2 experiments, miniaturized).
class PlanMeetsGoal : public ::testing::TestWithParam<double> {};

TEST_P(PlanMeetsGoal, SimulatedRunLandsUnderGoal) {
  const double loss_goal = GetParam();
  const auto& w = cd::workload_by_name("cifar10");
  auto prov = make_provisioner("cifar10");
  const co::ProvisionGoal goal{cu::minutes(90), loss_goal};
  const auto plan = prov.plan(cd::SyncMode::BSP, goal);
  ASSERT_TRUE(plan.feasible);
  cd::TrainOptions o;
  o.iterations = plan.total_iterations;
  const auto r = cd::run_training(
      cd::ClusterSpec::homogeneous(plan.type, plan.n_workers, plan.n_ps), w, o);
  // 10% tolerance mirrors the paper's "basically meets the goals".
  EXPECT_LE(r.total_time, goal.time_goal.value() * 1.10) << plan.describe();
  EXPECT_LE(r.final_loss, loss_goal * 1.06) << plan.describe();
}

INSTANTIATE_TEST_SUITE_P(LossTargets, PlanMeetsGoal, ::testing::Values(0.8, 0.7, 0.6));
