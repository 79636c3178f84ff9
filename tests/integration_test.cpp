// Cross-module integration tests: the full Cynthia pipeline against the
// simulated EC2 testbed, plus the headline claims of the paper at reduced
// iteration counts (the benches reproduce them at full scale).
#include <gtest/gtest.h>

#include <cstdint>

#include "baselines/optimus_provisioner.hpp"
#include "baselines/paleo.hpp"
#include "cloud/instance.hpp"
#include "core/predictor.hpp"
#include "core/provisioner.hpp"
#include "ddnn/loss.hpp"
#include "ddnn/trainer.hpp"
#include "orchestrator/executor.hpp"
#include "profiler/profiler.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace co = cynthia::core;
namespace cd = cynthia::ddnn;
namespace cb = cynthia::baselines;
namespace cc = cynthia::cloud;
namespace cu = cynthia::util;

namespace {
const cc::InstanceType& m4() { return cc::Catalog::aws().at("m4.xlarge"); }

/// Predictor options whose loss history is `iterations` long.
co::PredictorOptions history_of(long iterations) {
  co::PredictorOptions options;
  options.loss_history_iterations = iterations;
  return options;
}
}  // namespace

TEST(Integration, ProfileOncepredictEverywhere) {
  // One profile must support predictions across worker counts, PS counts,
  // heterogeneity and a different instance type, all within 15%.
  const auto& w = cd::workload_by_name("cifar10");
  const auto pred = co::Predictor::build(w, m4(), history_of(1000));
  struct Case {
    cd::ClusterSpec cluster;
    const char* label;
  };
  const auto& m1 = cc::Catalog::aws().at("m1.xlarge");
  const auto& c3 = cc::Catalog::aws().at("c3.xlarge");
  std::vector<Case> cases{
      {cd::ClusterSpec::homogeneous(m4(), 6, 1), "m4 x6"},
      {cd::ClusterSpec::homogeneous(m4(), 10, 2), "m4 x10 2ps"},
      {cd::ClusterSpec::with_stragglers(m4(), m1, 6, 1), "hetero x6"},
      {cd::ClusterSpec::homogeneous(c3, 6, 1), "c3 x6 (cross-type)"},
  };
  for (const auto& tc : cases) {
    cd::TrainOptions o;
    o.iterations = 250;
    const auto obs = cd::run_training(tc.cluster, w, o);
    const double predicted = pred.model().predict_total(tc.cluster, w.sync, 250).value();
    EXPECT_NEAR(predicted, obs.total_time, obs.total_time * 0.15) << tc.label;
  }
}

TEST(Integration, CynthiaBeatsBaselinesUnderBottleneck) {
  // The Fig. 6 aggregate claim, as a strict inequality on mean error over
  // the bottlenecked operating points.
  const auto& w = cd::workload_by_name("vgg19");
  const auto profile = cynthia::profiler::profile_workload(w, m4());
  co::CynthiaModel cynthia(profile);
  cb::PaleoModel paleo(profile);
  const auto optimus = cb::OptimusModel::fit_online(w, m4(), {1, 2, 4});

  std::vector<double> obs_v, cyn_v, pal_v, opt_v;
  for (int n : {9, 11, 13}) {
    const auto cluster = cd::ClusterSpec::homogeneous(m4(), n, 1);
    cd::TrainOptions o;
    o.iterations = 150;
    obs_v.push_back(cd::run_training(cluster, w, o).total_time);
    cyn_v.push_back(cynthia.predict_total(cluster, w.sync, 150).value());
    pal_v.push_back(paleo.predict_total(cluster, w.sync, 150).value());
    opt_v.push_back(optimus.predict_total(n, 1, 150).value());
  }
  const double cyn_err = cu::mape_percent(obs_v, cyn_v);
  const double pal_err = cu::mape_percent(obs_v, pal_v);
  const double opt_err = cu::mape_percent(obs_v, opt_v);
  EXPECT_LT(cyn_err, 10.0);
  EXPECT_LT(cyn_err, opt_err);
  EXPECT_LT(cyn_err, pal_err);
}

TEST(Integration, PlannedIterationBudgetReachesTargetLoss) {
  // Loss-model round trip: fit from a prior run, invert for a target,
  // train the planned budget, verify the achieved loss.
  const auto& w = cd::workload_by_name("resnet32");
  const auto pred = co::Predictor::build(w, m4(), history_of(600));
  const int n = 6;
  const long per_worker = pred.loss().iterations_for(0.9, n);
  cd::TrainOptions o;
  o.iterations = per_worker * n;
  const auto r = cd::run_training(cd::ClusterSpec::homogeneous(m4(), n, 1), w, o);
  EXPECT_LE(r.final_loss, 0.9 * 1.08);
  EXPECT_GE(r.final_loss, 0.9 * 0.8) << "budget should be tight, not wasteful";
}

TEST(Integration, CostSavingVersusOptimusOnTightLossGoal) {
  // Fig. 12(b): at 60 min / loss 0.7, Cynthia's plan must be no more
  // expensive than modified Optimus' when both are executed on the testbed.
  const auto& w = cd::workload_by_name("cifar10");
  const auto pred = co::Predictor::build(w, m4(), history_of(2000));
  co::Provisioner cynthia(pred.model(), pred.loss(), {m4()});
  auto optimus = cb::OptimusProvisioner::build_online(w, pred.loss(), {m4()});
  const co::ProvisionGoal goal{cu::minutes(60), 0.7};

  const auto cplan = cynthia.plan(w.sync, goal);
  const auto oplan = optimus.plan(w.sync, goal);
  ASSERT_TRUE(cplan.feasible);
  ASSERT_TRUE(oplan.feasible);

  auto execute = [&](const co::ProvisionPlan& plan) {
    cd::TrainOptions o;
    o.iterations = plan.total_iterations;
    const auto r = cd::run_training(
        cd::ClusterSpec::homogeneous(plan.type, plan.n_workers, plan.n_ps), w, o);
    return co::plan_cost(plan.type, plan.n_workers, plan.n_ps, cu::Seconds{r.total_time});
  };
  EXPECT_LE(execute(cplan).value(), execute(oplan).value() * 1.02);
}

TEST(Integration, ServiceReportsConsistentAccounting) {
  // The prototype's pipeline: profile on m4.xlarge, Algorithm 1 over the
  // provisionable catalog, then provision, train and bill the plan.
  const auto& w = cd::workload_by_name("cifar10");
  const auto pred = co::Predictor::build(w, m4());
  const co::Provisioner provisioner(pred.model(), pred.loss(),
                                    cc::Catalog::aws().provisionable());
  const co::ProvisionGoal goal{cu::minutes(150), 0.8};
  const auto plan = provisioner.plan(w.sync, goal);
  ASSERT_TRUE(plan.feasible);
  const auto report = cynthia::orch::execute_job({w, plan, goal});
  // Achieved loss close to target (the budget is sized for it).
  EXPECT_NEAR(report.achieved_loss, 0.8, 0.08);
  // Training consumed exactly the planned budget.
  EXPECT_EQ(report.training.iterations, plan.total_iterations);
  // The report's wall time is what the trainer measured, and the bill covers
  // provisioning and training.
  EXPECT_GT(report.training.total_time, 0.0);
  EXPECT_GT(report.provisioning.value(), 0.0);
  EXPECT_GT(report.actual_cost.value(), plan.predicted_cost.value() * 0.5);
}

TEST(Integration, RepeatedRunsAreStableAcrossSeeds) {
  // The paper repeats each experiment 3x and reports small error bars;
  // our jittered simulator must behave the same way.
  const auto& w = cd::workload_by_name("cifar10");
  cu::RunningStats times;
  for (std::uint64_t rep = 0; rep < 3; ++rep) {
    cd::TrainOptions training;
    training.iterations = 200;
    training.seed = 1 + rep * 0x9e3779b9ULL;
    times.add(cd::run_training(cd::ClusterSpec::homogeneous(m4(), 8, 1), w, training).total_time);
  }
  EXPECT_LT(times.stddev() / times.mean(), 0.05);
}
