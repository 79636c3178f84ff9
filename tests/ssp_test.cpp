// Tests for the SSP (stale synchronous parallel) extension: the bounded-
// staleness sync mechanism from the paper's related work [14], implemented
// across the loss law, the training engine, the performance model and the
// provisioner.
#include <gtest/gtest.h>

#include "cloud/instance.hpp"
#include "core/loss_model.hpp"
#include "core/perf_model.hpp"
#include "core/predictor.hpp"
#include "core/provisioner.hpp"
#include "ddnn/loss.hpp"
#include "ddnn/trainer.hpp"
#include "profiler/profiler.hpp"

namespace cd = cynthia::ddnn;
namespace co = cynthia::core;
namespace cc = cynthia::cloud;

namespace {
const cc::InstanceType& m4() { return cc::Catalog::aws().at("m4.xlarge"); }
const cc::InstanceType& m1() { return cc::Catalog::aws().at("m1.xlarge"); }

cd::WorkloadSpec ssp_workload(const char* name, int bound = 3) {
  auto w = cd::workload_by_name(name);
  w.sync = cd::SyncMode::SSP;
  w.ssp_staleness_bound = bound;
  return w;
}
}  // namespace

// ------------------------------------------------------------ staleness law

TEST(SspStaleness, InterpolatesBetweenBspAndAsp) {
  for (int n : {2, 4, 9, 16}) {
    const double bsp = cd::staleness_factor(cd::SyncMode::BSP, n, 0);
    const double asp = cd::staleness_factor(cd::SyncMode::ASP, n, 0);
    const double ssp = cd::staleness_factor(cd::SyncMode::SSP, n, 3);
    EXPECT_DOUBLE_EQ(bsp, 1.0);
    EXPECT_GE(ssp, bsp);
    EXPECT_LE(ssp, asp);
  }
}

TEST(SspStaleness, BoundCapsAtClusterSize) {
  // A bound larger than n-1 cannot add staleness beyond ASP's.
  EXPECT_DOUBLE_EQ(cd::staleness_factor(cd::SyncMode::SSP, 4, 100),
                   cd::staleness_factor(cd::SyncMode::ASP, 4, 0));
  // Bound 0 behaves like BSP in convergence terms.
  EXPECT_DOUBLE_EQ(cd::staleness_factor(cd::SyncMode::SSP, 8, 0), 1.0);
}

TEST(SspStaleness, MonotoneInBound) {
  double prev = 0.0;
  for (int b : {0, 1, 2, 4, 8}) {
    const double f = cd::staleness_factor(cd::SyncMode::SSP, 16, b);
    EXPECT_GE(f, prev);
    prev = f;
  }
}

TEST(SspStaleness, LossModelUsesBound) {
  cd::LossCoefficients c{1000.0, 0.2};
  const double tight = cd::loss_model(c, cd::SyncMode::SSP, 1000, 9, 1);
  const double loose = cd::loss_model(c, cd::SyncMode::SSP, 1000, 9, 8);
  const double asp = cd::loss_model(c, cd::SyncMode::ASP, 1000, 9);
  EXPECT_LT(tight, loose);
  EXPECT_LE(loose, asp);
}

// ---------------------------------------------------------------- engine

TEST(SspEngine, RunsToCompletionDeterministically) {
  const auto w = ssp_workload("cifar10");
  auto cluster = cd::ClusterSpec::homogeneous(m4(), 4, 1);
  cd::TrainOptions o;
  o.iterations = 60;
  const auto a = cd::run_training(cluster, w, o);
  const auto b = cd::run_training(cluster, w, o);
  EXPECT_EQ(a.iterations, 60);
  EXPECT_DOUBLE_EQ(a.total_time, b.total_time);
}

TEST(SspEngine, HomogeneousThroughputMatchesAsp) {
  // With identical workers the gap never binds (jitter is tiny), so SSP
  // and ASP times coincide within a few percent.
  auto ssp = ssp_workload("resnet32", 3);
  auto asp = cd::workload_by_name("resnet32");
  auto cluster = cd::ClusterSpec::homogeneous(m4(), 4, 1);
  cd::TrainOptions o;
  o.iterations = 80;
  const double t_ssp = cd::run_training(cluster, ssp, o).total_time;
  const double t_asp = cd::run_training(cluster, asp, o).total_time;
  EXPECT_NEAR(t_ssp, t_asp, t_asp * 0.05);
}

TEST(SspEngine, StragglersGateFastWorkers) {
  // With a straggler in the cluster a tight bound drags everyone to the
  // straggler's pace; ASP keeps the fast workers productive.
  auto ssp = ssp_workload("resnet32", 1);
  auto asp = cd::workload_by_name("resnet32");
  auto cluster = cd::ClusterSpec::with_stragglers(m4(), m1(), 4, 1);
  cd::TrainOptions o;
  o.iterations = 80;
  const double t_ssp = cd::run_training(cluster, ssp, o).total_time;
  const double t_asp = cd::run_training(cluster, asp, o).total_time;
  EXPECT_GT(t_ssp, t_asp * 1.25);
}

TEST(SspEngine, LooserBoundIsFasterOnStragglerClusters) {
  auto cluster = cd::ClusterSpec::with_stragglers(m4(), m1(), 4, 1);
  cd::TrainOptions o;
  o.iterations = 80;
  const double tight = cd::run_training(cluster, ssp_workload("resnet32", 1), o).total_time;
  const double loose = cd::run_training(cluster, ssp_workload("resnet32", 8), o).total_time;
  EXPECT_LT(loose, tight);
}

TEST(SspEngine, BoundZeroClampsToOneNoDeadlock) {
  auto w = ssp_workload("cifar10", 0);
  auto cluster = cd::ClusterSpec::homogeneous(m4(), 3, 1);
  cd::TrainOptions o;
  o.iterations = 30;
  const auto r = cd::run_training(cluster, w, o);
  EXPECT_EQ(r.iterations, 30);
  EXPECT_GT(r.total_time, 0.0);
}

TEST(SspEngine, TighterBoundConvergesFasterPerIteration) {
  // Same fitted curve, same iteration budget: a tighter staleness bound
  // must end at a lower loss (cross-mode comparisons are not meaningful
  // because the paper fits each mechanism's curve separately).
  auto cluster = cd::ClusterSpec::homogeneous(m4(), 9, 1);
  cd::TrainOptions o;
  o.iterations = 300;
  const double l_tight = cd::run_training(cluster, ssp_workload("resnet32", 1), o).final_loss;
  const double l_loose = cd::run_training(cluster, ssp_workload("resnet32", 8), o).final_loss;
  EXPECT_LT(l_tight, l_loose);
}

// ------------------------------------------------------- model + planner

TEST(SspModel, PredictionTracksSimulatedTime) {
  const auto w = ssp_workload("resnet32", 3);
  const auto profile = cynthia::profiler::profile_workload(w, m4());
  co::CynthiaModel model(profile);
  for (bool hetero : {false, true}) {
    const auto cluster = hetero ? cd::ClusterSpec::with_stragglers(m4(), m1(), 6, 1)
                                : cd::ClusterSpec::homogeneous(m4(), 6, 1);
    cd::TrainOptions o;
    o.iterations = 90;
    const auto obs = cd::run_training(cluster, w, o);
    const double pred = model.predict_total(cluster, cd::SyncMode::SSP, 90).value();
    EXPECT_NEAR(pred, obs.total_time, obs.total_time * 0.15) << "hetero=" << hetero;
  }
}

TEST(SspModel, LossModelRoundTrip) {
  co::LossModel m(cd::SyncMode::SSP, 900.0, 0.25, /*ssp_bound=*/3);
  for (int n : {2, 6, 12}) {
    const long total = m.iterations_for(0.9, n) * n;
    EXPECT_LE(m.loss_at(static_cast<double>(total), n), 0.9 + 1e-9);
  }
  // SSP needs fewer iterations than ASP for the same target (less staleness).
  co::LossModel asp(cd::SyncMode::ASP, 900.0, 0.25);
  EXPECT_LT(m.iterations_for(0.9, 12) * 12, asp.iterations_for(0.9, 12) * 12);
}

TEST(SspProvisioner, ProducesGoalMeetingPlan) {
  auto w = ssp_workload("resnet32", 3);
  const auto pred = co::Predictor::build(w, m4());
  co::Provisioner prov(pred.model(), pred.loss(), {m4()});
  const co::ProvisionGoal goal{cynthia::util::minutes(120), 0.6};
  const auto plan = prov.plan(cd::SyncMode::SSP, goal);
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.total_iterations, plan.iterations * plan.n_workers);
  cd::TrainOptions o;
  o.iterations = plan.total_iterations;
  const auto r = cd::run_training(
      cd::ClusterSpec::homogeneous(plan.type, plan.n_workers, plan.n_ps), w, o);
  EXPECT_LE(r.total_time, goal.time_goal.value() * 1.10);
  EXPECT_LE(r.final_loss, 0.6 * 1.06);
}
