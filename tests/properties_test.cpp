// Cross-cutting property tests: conservation laws in the trainer,
// monotonicity of the model and the planner, and invariants that must hold
// across the whole (workload x cluster) grid rather than at hand-picked
// points.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "cloud/instance.hpp"
#include "core/perf_model.hpp"
#include "core/predictor.hpp"
#include "core/provisioner.hpp"
#include "ddnn/trainer.hpp"
#include "profiler/profiler.hpp"

namespace cd = cynthia::ddnn;
namespace co = cynthia::core;
namespace cc = cynthia::cloud;
namespace cu = cynthia::util;

namespace {
const cc::InstanceType& m4() { return cc::Catalog::aws().at("m4.xlarge"); }

const cynthia::profiler::ProfileResult& profile_of(const std::string& name) {
  static std::map<std::string, cynthia::profiler::ProfileResult> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, cynthia::profiler::profile_workload(cd::workload_by_name(name), m4()))
             .first;
  }
  return it->second;
}
}  // namespace

// ------------------------------------------- trainer conservation laws

// workload, workers, ps. The workload is a std::string rather than a
// const char*: gtest prints a pointer tuple element with its address, which
// would make the instance names differ from one test discovery to the next.
using GridPoint = std::tuple<std::string, int, int>;

class TrainerConservation : public ::testing::TestWithParam<GridPoint> {};

TEST_P(TrainerConservation, PsIngressVolumeMatchesPayloadAccounting) {
  const auto [name, n, ps] = GetParam();
  const auto& w = cd::workload_by_name(name);
  cd::TrainOptions o;
  o.iterations = 120;
  const auto cluster = cd::ClusterSpec::homogeneous(m4(), n, ps);
  const auto r = cd::run_training(cluster, w, o);

  // Every iteration pushes one wire-framed gradient payload per
  // participating worker under BSP, and exactly one under ASP.
  const double per_iter =
      w.sync == cd::SyncMode::BSP ? w.gparam.value() * cd::kWireOverhead * n
                                  : w.gparam.value() * cd::kWireOverhead;
  const double expected = per_iter * static_cast<double>(o.iterations);
  const double served = r.ps_ingress_avg_mbps * r.total_time;
  EXPECT_NEAR(served, expected, expected * 0.01)
      << name << " n=" << n << " ps=" << ps;
}

TEST_P(TrainerConservation, TimeBoundsAreRespected) {
  const auto [name, n, ps] = GetParam();
  const auto& w = cd::workload_by_name(name);
  cd::TrainOptions o;
  o.iterations = 120;
  o.compute_jitter = 0.0;
  const auto cluster = cd::ClusterSpec::homogeneous(m4(), n, ps);
  const auto r = cd::run_training(cluster, w, o);

  // Lower bound: pure computation on ideal hardware can never be beaten.
  const double comp_floor =
      w.sync == cd::SyncMode::BSP
          ? o.iterations * w.witer.value() / (n * m4().core_gflops.value())
          : o.iterations * w.witer.value() / (n * m4().core_gflops.value());
  EXPECT_GE(r.total_time, comp_floor * 0.999) << name;
  // Communication floor: the PS NICs must carry the full payload.
  const double ingress_total = w.gparam.value() * cd::kWireOverhead * o.iterations *
                               (w.sync == cd::SyncMode::BSP ? n : 1);
  const double comm_floor = ingress_total / (ps * m4().nic_mbps.value());
  EXPECT_GE(r.total_time, comm_floor * 0.999) << name;
}

INSTANTIATE_TEST_SUITE_P(Grid, TrainerConservation,
                         ::testing::Values(GridPoint{"cifar10", 2, 1},
                                           GridPoint{"cifar10", 6, 1},
                                           GridPoint{"cifar10", 6, 2},
                                           GridPoint{"mnist", 4, 1},
                                           GridPoint{"mnist", 4, 2},
                                           GridPoint{"resnet32", 3, 1},
                                           GridPoint{"vgg19", 3, 1},
                                           GridPoint{"vgg19", 3, 2}));

// -------------------------------------------------- model monotonicity

class ModelMonotonicity : public ::testing::TestWithParam<const char*> {};

TEST_P(ModelMonotonicity, BspComputationNonIncreasingInWorkers) {
  co::CynthiaModel model(profile_of(GetParam()));
  double prev = 1e18;
  for (int n = 1; n <= 16; ++n) {
    const auto p =
        model.predict_iteration(cd::ClusterSpec::homogeneous(m4(), n, 1), cd::SyncMode::BSP);
    EXPECT_LE(p.t_comp.value(), prev * (1.0 + 1e-9)) << "n=" << n;
    prev = p.t_comp.value();
  }
}

TEST_P(ModelMonotonicity, BspCommunicationNonDecreasingInWorkers) {
  co::CynthiaModel model(profile_of(GetParam()));
  double prev = 0.0;
  for (int n = 1; n <= 16; ++n) {
    const auto p =
        model.predict_iteration(cd::ClusterSpec::homogeneous(m4(), n, 1), cd::SyncMode::BSP);
    EXPECT_GE(p.t_comm.value(), prev - 1e-12) << "n=" << n;
    prev = p.t_comm.value();
  }
}

TEST_P(ModelMonotonicity, MorePsNeverHurtsPrediction) {
  co::CynthiaModel model(profile_of(GetParam()));
  const auto& w = cd::workload_by_name(GetParam());
  for (int n : {4, 9}) {
    double prev = 1e18;
    for (int ps = 1; ps <= 4; ++ps) {
      const double t =
          model.predict_total(cd::ClusterSpec::homogeneous(m4(), n, ps), w.sync, 500).value();
      EXPECT_LE(t, prev * (1.0 + 1e-9)) << "n=" << n << " ps=" << ps;
      prev = t;
    }
  }
}

TEST_P(ModelMonotonicity, UtilizationEstimateWithinUnitInterval) {
  co::CynthiaModel model(profile_of(GetParam()));
  const auto& w = cd::workload_by_name(GetParam());
  for (int n = 1; n <= 20; ++n) {
    const auto p = model.predict_iteration(cd::ClusterSpec::homogeneous(m4(), n, 1), w.sync);
    EXPECT_GT(p.worker_utilization, 0.0);
    EXPECT_LE(p.worker_utilization, 1.0);
    EXPECT_GT(p.t_iter.value(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, ModelMonotonicity,
                         ::testing::Values("mnist", "cifar10", "resnet32", "vgg19"));

// ------------------------------------------------ planner monotonicity

class PlannerMonotonicity : public ::testing::TestWithParam<const char*> {};

TEST_P(PlannerMonotonicity, TighterGoalsNeverShrinkTheCluster) {
  const auto& w = cd::workload_by_name(GetParam());
  const auto pred = co::Predictor::build(w, m4());
  co::Provisioner prov(pred.model(), pred.loss(), {m4()});
  const double target = w.loss().beta1 + 0.5;
  int prev_workers = 1 << 20;
  // Sweep goals from tight to loose: worker demand must not increase.
  for (double mins : {45.0, 90.0, 150.0, 240.0}) {
    const auto plan = prov.plan(w.sync, {cu::minutes(mins), target});
    if (!plan.feasible) continue;  // tightest goals may be unreachable
    EXPECT_LE(plan.n_workers, prev_workers) << mins << " min";
    prev_workers = plan.n_workers;
  }
}

TEST_P(PlannerMonotonicity, HarderLossTargetsNeverReduceIterations) {
  const auto& w = cd::workload_by_name(GetParam());
  const auto pred = co::Predictor::build(w, m4());
  co::Provisioner prov(pred.model(), pred.loss(), {m4()});
  long prev_total = 0;
  const double base = pred.loss().beta1();
  for (double target : {base + 0.8, base + 0.55, base + 0.35}) {
    const auto plan = prov.plan(w.sync, {cu::minutes(180), target});
    if (!plan.feasible) continue;
    EXPECT_GE(plan.total_iterations, prev_total) << "target=" << target;
    prev_total = plan.total_iterations;
  }
}

TEST_P(PlannerMonotonicity, PlansAlwaysSatisfyTheirOwnPrediction) {
  const auto& w = cd::workload_by_name(GetParam());
  const auto pred = co::Predictor::build(w, m4());
  co::Provisioner prov(pred.model(), pred.loss(), cc::Catalog::aws().provisionable());
  for (double mins : {60.0, 120.0}) {
    const auto plan = prov.plan(w.sync, {cu::minutes(mins), w.loss().beta1 + 0.5});
    if (!plan.feasible) continue;
    EXPECT_LE(plan.predicted_time.value(), mins * 60.0 + 1e-6);
    EXPECT_GE(plan.n_workers, plan.bounds.n_lower);
    EXPECT_GT(plan.predicted_cost.value(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, PlannerMonotonicity,
                         ::testing::Values("mnist", "cifar10", "resnet32", "vgg19"));
