// Tests for Theorem 4.1 (Eqs. 12-14): the provisioning-ratio cap and the
// worker-count search interval.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "cloud/instance.hpp"
#include "core/bounds.hpp"
#include "core/perf_model.hpp"
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

const cp::ProfileResult& profile_of(const char* name) {
  static std::map<std::string, cp::ProfileResult> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, cp::profile_workload(cd::workload_by_name(name), m4())).first;
  }
  return it->second;
}

co::LossModel loss_of(const char* name) {
  const auto& w = cd::workload_by_name(name);
  const auto& c = w.loss();
  return co::LossModel(w.sync, c.beta0, c.beta1);
}
}  // namespace

TEST(Bounds, Eq12RatioUsesTighterOfCpuAndBandwidth) {
  const auto& prof = profile_of("mnist");
  const double r = co::max_provisioning_ratio(prof, m4(), 1.0);
  const double cpu_term = prof.cbase.value() * m4().core_gflops.value() /
                          (prof.cprof.value() * m4().core_gflops.value());
  const double bw_term = co::effective_ps_bandwidth(m4()).value() * prof.cbase.value() /
                         (prof.bprof.value() * m4().core_gflops.value());
  EXPECT_NEAR(r, std::min(cpu_term, bw_term), 1e-9);
  // mnist hammers the PS: only a couple of workers per PS are sustainable.
  EXPECT_LT(r, 5.0);
}

TEST(Bounds, ComputeHeavyWorkloadAllowsManyWorkersPerPs) {
  const double r = co::max_provisioning_ratio(profile_of("resnet32"), m4());
  EXPECT_GT(r, 10.0);
}

TEST(Bounds, HeadroomTightensRatio) {
  const auto& prof = profile_of("vgg19");
  EXPECT_LT(co::max_provisioning_ratio(prof, m4(), 0.8),
            co::max_provisioning_ratio(prof, m4(), 1.0));
}

TEST(Bounds, BspLowerBoundMatchesEq16) {
  const auto& prof = profile_of("cifar10");
  const auto loss = loss_of("cifar10");
  const auto tg = cu::minutes(90);
  const auto b =
      co::bounds_for_goal(co::bound_terms(prof, loss, m4()), loss, cd::SyncMode::BSP, tg, 0.8);
  const long s = loss.iterations_for(0.8, 1);
  const int expect = static_cast<int>(
      std::ceil(prof.witer.value() * s / (tg.value() * m4().core_gflops.value())));
  EXPECT_EQ(b.n_lower, expect);
  EXPECT_EQ(b.iterations, s);
  EXPECT_TRUE(b.feasible);
}

TEST(Bounds, IntervalIsOrderedAndPsPositive) {
  for (const char* name : {"mnist", "cifar10", "resnet32", "vgg19"}) {
    const auto& w = cd::workload_by_name(name);
    const auto loss = loss_of(name);
    const auto b = co::bounds_for_goal(co::bound_terms(profile_of(name), loss, m4()), loss,
                                       w.sync, cu::minutes(60), w.loss().beta1 + 0.5);
    EXPECT_GE(b.n_upper, b.n_lower) << name;
    EXPECT_GE(b.n_lower, 1) << name;
    EXPECT_GE(b.n_ps, 1) << name;
    EXPECT_GT(b.r, 0.0) << name;
  }
}

TEST(Bounds, TighterGoalRaisesLowerBound) {
  const auto& prof = profile_of("cifar10");
  const auto loss = loss_of("cifar10");
  const auto terms = co::bound_terms(prof, loss, m4());
  const auto loose = co::bounds_for_goal(terms, loss, cd::SyncMode::BSP, cu::minutes(180), 0.8);
  const auto tight = co::bounds_for_goal(terms, loss, cd::SyncMode::BSP, cu::minutes(60), 0.8);
  EXPECT_GT(tight.n_lower, loose.n_lower);
}

TEST(Bounds, LowerLossTargetNeedsMoreWorkers) {
  const auto& prof = profile_of("cifar10");
  const auto loss = loss_of("cifar10");
  const auto terms = co::bound_terms(prof, loss, m4());
  const auto easy = co::bounds_for_goal(terms, loss, cd::SyncMode::BSP, cu::minutes(60), 0.8);
  const auto hard = co::bounds_for_goal(terms, loss, cd::SyncMode::BSP, cu::minutes(60), 0.6);
  EXPECT_GT(hard.n_lower, easy.n_lower);
  // Harder targets also demand more PS (Fig. 12's 2-PS cell).
  EXPECT_GE(hard.n_ps, easy.n_ps);
}

TEST(Bounds, AspLowerBoundQuadraticInGoalInverse) {
  // n_lower ~ (1/Tg)^2 for ASP (Eq. 21 analogue): quartering the goal
  // multiplies the bound by ~16.
  const auto& prof = profile_of("vgg19");
  const auto loss = loss_of("vgg19");
  const auto terms = co::bound_terms(prof, loss, m4());
  const auto at60 = co::bounds_for_goal(terms, loss, cd::SyncMode::ASP, cu::minutes(60), 0.8);
  const auto at15 = co::bounds_for_goal(terms, loss, cd::SyncMode::ASP, cu::minutes(15), 0.8);
  EXPECT_GE(at15.n_lower, 12 * at60.n_lower / 1);  // ~16x with ceiling slack
}

TEST(Bounds, UpperForPsGrowsWithPsCount) {
  const auto& prof = profile_of("cifar10");
  const auto loss = loss_of("cifar10");
  const auto terms = co::bound_terms(prof, loss, m4());
  const auto b = co::bounds_for_goal(terms, loss, cd::SyncMode::BSP, cu::minutes(60), 0.7);
  const int u1 = co::row_upper_bound(terms, b, cd::SyncMode::BSP, b.n_ps);
  const int u2 = co::row_upper_bound(terms, b, cd::SyncMode::BSP, b.n_ps + 1);
  EXPECT_EQ(u1, b.n_upper);
  EXPECT_GT(u2, u1);
  EXPECT_THROW(co::row_upper_bound(terms, b, cd::SyncMode::BSP, 0), std::invalid_argument);
}

TEST(Bounds, InvalidGoalsThrow) {
  const auto& prof = profile_of("cifar10");
  const auto loss = loss_of("cifar10");
  const auto terms = co::bound_terms(prof, loss, m4());
  EXPECT_THROW(co::bounds_for_goal(terms, loss, cd::SyncMode::BSP, cu::Seconds{0.0}, 0.8),
               std::invalid_argument);
  EXPECT_THROW(co::bounds_for_goal(terms, loss, cd::SyncMode::BSP, cu::minutes(60), 0.1),
               std::invalid_argument);
}

// The theorem's purpose: the interval must bracket the worker count whose
// simulated time actually meets the goal most cheaply. Validated against a
// brute-force scan of the simulator.
TEST(Bounds, IntervalBracketsSimulatedOptimum) {
  const auto& w = cd::workload_by_name("cifar10");
  const auto& prof = profile_of("cifar10");
  const auto loss = loss_of("cifar10");
  const auto tg = cu::minutes(90);
  const double lg = 0.8;
  const long s = loss.iterations_for(lg, 1);
  const auto b =
      co::bounds_for_goal(co::bound_terms(prof, loss, m4()), loss, cd::SyncMode::BSP, tg, lg);

  // Brute force: smallest n that meets the goal in the simulator (scaled
  // iteration count to keep the test fast; time scales linearly).
  const long probe_iters = 200;
  const double scaled_goal = tg.value() * probe_iters / static_cast<double>(s);
  int best_n = -1;
  for (int n = 1; n <= 24; ++n) {
    cd::TrainOptions o;
    o.iterations = probe_iters;
    const auto r = cd::run_training(cd::ClusterSpec::homogeneous(m4(), n, b.n_ps), w, o);
    if (r.total_time <= scaled_goal) {
      best_n = n;
      break;
    }
  }
  ASSERT_GT(best_n, 0) << "goal unreachable in simulator";
  EXPECT_GE(best_n, b.n_lower - 1);
  EXPECT_LE(best_n, b.n_upper + 1);
}
