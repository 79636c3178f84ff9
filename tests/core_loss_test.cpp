// Tests for Cynthia's fitted loss model (Eq. 1, Eq. 15, and the ASP
// inversion discussed at Eq. 20).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "cloud/instance.hpp"
#include "core/loss_model.hpp"
#include "ddnn/loss.hpp"
#include "ddnn/trainer.hpp"
#include "util/rng.hpp"

namespace co = cynthia::core;
namespace cd = cynthia::ddnn;

namespace {
std::vector<co::TaggedLossSample> synth_samples(cd::SyncMode mode, double b0, double b1, int n) {
  std::vector<co::TaggedLossSample> out;
  for (long s = 100; s <= 3000; s += 100) {
    const double stale = mode == cd::SyncMode::ASP ? std::sqrt(static_cast<double>(n)) : 1.0;
    out.push_back({s, n, b0 * stale / static_cast<double>(s) + b1});
  }
  return out;
}
}  // namespace

TEST(LossFit, RecoversBspCoefficientsExactly) {
  const auto samples = synth_samples(cd::SyncMode::BSP, 1200.0, 0.3, 4);
  const auto m = co::LossModel::fit(cd::SyncMode::BSP, samples);
  EXPECT_NEAR(m.beta0(), 1200.0, 1e-3);
  EXPECT_NEAR(m.beta1(), 0.3, 1e-6);
}

TEST(LossFit, RecoversAspCoefficientsAcrossWorkerCounts) {
  // Mix samples from runs at different n: the sqrt(n)/s regressor must
  // reconcile them into one (beta0, beta1).
  auto samples = synth_samples(cd::SyncMode::ASP, 800.0, 0.2, 4);
  const auto more = synth_samples(cd::SyncMode::ASP, 800.0, 0.2, 9);
  samples.insert(samples.end(), more.begin(), more.end());
  const auto m = co::LossModel::fit(cd::SyncMode::ASP, samples);
  EXPECT_NEAR(m.beta0(), 800.0, 1e-3);
  EXPECT_NEAR(m.beta1(), 0.2, 1e-6);
}

TEST(LossFit, RobustToNoise) {
  auto samples = synth_samples(cd::SyncMode::BSP, 1000.0, 0.25, 1);
  cynthia::util::Rng rng(3);
  for (auto& s : samples) s.loss *= rng.jitter(0.05);
  const auto m = co::LossModel::fit(cd::SyncMode::BSP, samples);
  EXPECT_NEAR(m.beta0(), 1000.0, 100.0);
  EXPECT_NEAR(m.beta1(), 0.25, 0.05);
}

TEST(LossFit, RejectsDegenerateInputs) {
  std::vector<co::TaggedLossSample> one{{100, 1, 1.0}};
  EXPECT_THROW(co::LossModel::fit(cd::SyncMode::BSP, one), std::invalid_argument);
  std::vector<co::TaggedLossSample> bad{{0, 1, 1.0}, {100, 1, 0.5}};
  EXPECT_THROW(co::LossModel::fit(cd::SyncMode::BSP, bad), std::invalid_argument);
  // Increasing loss -> beta0 < 0 -> rejected.
  std::vector<co::TaggedLossSample> rising{{100, 1, 0.1}, {200, 1, 0.5}, {400, 1, 1.0}};
  EXPECT_THROW(co::LossModel::fit(cd::SyncMode::BSP, rising), std::runtime_error);
}

TEST(LossModel, Eq15BspIterations) {
  co::LossModel m(cd::SyncMode::BSP, 2500.0, 0.25);
  // s = ceil(beta0 / (l - beta1)).
  EXPECT_EQ(m.iterations_for(0.8, 1), static_cast<long>(std::ceil(2500.0 / 0.55)));
  EXPECT_EQ(m.iterations_for(0.8, 16), m.iterations_for(0.8, 1)) << "BSP independent of n";
}

TEST(LossModel, AspInversionActuallyReachesTarget) {
  // The exact inversion (unlike the paper's printed Eq. 20) must satisfy
  // loss(total iterations) <= target.
  co::LossModel m(cd::SyncMode::ASP, 210.0, 0.10);
  for (int n : {1, 4, 9, 16}) {
    const long per_worker = m.iterations_for(0.8, n);
    const long total = per_worker * n;
    EXPECT_LE(m.loss_at(static_cast<double>(total), n), 0.8 + 1e-9) << n;
    // And it is tight: one fewer per-worker iteration would miss.
    if (per_worker > 1) {
      EXPECT_GT(m.loss_at(static_cast<double>((per_worker - 1) * n), n), 0.8 - 1e-2);
    }
  }
}

TEST(LossModel, AspNeedsFewerPerWorkerIterationsWithMoreWorkers) {
  co::LossModel m(cd::SyncMode::ASP, 210.0, 0.10);
  EXPECT_GT(m.iterations_for(0.8, 2), m.iterations_for(0.8, 8));
  // But more total work due to staleness.
  EXPECT_LT(m.iterations_for(0.8, 2) * 2, m.iterations_for(0.8, 8) * 8);
}

// A goal a hair above the asymptote needs more steps than a long holds and
// saturates; a goal the first step already meets still takes that step. Both
// the fitted model and the ground-truth process clamp to [1, LONG_MAX].
TEST(LossModel, StepCountsClampToOneAndLongMax) {
  constexpr long kMax = std::numeric_limits<long>::max();
  const cd::LossCoefficients c{1.0, 0.0};
  for (const cd::SyncMode mode : {cd::SyncMode::BSP, cd::SyncMode::ASP, cd::SyncMode::SSP}) {
    SCOPED_TRACE(static_cast<int>(mode));
    const co::LossModel m(mode, 1.0, 0.0);
    EXPECT_EQ(m.iterations_for(1e-300, 4), kMax);
    EXPECT_EQ(m.iterations_for(1e20, 4), 1);
    EXPECT_EQ(m.iterations_for(1e20, 1), 1);
    EXPECT_EQ(cd::iterations_to_reach(c, mode, 1e-300, 4), kMax);
    EXPECT_EQ(cd::iterations_to_reach(c, mode, 1e20, 4), 1);
  }
  EXPECT_EQ(cd::whole_steps(std::nan("")), kMax);
  EXPECT_EQ(cd::whole_steps(-5.0), 1);
}

TEST(LossModel, InvalidTargetsThrow) {
  co::LossModel m(cd::SyncMode::BSP, 1000.0, 0.3);
  EXPECT_THROW((void)m.iterations_for(0.3, 1), std::invalid_argument);
  EXPECT_THROW((void)m.iterations_for(0.1, 1), std::invalid_argument);
  EXPECT_THROW((void)m.loss_at(0.0, 1), std::invalid_argument);
  EXPECT_THROW((void)m.iterations_for(0.8, 0), std::invalid_argument);
  EXPECT_THROW(co::LossModel(cd::SyncMode::BSP, -1.0, 0.0), std::invalid_argument);
}

TEST(LossFit, FitRunEndToEndOnSimulatedCurve) {
  // Fit from an actual simulated training run and check the recovered
  // coefficients predict the workload's ground truth within noise.
  const auto& w = cd::workload_by_name("cifar10");
  const auto& m4 = cynthia::cloud::Catalog::aws().at("m4.xlarge");
  cd::TrainOptions o;
  o.iterations = 2000;
  o.loss_sample_stride = 50;
  const auto run = cd::run_training(cd::ClusterSpec::homogeneous(m4, 4, 1), w, o);
  const auto m = co::LossModel::fit_run(cd::SyncMode::BSP, run, 4);
  EXPECT_NEAR(m.beta0(), w.bsp_loss.beta0, w.bsp_loss.beta0 * 0.08);
  EXPECT_NEAR(m.beta1(), w.bsp_loss.beta1, 0.08);
}
