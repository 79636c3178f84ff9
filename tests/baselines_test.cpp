// Tests for the Paleo and Optimus comparison baselines — including the
// failure modes the paper demonstrates against them.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "baselines/optimus.hpp"
#include "baselines/optimus_provisioner.hpp"
#include "baselines/paleo.hpp"
#include "cloud/instance.hpp"
#include "core/perf_model.hpp"
#include "ddnn/trainer.hpp"
#include "profiler/profiler.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace cb = cynthia::baselines;
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
}  // namespace

// ----------------------------------------------------------------- Paleo

TEST(Paleo, SumsComputationAndCommunication) {
  cb::PaleoModel paleo(profile_of("cifar10"));
  co::CynthiaModel cynthia(profile_of("cifar10"), 1.0);
  const auto cluster = cd::ClusterSpec::homogeneous(m4(), 8, 1);
  const double p = paleo.predict_iteration(cluster, cd::SyncMode::BSP);
  const auto c = cynthia.predict_iteration(cluster, cd::SyncMode::BSP);
  // Same ingredients, but sum vs max: Paleo must exceed the overlapped
  // estimate (its documented overprediction, Fig. 6b).
  EXPECT_NEAR(p, (c.t_comp + c.t_comm).value(), 1e-9);
  EXPECT_GT(p, c.t_iter.value());
}

TEST(Paleo, OverpredictsOverlappedBspTraining) {
  const auto& w = cd::workload_by_name("cifar10");
  cb::PaleoModel paleo(profile_of("cifar10"));
  const auto cluster = cd::ClusterSpec::homogeneous(m4(), 12, 1);
  cd::TrainOptions o;
  o.iterations = 200;
  const auto obs = cd::run_training(cluster, w, o);
  const double pred = paleo.predict_total(cluster, cd::SyncMode::BSP, 200).value();
  EXPECT_GT(pred, obs.total_time * 1.3) << "Paleo should overshoot under comm growth";
}

TEST(Paleo, ObliviousToHeterogeneity) {
  // Mean-capability assumption: the straggler cluster prediction is far
  // below its true barrier-bound time (Fig. 9's motivation).
  const auto& w = cd::workload_by_name("mnist");
  cb::PaleoModel paleo(profile_of("mnist"));
  const auto hetero =
      cd::ClusterSpec::with_stragglers(m4(), cc::Catalog::aws().at("m1.xlarge"), 2, 1);
  cd::TrainOptions o;
  o.iterations = 1000;
  const auto obs = cd::run_training(hetero, w, o);
  const double pred = paleo.predict_total(hetero, cd::SyncMode::BSP, 1000).value();
  EXPECT_LT(pred, obs.total_time * 0.8);
}

TEST(Paleo, AspDividesAcrossWorkers) {
  cb::PaleoModel paleo(profile_of("vgg19"));
  const auto c4 = cd::ClusterSpec::homogeneous(m4(), 4, 1);
  const auto c8 = cd::ClusterSpec::homogeneous(m4(), 8, 1);
  const double t4 = paleo.predict_total(c4, cd::SyncMode::ASP, 100).value();
  const double t8 = paleo.predict_total(c8, cd::SyncMode::ASP, 100).value();
  EXPECT_NEAR(t4, 2.0 * t8, 1e-6);
}

TEST(Paleo, InvalidEfficiencyThrows) {
  EXPECT_THROW(cb::PaleoModel(profile_of("cifar10"), 0.0), std::invalid_argument);
  EXPECT_THROW(cb::PaleoModel(profile_of("cifar10"), 1.5), std::invalid_argument);
}

// --------------------------------------------------------------- Optimus

TEST(Optimus, FitsSyntheticSpeedCurveExactly) {
  // t = 1 + 8/w + 0.2 w/p: generated points must be recovered.
  std::vector<cb::SpeedSample> samples;
  for (int w = 1; w <= 6; ++w) {
    for (int p = 1; p <= 2; ++p) {
      samples.push_back({w, p, 1.0 + 8.0 / w + 0.2 * w / p});
    }
  }
  const auto m = cb::OptimusModel::fit(cd::SyncMode::BSP, samples);
  EXPECT_NEAR(m.predict_iteration(10, 1), 1.0 + 0.8 + 2.0, 0.05);
  EXPECT_NEAR(m.predict_iteration(10, 2), 1.0 + 0.8 + 1.0, 0.05);
}

TEST(Optimus, CoefficientsNonNegative) {
  const auto m = cb::OptimusModel::fit_online(cd::workload_by_name("cifar10"), m4());
  for (double t : m.coefficients()) EXPECT_GE(t, 0.0);
}

TEST(Optimus, FitRejectsBadSamples) {
  std::vector<cb::SpeedSample> two{{1, 1, 1.0}, {2, 1, 0.5}};
  EXPECT_THROW(cb::OptimusModel::fit(cd::SyncMode::BSP, two), std::invalid_argument);
  std::vector<cb::SpeedSample> bad{{1, 1, 1.0}, {0, 1, 0.5}, {2, 1, 0.4}};
  EXPECT_THROW(cb::OptimusModel::fit(cd::SyncMode::BSP, bad), std::invalid_argument);
}

TEST(Optimus, InterpolatesWellInsideSampledRange) {
  const auto& w = cd::workload_by_name("cifar10");
  const auto m = cb::OptimusModel::fit_online(w, m4(), {1, 2, 4});
  const auto cluster = cd::ClusterSpec::homogeneous(m4(), 3, 1);
  cd::TrainOptions o;
  o.iterations = 100;
  const auto obs = cd::run_training(cluster, w, o);
  const double pred = m.predict_total(3, 1, 100).value();
  EXPECT_NEAR(pred, obs.total_time, obs.total_time * 0.10);
}

TEST(Optimus, ExtrapolationDegradesUnderPsBottleneck) {
  // The paper's core criticism (Fig. 6a): samples taken at 1-4 workers say
  // nothing about the PS bottleneck at 9+, so the prediction error grows
  // while Cynthia's stays bounded.
  const auto& w = cd::workload_by_name("vgg19");
  const auto optimus = cb::OptimusModel::fit_online(w, m4(), {1, 2, 4});
  co::CynthiaModel cynthia(profile_of("vgg19"));
  const auto cluster = cd::ClusterSpec::homogeneous(m4(), 12, 1);
  cd::TrainOptions o;
  o.iterations = 150;
  const auto obs = cd::run_training(cluster, w, o);
  const double err_opt =
      cu::relative_error_percent(obs.total_time, optimus.predict_total(12, 1, 150).value());
  const double err_cyn = cu::relative_error_percent(
      obs.total_time, cynthia.predict_total(cluster, cd::SyncMode::ASP, 150).value());
  EXPECT_GT(err_opt, err_cyn);
  EXPECT_LT(err_cyn, 10.0);
}

TEST(Optimus, PredictInvalidInputsThrow) {
  const auto m = cb::OptimusModel::fit_online(cd::workload_by_name("cifar10"), m4());
  EXPECT_THROW((void)m.predict_iteration(0, 1), std::invalid_argument);
  EXPECT_THROW((void)m.predict_total(1, 1, 0), std::invalid_argument);
}

// --------------------------------------------------- modified Optimus

TEST(OptimusProvisioner, ProducesFeasiblePlanByItsOwnModel) {
  const auto& w = cd::workload_by_name("cifar10");
  co::LossModel loss(w.sync, w.bsp_loss.beta0, w.bsp_loss.beta1);
  auto prov = cb::OptimusProvisioner::build_online(w, loss, {m4()});
  const auto plan = prov.plan(cd::SyncMode::BSP, {cu::minutes(90), 0.8});
  ASSERT_TRUE(plan.feasible);
  EXPECT_LE(plan.predicted_time.value(), 90 * 60.0);
  EXPECT_GE(plan.n_workers, 1);
}

TEST(OptimusProvisioner, OverProvisionsRelativeToCynthia) {
  // Fig. 11(b): modified Optimus buys more workers than Cynthia for the
  // same goal (it keeps minimizing its own predicted cost, which favours
  // large clusters because its fitted curve underestimates comm growth).
  const auto& w = cd::workload_by_name("cifar10");
  co::LossModel loss(w.sync, w.bsp_loss.beta0, w.bsp_loss.beta1);
  auto optimus = cb::OptimusProvisioner::build_online(w, loss, {m4()});
  const auto oplan = optimus.plan(cd::SyncMode::BSP, {cu::minutes(90), 0.8});

  co::Provisioner cynthia(co::CynthiaModel(profile_of("cifar10")), loss, {m4()});
  const auto cplan = cynthia.plan(cd::SyncMode::BSP, {cu::minutes(90), 0.8});

  ASSERT_TRUE(oplan.feasible);
  ASSERT_TRUE(cplan.feasible);
  EXPECT_GE(oplan.n_workers, cplan.n_workers);
}

TEST(OptimusProvisioner, MismatchedModelCountThrows) {
  const auto& w = cd::workload_by_name("cifar10");
  co::LossModel loss(w.sync, w.bsp_loss.beta0, w.bsp_loss.beta1);
  auto m = cb::OptimusModel::fit_online(w, m4());
  EXPECT_THROW(cb::OptimusProvisioner({m}, loss, {m4(), cc::Catalog::aws().at("r3.xlarge")}),
               std::invalid_argument);
}
