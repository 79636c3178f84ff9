// Tests for the Cynthia performance model (Eqs. 2-7): the utilization
// estimator, heterogeneity handling, multi-PS scaling, and prediction
// accuracy against the simulated testbed.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>

#include "cloud/instance.hpp"
#include "core/perf_model.hpp"
#include "core/predictor.hpp"
#include "ddnn/trainer.hpp"
#include "models/zoo.hpp"
#include "profiler/profiler.hpp"
#include "util/stats.hpp"

namespace co = cynthia::core;
namespace cd = cynthia::ddnn;
namespace cc = cynthia::cloud;
namespace cp = cynthia::profiler;

namespace {
const cc::InstanceType& m4() { return cc::Catalog::aws().at("m4.xlarge"); }
const cc::InstanceType& m1() { return cc::Catalog::aws().at("m1.xlarge"); }
const cc::InstanceType& r3() { return cc::Catalog::aws().at("r3.xlarge"); }

const cp::ProfileResult& profile_of(const char* name) {
  static std::map<std::string, cp::ProfileResult> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, cp::profile_workload(cd::workload_by_name(name), m4())).first;
  }
  return it->second;
}
}  // namespace

TEST(PerfModel, EffectiveBandwidthIsFullDuplex) {
  EXPECT_DOUBLE_EQ(co::effective_ps_bandwidth(m4()).value(), 2.0 * m4().nic_mbps.value());
}

TEST(PerfModel, RejectsBadInputs) {
  auto p = profile_of("cifar10");
  EXPECT_THROW(co::CynthiaModel(p, 0.0), std::invalid_argument);
  EXPECT_THROW(co::CynthiaModel(p, 1.5), std::invalid_argument);
  co::CynthiaModel m(p);
  EXPECT_THROW(
      (void)m.predict_total(cd::ClusterSpec::homogeneous(m4(), 1, 1), cd::SyncMode::BSP, 0),
      std::invalid_argument);
  EXPECT_THROW((void)m.predict_iteration(cd::ClusterSpec{}, cd::SyncMode::BSP),
               std::invalid_argument);
}

TEST(PerfModel, Eq4BspComputeSplitsBatch) {
  co::CynthiaModel m(profile_of("cifar10"));
  const auto p2 = m.predict_iteration(cd::ClusterSpec::homogeneous(m4(), 2, 1), cd::SyncMode::BSP);
  const auto p4 = m.predict_iteration(cd::ClusterSpec::homogeneous(m4(), 4, 1), cd::SyncMode::BSP);
  EXPECT_NEAR(p2.t_comp.value(), 2.0 * p4.t_comp.value(), 1e-9);
}

TEST(PerfModel, Eq5BspCommGrowsLinearly) {
  co::CynthiaModel m(profile_of("cifar10"));
  const auto p2 = m.predict_iteration(cd::ClusterSpec::homogeneous(m4(), 2, 1), cd::SyncMode::BSP);
  const auto p8 = m.predict_iteration(cd::ClusterSpec::homogeneous(m4(), 8, 1), cd::SyncMode::BSP);
  EXPECT_NEAR(p8.t_comm.value(), 4.0 * p2.t_comm.value(), 1e-9);
}

TEST(PerfModel, Eq3BspOverlapTakesMax) {
  co::CynthiaModel m(profile_of("cifar10"));
  const auto p = m.predict_iteration(cd::ClusterSpec::homogeneous(m4(), 4, 1), cd::SyncMode::BSP);
  EXPECT_DOUBLE_EQ(p.t_iter.value(), std::max(p.t_comp, p.t_comm).value());
}

TEST(PerfModel, Eq3AspSumsPhases) {
  co::CynthiaModel m(profile_of("vgg19"));
  const auto p = m.predict_iteration(cd::ClusterSpec::homogeneous(m4(), 4, 1), cd::SyncMode::ASP);
  EXPECT_DOUBLE_EQ(p.t_iter.value(), (p.t_comp + p.t_comm).value());
}

TEST(PerfModel, MultiPsWidensBandwidthBudget) {
  co::CynthiaModel m(profile_of("vgg19"));
  const auto one = m.predict_iteration(cd::ClusterSpec::homogeneous(m4(), 4, 1), cd::SyncMode::ASP);
  const auto two = m.predict_iteration(cd::ClusterSpec::homogeneous(m4(), 4, 2), cd::SyncMode::ASP);
  EXPECT_NEAR(one.t_comm.value(), 2.0 * two.t_comm.value(), 1e-9);
  EXPECT_DOUBLE_EQ(two.bw_supply.value(), 2.0 * one.bw_supply.value());
}

TEST(PerfModel, UtilizationEstimatorDetectsMnistPsBottleneck) {
  // mnist's profile is PS-heavy; scaling out must trip the demand/supply
  // bottleneck test and depress the estimated worker utilization (Sec. 3).
  co::CynthiaModel m(profile_of("mnist"));
  const auto p1 = m.predict_iteration(cd::ClusterSpec::homogeneous(m4(), 1, 1), cd::SyncMode::BSP);
  EXPECT_DOUBLE_EQ(p1.worker_utilization, 1.0);
  const auto p8 = m.predict_iteration(cd::ClusterSpec::homogeneous(m4(), 8, 1), cd::SyncMode::BSP);
  EXPECT_TRUE(p8.cpu_bottleneck || p8.bw_bottleneck);
  EXPECT_LT(p8.worker_utilization, 0.6);
  EXPECT_GT(p8.worker_utilization, 0.0);
}

TEST(PerfModel, NoBottleneckForComputeBoundResnet) {
  co::CynthiaModel m(profile_of("resnet32"));
  const auto p = m.predict_iteration(cd::ClusterSpec::homogeneous(m4(), 9, 1), cd::SyncMode::ASP);
  EXPECT_FALSE(p.cpu_bottleneck);
  EXPECT_FALSE(p.bw_bottleneck);
  EXPECT_DOUBLE_EQ(p.worker_utilization, 1.0);
}

TEST(PerfModel, Eq7RScaleModes) {
  co::CynthiaModel m(profile_of("cifar10"));
  // BSP homogeneous: n * c / c_base = n.
  const auto bsp = m.predict_iteration(cd::ClusterSpec::homogeneous(m4(), 6, 1), cd::SyncMode::BSP);
  EXPECT_NEAR(bsp.r_scale, 6.0, 1e-9);
  // BSP heterogeneous: n * min(c) / c_base.
  const auto het =
      m.predict_iteration(cd::ClusterSpec::with_stragglers(m4(), m1(), 6, 1), cd::SyncMode::BSP);
  EXPECT_NEAR(het.r_scale, 6.0 * m1().core_gflops.value() / m4().core_gflops.value(), 1e-9);
  // ASP heterogeneous: sum(c) / c_base.
  const auto asp =
      m.predict_iteration(cd::ClusterSpec::with_stragglers(m4(), m1(), 6, 1), cd::SyncMode::ASP);
  const double expect =
      (3 * m4().core_gflops.value() + 3 * m1().core_gflops.value()) / m4().core_gflops.value();
  EXPECT_NEAR(asp.r_scale, expect, 1e-9);
}

TEST(PerfModel, HeadroomOneRecoversLiteralFormulas) {
  const auto& prof = profile_of("cifar10");
  co::CynthiaModel literal(prof, 1.0);
  const auto p = literal.predict_iteration(cd::ClusterSpec::homogeneous(m4(), 4, 1),
                                           cd::SyncMode::BSP);
  EXPECT_NEAR(p.t_comm.value(), 2.0 * prof.gparam.value() * 4 / (2.0 * m4().nic_mbps.value()),
              1e-9);
  EXPECT_NEAR(p.t_comp.value(), prof.witer.value() / (4 * m4().core_gflops.value()), 1e-9);
}

// ------------------------------------------------ prediction accuracy

struct AccuracyCase {
  const char* workload;
  int n_workers;
  int n_ps;
  bool hetero;
  long iterations;
  double tolerance;  // relative
};

// gtest names each instance after its printed parameter. Without a printer
// it dumps the struct's raw bytes (a pointer and padding), which differ
// from one test discovery to the next.
void PrintTo(const AccuracyCase& tc, std::ostream* os) {
  *os << tc.workload << " n=" << tc.n_workers << " ps=" << tc.n_ps << " hetero=" << tc.hetero
      << " iterations=" << tc.iterations << " tol=" << tc.tolerance;
}

class PredictionAccuracy : public ::testing::TestWithParam<AccuracyCase> {};

TEST_P(PredictionAccuracy, WithinTolerance) {
  const auto& tc = GetParam();
  const auto& w = cd::workload_by_name(tc.workload);
  co::CynthiaModel model(profile_of(tc.workload));
  const auto cluster = tc.hetero
                           ? cd::ClusterSpec::with_stragglers(m4(), m1(), tc.n_workers, tc.n_ps)
                           : cd::ClusterSpec::homogeneous(m4(), tc.n_workers, tc.n_ps);
  cd::TrainOptions o;
  o.iterations = tc.iterations;
  const auto obs = cd::run_training(cluster, w, o);
  const double pred = model.predict_total(cluster, w.sync, tc.iterations).value();
  EXPECT_NEAR(pred, obs.total_time, obs.total_time * tc.tolerance)
      << tc.workload << " n=" << tc.n_workers << " ps=" << tc.n_ps
      << " hetero=" << tc.hetero;
}

INSTANTIATE_TEST_SUITE_P(
    PaperScenarios, PredictionAccuracy,
    ::testing::Values(
        // Fig. 6(a): VGG-19 ASP homogeneous.
        AccuracyCase{"vgg19", 7, 1, false, 200, 0.10},
        AccuracyCase{"vgg19", 9, 1, false, 200, 0.10},
        AccuracyCase{"vgg19", 12, 1, false, 200, 0.10},
        // Fig. 6(b): cifar10 BSP homogeneous.
        AccuracyCase{"cifar10", 4, 1, false, 300, 0.08},
        AccuracyCase{"cifar10", 9, 1, false, 300, 0.08},
        AccuracyCase{"cifar10", 12, 1, false, 300, 0.08},
        // Fig. 9: heterogeneous clusters.
        AccuracyCase{"resnet32", 4, 1, true, 120, 0.12},
        AccuracyCase{"resnet32", 9, 1, true, 120, 0.12},
        // Fig. 10: multiple PS nodes.
        AccuracyCase{"resnet32", 4, 2, false, 120, 0.10},
        AccuracyCase{"vgg19", 9, 2, false, 200, 0.10},
        AccuracyCase{"cifar10", 9, 2, false, 300, 0.10}));

TEST(Predictor, CrossInstancePredictionFig8) {
  // Profile on m4.xlarge, predict r3.xlarge — the whole point of using the
  // capability table instead of per-type profiling.
  const auto& w = cd::workload_by_name("vgg19");
  co::CynthiaModel model(profile_of("vgg19"));
  for (int n : {7, 9, 12}) {
    const auto cluster = cd::ClusterSpec::homogeneous(r3(), n, 1);
    cd::TrainOptions o;
    o.iterations = 200;
    const auto obs = cd::run_training(cluster, w, o);
    const double pred = model.predict_total(cluster, w.sync, 200).value();
    EXPECT_NEAR(pred, obs.total_time, obs.total_time * 0.12) << n;
  }
}

TEST(Predictor, FacadeBuildsAndPredicts) {
  const auto& w = cd::workload_by_name("cifar10");
  co::PredictorOptions opts;
  opts.loss_history_iterations = 1500;
  const auto pred = co::Predictor::build(w, m4(), opts);
  EXPECT_GT(pred.loss().beta0(), 0.0);
  const auto t =
      pred.predict_time(cd::ClusterSpec::homogeneous(m4(), 4, 1), w, /*iterations=*/100);
  EXPECT_GT(t.value(), 0.0);
  // Default iterations path.
  const auto t_default = pred.predict_time(cd::ClusterSpec::homogeneous(m4(), 4, 1), w);
  EXPECT_GT(t_default.value(), t.value());
}

TEST(Predictor, PinnedLossFits) {
  // Predictor::build's fitted (beta0, beta1) at default options, pinned bit
  // for bit. The pins equal the fit over a simulated prior execution (a
  // run_training of the workload's 1000-10000 default iterations), which the
  // sampled loss history must reproduce exactly. The two doubles are
  // compared, not the LossModel object, whose padding bytes are unspecified.
  struct Pin {
    const char* workload;
    std::uint64_t beta0;
    std::uint64_t beta1;
  };
  const Pin pins[] = {
      {"mnist", 0x406f112f46e961e7ULL, 0x3fa9cbbe70c764ceULL},
      {"cifar10", 0x40a36ac4c0cdd8e9ULL, 0x3fd0479d14d44985ULL},
      {"resnet32", 0x408bf5ee2e06aafaULL, 0x3fd0b86136b7aea8ULL},
      {"vgg19", 0x406a18bde5a617b4ULL, 0x3fbba8956f13981aULL},
      {"resnet50", 0x40974cf305ede5afULL, 0x3fd50bc35f9b0ab2ULL},
  };
  for (const Pin& pin : pins) {
    const std::string name = pin.workload;
    const cd::WorkloadSpec w = name == "resnet50"
                                   ? cd::workload_from_network(cynthia::models::build_resnet50())
                                   : cd::workload_by_name(name);
    const auto pred = co::Predictor::build(w, m4());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(pred.loss().beta0()), pin.beta0) << name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(pred.loss().beta1()), pin.beta1) << name;
  }
}

TEST(Predictor, BadLossHistoryThrows) {
  const auto& w = cd::workload_by_name("mnist");
  co::PredictorOptions opts;
  opts.loss_history_workers = 0;
  EXPECT_THROW(co::Predictor::build(w, m4(), opts), std::invalid_argument);
  opts.loss_history_workers = -2;
  EXPECT_THROW(co::Predictor::build(w, m4(), opts), std::invalid_argument);
  opts = {};
  opts.loss_history_iterations = -1;
  EXPECT_THROW(co::Predictor::build(w, m4(), opts), std::invalid_argument);
  // One sample cannot fit two coefficients.
  opts.loss_history_iterations = 1;
  EXPECT_THROW(co::Predictor::build(w, m4(), opts), std::invalid_argument);
  cd::WorkloadSpec no_default = w;
  no_default.default_iterations = 0;
  EXPECT_THROW(co::Predictor::build(no_default, m4()), std::invalid_argument);
}
