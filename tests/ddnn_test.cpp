// Tests for the DDNN training simulation: workloads, loss process, cluster
// specs, and — most importantly — the BSP/ASP engines' emergent behaviour
// (the phenomena of the paper's Sec. 2).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "cloud/instance.hpp"
#include "ddnn/cluster.hpp"
#include "ddnn/loss.hpp"
#include "ddnn/trainer.hpp"
#include "ddnn/workload.hpp"
#include "models/zoo.hpp"

namespace cd = cynthia::ddnn;
namespace cc = cynthia::cloud;
namespace cm = cynthia::models;

namespace {
const cc::InstanceType& m4() { return cc::Catalog::aws().at("m4.xlarge"); }
const cc::InstanceType& m1() { return cc::Catalog::aws().at("m1.xlarge"); }
}  // namespace

// ------------------------------------------------------------- workloads

TEST(Workload, PaperTable4ValuesPresent) {
  const auto& w = cd::workload_by_name("resnet32");
  EXPECT_DOUBLE_EQ(w.witer.value(), 39.87);
  EXPECT_DOUBLE_EQ(w.gparam.value(), 2.22);
  EXPECT_EQ(w.sync, cd::SyncMode::ASP);
  EXPECT_EQ(w.default_iterations, 3000);
  EXPECT_EQ(w.batch_size, 128);
}

TEST(Workload, AllFourPaperWorkloads) {
  EXPECT_EQ(cd::paper_workloads().size(), 4u);
  for (const char* n : {"mnist", "cifar10", "resnet32", "vgg19"}) {
    EXPECT_NO_THROW(cd::workload_by_name(n)) << n;
  }
  EXPECT_THROW(cd::workload_by_name("bert"), std::invalid_argument);
}

TEST(Workload, Table1SyncModes) {
  EXPECT_EQ(cd::workload_by_name("mnist").sync, cd::SyncMode::BSP);
  EXPECT_EQ(cd::workload_by_name("cifar10").sync, cd::SyncMode::BSP);
  EXPECT_EQ(cd::workload_by_name("resnet32").sync, cd::SyncMode::ASP);
  EXPECT_EQ(cd::workload_by_name("vgg19").sync, cd::SyncMode::ASP);
}

TEST(Workload, SyncModeNames) {
  EXPECT_EQ(cd::to_string(cd::SyncMode::BSP), "BSP");
  EXPECT_EQ(cd::to_string(cd::SyncMode::ASP), "ASP");
}

// ---------------------------------------------------------- loss process

TEST(LossModelFn, BspDecaysAsInverseIterations) {
  cd::LossCoefficients c{1000.0, 0.2};
  EXPECT_NEAR(cd::loss_model(c, cd::SyncMode::BSP, 1000, 4), 1.2, 1e-12);
  EXPECT_NEAR(cd::loss_model(c, cd::SyncMode::BSP, 1000, 16), 1.2, 1e-12)
      << "BSP loss must not depend on worker count (Fig. 4a)";
}

TEST(LossModelFn, AspStalenessSlowsConvergence) {
  cd::LossCoefficients c{1000.0, 0.2};
  const double l4 = cd::loss_model(c, cd::SyncMode::ASP, 1000, 4);
  const double l9 = cd::loss_model(c, cd::SyncMode::ASP, 1000, 9);
  EXPECT_LT(l4, l9) << "more ASP workers converge slower at equal iterations (Fig. 4b)";
  EXPECT_NEAR(l9, 1000.0 * 3.0 / 1000 + 0.2, 1e-12);
}

TEST(LossModelFn, IterationsToReachInvertsModel) {
  cd::LossCoefficients c{1000.0, 0.2};
  const long s = cd::iterations_to_reach(c, cd::SyncMode::BSP, 0.7, 1);
  EXPECT_EQ(s, 2000);
  EXPECT_LE(cd::loss_model(c, cd::SyncMode::BSP, s, 1), 0.7 + 1e-9);
  // Unreachable target throws.
  EXPECT_THROW(cd::iterations_to_reach(c, cd::SyncMode::BSP, 0.1, 1), std::invalid_argument);
}

TEST(LossProcess, NoiseIsBoundedAndDeterministic) {
  const auto& w = cd::workload_by_name("cifar10");
  cd::LossProcess a(w, 4, 42), b(w, 4, 42);
  for (long s : {100L, 500L, 2000L}) {
    const double va = a.observe(s);
    EXPECT_DOUBLE_EQ(va, b.observe(s));
    const double expected = a.expected(s);
    EXPECT_NEAR(va / expected, 1.0, 3.5 * w.loss_noise_rel);
  }
}

// The direct sampler is the shortcut Predictor::build takes instead of
// simulating its loss history; run_training is its oracle. The grid varies
// everything the curve depends on (workload, sync mode, seed, worker count,
// total, stride, offset) and, to show that nothing else matters, the
// instance type and PS count of the simulated run.
TEST(LossSampling, DirectCurveMatchesSimulatedRunBitForBit) {
  std::vector<cd::WorkloadSpec> zoo = cd::paper_workloads();
  for (const char* name : {"resnet50", "alexnet", "lstm"}) {
    zoo.push_back(cd::workload_from_network(cm::build_by_name(name)));
  }
  struct Shape {
    long iterations;
    long stride;  // 0 = auto
    long offset;
  };
  // 37 % 3 != 0 and 200 % 7 != 0 put a final point off the stride.
  const Shape shapes[] = {{200, 0, 0}, {37, 3, 0}, {120, 0, 50}, {200, 7, 25}};
  const cc::InstanceType* types[] = {&m4(), &cc::Catalog::aws().at("c3.xlarge"),
                                     &cc::Catalog::aws().at("r3.xlarge")};
  long cases = 0;
  for (cd::WorkloadSpec w : zoo) {
    for (cd::SyncMode mode : {cd::SyncMode::BSP, cd::SyncMode::ASP, cd::SyncMode::SSP}) {
      w.sync = mode;
      for (std::uint64_t seed : {3ULL, 0x9e3779b97f4a7c15ULL}) {
        for (int n : {1, 5}) {
          const Shape& shape = shapes[cases % 4];
          const int n_ps = 1 + static_cast<int>(cases % 2);
          cd::TrainOptions o;
          o.iterations = shape.iterations;
          o.seed = seed;
          o.loss_sample_stride = shape.stride;
          o.loss_iteration_offset = shape.offset;
          const auto run = cd::run_training(
              cd::ClusterSpec::homogeneous(*types[cases % 3], n, n_ps), w, o);
          const auto direct = cd::sample_loss_curve(w, n, seed, shape.iterations, shape.stride,
                                                    shape.offset);
          SCOPED_TRACE(w.name + " " + cd::to_string(mode) + " seed " + std::to_string(seed) +
                       " n " + std::to_string(n) + " case " + std::to_string(cases));
          ASSERT_EQ(direct.size(), run.loss_curve.size());
          for (std::size_t i = 0; i < direct.size(); ++i) {
            EXPECT_EQ(direct[i].iteration, run.loss_curve[i].iteration) << i;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(direct[i].loss),
                      std::bit_cast<std::uint64_t>(run.loss_curve[i].loss))
                << i;
          }
          EXPECT_EQ(direct.back().iteration, shape.offset + shape.iterations);
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 7 * 3 * 2 * 2);
}

TEST(LossSampling, AutoStrideAndDefaultTotal) {
  // The auto stride (total / 200) and a 0 total (the workload's default):
  // one 1000-iteration run per sync mode, with the defaults left unset.
  cd::WorkloadSpec w = cd::workload_from_network(cm::build_by_name("alexnet"));
  ASSERT_EQ(w.default_iterations, 1000);
  for (cd::SyncMode mode : {cd::SyncMode::BSP, cd::SyncMode::ASP, cd::SyncMode::SSP}) {
    w.sync = mode;
    const auto run = cd::run_training(cd::ClusterSpec::homogeneous(m4(), 2, 1), w, {});
    const auto direct = cd::sample_loss_curve(w, 2, cd::TrainOptions{}.seed, 0);
    ASSERT_EQ(direct.size(), 200u);
    ASSERT_EQ(direct.size(), run.loss_curve.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(direct[i].iteration, 5 * static_cast<long>(i + 1));
      EXPECT_EQ(direct[i].iteration, run.loss_curve[i].iteration);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(direct[i].loss),
                std::bit_cast<std::uint64_t>(run.loss_curve[i].loss));
    }
  }
}

TEST(LossSampling, InvalidInputsThrow) {
  cd::WorkloadSpec w = cd::workload_by_name("mnist");
  EXPECT_THROW(cd::sample_loss_curve(w, 0, 1, 100), std::invalid_argument);
  EXPECT_THROW(cd::sample_loss_curve(w, 4, 1, -1), std::invalid_argument);
  w.default_iterations = 0;
  EXPECT_THROW(cd::sample_loss_curve(w, 4, 1, 0), std::invalid_argument);
  EXPECT_EQ(cd::sample_loss_curve(w, 4, 1, 1).size(), 1u);
}

// ------------------------------------------------------------- clusters

TEST(Cluster, HomogeneousBuilds) {
  auto c = cd::ClusterSpec::homogeneous(m4(), 5, 2);
  EXPECT_EQ(c.n_workers(), 5);
  EXPECT_EQ(c.n_ps(), 2);
  EXPECT_DOUBLE_EQ(c.min_worker_cpu().value(), m4().core_gflops.value());
  EXPECT_DOUBLE_EQ(c.total_ps_cpu().value(), 2 * m4().core_gflops.value());
}

TEST(Cluster, StragglerSplitMatchesPaper) {
  // Paper: floor(n/2) m1.xlarge stragglers.
  auto c = cd::ClusterSpec::with_stragglers(m4(), m1(), 9, 1);
  int slow = 0;
  for (const auto& w : c.workers) {
    if (w.instance_type == "m1.xlarge") ++slow;
  }
  EXPECT_EQ(slow, 4);
  EXPECT_EQ(c.n_workers(), 9);
  EXPECT_DOUBLE_EQ(c.min_worker_cpu().value(), m1().core_gflops.value());
  // PS stays on the fast type.
  EXPECT_EQ(c.ps.front().instance_type, "m4.xlarge");
}

TEST(Cluster, InvalidCountsThrow) {
  EXPECT_THROW(cd::ClusterSpec::homogeneous(m4(), 0, 1), std::invalid_argument);
  EXPECT_THROW(cd::ClusterSpec::homogeneous(m4(), 1, 0), std::invalid_argument);
  EXPECT_THROW((void)cd::ClusterSpec{}.min_worker_cpu(), std::logic_error);
}

// ----------------------------------------------------- trainer: basics

TEST(Trainer, DeterministicForSeed) {
  const auto& w = cd::workload_by_name("cifar10");
  auto c = cd::ClusterSpec::homogeneous(m4(), 3, 1);
  cd::TrainOptions o;
  o.iterations = 50;
  const auto a = cd::run_training(c, w, o);
  const auto b = cd::run_training(c, w, o);
  EXPECT_DOUBLE_EQ(a.total_time, b.total_time);
  EXPECT_DOUBLE_EQ(a.final_loss, b.final_loss);
}

TEST(Trainer, SeedChangesJitter) {
  const auto& w = cd::workload_by_name("cifar10");
  auto c = cd::ClusterSpec::homogeneous(m4(), 3, 1);
  cd::TrainOptions a, b;
  a.iterations = b.iterations = 50;
  a.seed = 1;
  b.seed = 2;
  EXPECT_NE(cd::run_training(c, w, a).total_time, cd::run_training(c, w, b).total_time);
}

TEST(Trainer, InvalidConfigurationsThrow) {
  const auto& w = cd::workload_by_name("cifar10");
  auto c = cd::ClusterSpec::homogeneous(m4(), 1, 1);
  cd::TrainOptions o;
  o.iterations = -5;
  EXPECT_THROW(cd::run_training(c, w, o), std::invalid_argument);
}

TEST(Trainer, ShapesBeyondTheContinuationTagThrowBeforeBuilding) {
  // Each fluid job's continuation is packed into a 64-bit tag: 16 bits of
  // worker, 16 of PS shard, 8 of pipeline block. One past each field is
  // refused up front (before the run builds a resource for any docker), not
  // aliased onto another worker's, shard's or block's continuation.
  const auto& w = cd::workload_by_name("cifar10");
  cd::TrainOptions o;
  o.iterations = 1;
  const auto rejects = [&](const cd::ClusterSpec& c, const cd::TrainOptions& opts) {
    try {
      (void)cd::run_training(c, w, opts);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what()).find("at most 65536 workers, 65536 PS nodes and 256 "
                                        "pipeline blocks") != std::string::npos;
    }
    return false;
  };
  EXPECT_TRUE(rejects(cd::ClusterSpec::homogeneous(m4(), 65537, 1), o));
  EXPECT_TRUE(rejects(cd::ClusterSpec::homogeneous(m4(), 1, 65537), o));
  const auto small = cd::ClusterSpec::homogeneous(m4(), 2, 1);
  o.comm_pipeline_blocks = 257;
  EXPECT_TRUE(rejects(small, o));
  o.comm_pipeline_blocks = 256;  // the widest pipeline the block field holds
  EXPECT_EQ(cd::run_training(small, w, o).iterations, 1);
}

TEST(Trainer, SingleWorkerComputeBoundMatchesAnalytic) {
  // 1 worker, big compute, tiny comm: total ~= s * witer / c.
  const auto& w = cd::workload_by_name("resnet32");
  auto c = cd::ClusterSpec::homogeneous(m4(), 1, 1);
  cd::TrainOptions o;
  o.iterations = 20;
  o.compute_jitter = 0.0;
  const auto r = cd::run_training(c, w, o);
  const double comp = 20.0 * w.witer.value() / m4().core_gflops.value();
  EXPECT_NEAR(r.total_time, comp, comp * 0.05);  // small comm tail allowed
  EXPECT_GT(r.avg_worker_cpu_util, 0.9);
}

TEST(Trainer, IterationAccounting) {
  const auto& w = cd::workload_by_name("cifar10");
  auto c = cd::ClusterSpec::homogeneous(m4(), 2, 1);
  cd::TrainOptions o;
  o.iterations = 37;
  const auto r = cd::run_training(c, w, o);
  EXPECT_EQ(r.iterations, 37);
  EXPECT_NEAR(r.avg_iteration_time * 37, r.total_time, 1e-6);
  EXPECT_GT(r.final_loss, 0.0);
}

TEST(Trainer, DefaultIterationsFromWorkload) {
  auto w = cd::workload_by_name("vgg19");
  w.default_iterations = 5;
  auto c = cd::ClusterSpec::homogeneous(m4(), 1, 1);
  const auto r = cd::run_training(c, w, {});
  EXPECT_EQ(r.iterations, 5);
}

// --------------------------------------- trainer: emergent paper behaviour

TEST(Trainer, AspScalesOutForComputeBoundWorkloads) {
  // Fig. 1(a): ResNet-32 ASP keeps speeding up with more workers.
  const auto& w = cd::workload_by_name("resnet32");
  cd::TrainOptions o;
  o.iterations = 90;
  double prev = 1e18;
  for (int n : {1, 2, 4, 8}) {
    const auto r = cd::run_training(cd::ClusterSpec::homogeneous(m4(), n, 1), w, o);
    EXPECT_LT(r.total_time, prev) << n << " workers";
    prev = r.total_time;
  }
}

TEST(Trainer, BspScaleOutDegradesUnderPsBottleneck) {
  // Fig. 1(b) / the 137.6% claim: mnist BSP beyond the sweet spot is slower.
  const auto& w = cd::workload_by_name("mnist");
  cd::TrainOptions o;
  o.iterations = 2000;
  const auto t2 = cd::run_training(cd::ClusterSpec::homogeneous(m4(), 2, 1), w, o).total_time;
  const auto t8 = cd::run_training(cd::ClusterSpec::homogeneous(m4(), 8, 1), w, o).total_time;
  EXPECT_GT(t8, 1.5 * t2) << "blind scale-out must degrade mnist BSP";
}

TEST(Trainer, PsBottleneckThrottlesWorkerUtilization) {
  // Table 2: worker CPU utilization collapses once the PS saturates.
  const auto& w = cd::workload_by_name("mnist");
  cd::TrainOptions o;
  o.iterations = 2000;
  const auto r1 = cd::run_training(cd::ClusterSpec::homogeneous(m4(), 1, 1), w, o);
  const auto r8 = cd::run_training(cd::ClusterSpec::homogeneous(m4(), 8, 1), w, o);
  EXPECT_GT(r1.avg_worker_cpu_util, 0.9);
  EXPECT_LT(r8.avg_worker_cpu_util, 0.3);
  EXPECT_GT(r8.avg_ps_cpu_util, r1.avg_ps_cpu_util);
}

TEST(Trainer, StragglersSlowBspTraining) {
  // Fig. 1: heterogeneous BSP is slower when the PS is not the bottleneck.
  const auto& w = cd::workload_by_name("mnist");
  cd::TrainOptions o;
  o.iterations = 1000;
  const auto homo = cd::run_training(cd::ClusterSpec::homogeneous(m4(), 2, 1), w, o).total_time;
  const auto hetero =
      cd::run_training(cd::ClusterSpec::with_stragglers(m4(), m1(), 2, 1), w, o).total_time;
  EXPECT_GT(hetero, homo * 1.3);
}

TEST(Trainer, StragglersSlowAspThroughput) {
  const auto& w = cd::workload_by_name("resnet32");
  cd::TrainOptions o;
  o.iterations = 60;
  const auto homo = cd::run_training(cd::ClusterSpec::homogeneous(m4(), 4, 1), w, o).total_time;
  const auto hetero =
      cd::run_training(cd::ClusterSpec::with_stragglers(m4(), m1(), 4, 1), w, o).total_time;
  EXPECT_GT(hetero, homo * 1.2);
  EXPECT_LT(hetero, homo * 2.5);  // ASP does not barrier on the stragglers
}

TEST(Trainer, CommunicationGrowsWithWorkersUnderBsp) {
  // Fig. 3: computation shrinks, communication grows.
  const auto& w = cd::workload_by_name("cifar10");
  cd::TrainOptions o;
  o.iterations = 60;
  const auto small = cd::run_training(cd::ClusterSpec::homogeneous(m4(), 4, 1), w, o);
  const auto large = cd::run_training(cd::ClusterSpec::homogeneous(m4(), 16, 1), w, o);
  EXPECT_GT(small.computation_time, large.computation_time);
  EXPECT_LT(small.communication_time, large.communication_time);
}

TEST(Trainer, MorePsNodesRelievePsBoundWorkload) {
  // Fig. 10(b): mnist BSP benefits from added PS capacity...
  const auto& mnist = cd::workload_by_name("mnist");
  cd::TrainOptions o;
  o.iterations = 2000;
  const auto ps1 = cd::run_training(cd::ClusterSpec::homogeneous(m4(), 8, 1), mnist, o).total_time;
  const auto ps4 = cd::run_training(cd::ClusterSpec::homogeneous(m4(), 8, 4), mnist, o).total_time;
  EXPECT_LT(ps4, ps1 * 0.6);
}

TEST(Trainer, MorePsNodesDoNotHelpComputeBoundWorkload) {
  // Fig. 10(a): ...while ResNet-32 ASP gains almost nothing.
  const auto& resnet = cd::workload_by_name("resnet32");
  cd::TrainOptions o;
  o.iterations = 60;
  const auto ps1 =
      cd::run_training(cd::ClusterSpec::homogeneous(m4(), 4, 1), resnet, o).total_time;
  const auto ps4 =
      cd::run_training(cd::ClusterSpec::homogeneous(m4(), 4, 4), resnet, o).total_time;
  EXPECT_GT(ps4, ps1 * 0.9);
}

TEST(Trainer, PsIngressTraceCapturesSaturation) {
  // Fig. 2: PS throughput approaches the NIC line rate under load.
  const auto& w = cd::workload_by_name("mnist");
  cd::TrainOptions o;
  o.iterations = 3000;
  o.trace_bucket_seconds = 1.0;
  const auto r = cd::run_training(cd::ClusterSpec::homogeneous(m4(), 8, 1), w, o);
  ASSERT_FALSE(r.ps_ingress_trace.empty());
  EXPECT_GT(r.ps_ingress_peak_mbps, 0.55 * m4().nic_mbps.value());
  EXPECT_LE(r.ps_ingress_peak_mbps, m4().nic_mbps.value() + 1e-6);
  // Trace volume is consistent with the average.
  double vol = 0.0;
  for (const auto& b : r.ps_ingress_trace) vol += b.value * b.width;
  EXPECT_NEAR(vol / r.total_time, r.ps_ingress_avg_mbps, r.ps_ingress_avg_mbps * 0.01 + 1e-9);
}

TEST(Trainer, LossCurveDecaysAndEndsNearModel) {
  const auto& w = cd::workload_by_name("cifar10");
  cd::TrainOptions o;
  o.iterations = 400;
  o.loss_sample_stride = 40;
  const auto r = cd::run_training(cd::ClusterSpec::homogeneous(m4(), 4, 1), w, o);
  ASSERT_GE(r.loss_curve.size(), 5u);
  EXPECT_GT(r.loss_curve.front().loss, r.loss_curve.back().loss);
  const double expected = w.bsp_loss.beta0 / 400.0 + w.bsp_loss.beta1;
  EXPECT_NEAR(r.final_loss, expected, expected * 0.1);
}

TEST(Trainer, BspLossIndependentOfWorkers) {
  const auto& w = cd::workload_by_name("cifar10");
  cd::TrainOptions o;
  o.iterations = 300;
  const auto a = cd::run_training(cd::ClusterSpec::homogeneous(m4(), 2, 1), w, o);
  const auto b = cd::run_training(cd::ClusterSpec::homogeneous(m4(), 8, 1), w, o);
  EXPECT_NEAR(a.final_loss, b.final_loss, a.final_loss * 0.12);
}

TEST(Trainer, AspLossWorseWithMoreWorkersAtEqualIterations) {
  const auto& w = cd::workload_by_name("resnet32");
  cd::TrainOptions o;
  o.iterations = 300;
  const auto few = cd::run_training(cd::ClusterSpec::homogeneous(m4(), 2, 1), w, o);
  const auto many = cd::run_training(cd::ClusterSpec::homogeneous(m4(), 9, 1), w, o);
  EXPECT_LT(few.final_loss, many.final_loss);
}

TEST(Trainer, PipelineBlocksAblation) {
  // Disabling the parameter-sharding pipeline must lengthen communication-
  // bound training (this is the bench/ablation_model knob).
  const auto& w = cd::workload_by_name("mnist");
  cd::TrainOptions fast, slow;
  fast.iterations = slow.iterations = 1500;
  slow.comm_pipeline_blocks = 1;
  const auto piped = cd::run_training(cd::ClusterSpec::homogeneous(m4(), 4, 1), w, fast);
  const auto unpiped = cd::run_training(cd::ClusterSpec::homogeneous(m4(), 4, 1), w, slow);
  EXPECT_GT(unpiped.total_time, piped.total_time * 1.2);
}

class TrainerWorkerSweep : public ::testing::TestWithParam<int> {};

TEST_P(TrainerWorkerSweep, UtilizationsAreValidFractions) {
  const int n = GetParam();
  const auto& w = cd::workload_by_name("cifar10");
  cd::TrainOptions o;
  o.iterations = 30;
  const auto r = cd::run_training(cd::ClusterSpec::homogeneous(m4(), n, 1), w, o);
  ASSERT_EQ(static_cast<int>(r.worker_cpu_util.size()), n);
  for (double u : r.worker_cpu_util) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0 + 1e-9);
  }
  for (double u : r.ps_cpu_util) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0 + 1e-9);
  }
  EXPECT_GT(r.total_time, 0.0);
  EXPECT_GE(r.communication_time, 0.0);
  EXPECT_GT(r.computation_time, 0.0);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, TrainerWorkerSweep, ::testing::Values(1, 2, 3, 5, 8, 13));
