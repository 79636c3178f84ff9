// Tests for the GPU-cluster extension (the paper's future work): catalog
// entries, the effective-compute abstraction, training simulation on
// accelerators, and GPU-aware provisioning.
#include <gtest/gtest.h>

#include "cloud/instance.hpp"
#include "core/predictor.hpp"
#include "core/provisioner.hpp"
#include "ddnn/trainer.hpp"
#include "profiler/profiler.hpp"

namespace cc = cynthia::cloud;
namespace cd = cynthia::ddnn;
namespace co = cynthia::core;
namespace cu = cynthia::util;

namespace {
const cc::InstanceType& m4() { return cc::Catalog::aws().at("m4.xlarge"); }
const cc::InstanceType& p2() { return cc::Catalog::aws().at("p2.xlarge"); }
const cc::InstanceType& p3() { return cc::Catalog::aws().at("p3.2xlarge"); }
}  // namespace

TEST(GpuCatalog, AcceleratedTypesPresent) {
  EXPECT_TRUE(p2().has_accelerator());
  EXPECT_TRUE(p3().has_accelerator());
  EXPECT_FALSE(m4().has_accelerator());
  EXPECT_EQ(p2().accelerator, "NVIDIA K80");
  EXPECT_GT(p3().accel_gflops.value(), p2().accel_gflops.value());
}

TEST(GpuCatalog, EffectiveComputeUsesAccelerator) {
  EXPECT_DOUBLE_EQ(p2().compute_gflops().value(), p2().accel_gflops.value());
  EXPECT_DOUBLE_EQ(m4().compute_gflops().value(), m4().core_gflops.value());
}

TEST(GpuCatalog, DefaultSearchSpaceStaysCpuOnly) {
  // Paper-reproduction benches must never silently pick GPUs.
  for (const auto& t : cc::Catalog::aws().provisionable()) {
    EXPECT_FALSE(t.has_accelerator()) << t.name;
  }
  const auto gpus = cc::Catalog::aws().accelerated();
  EXPECT_EQ(gpus.size(), 2u);
  const auto widened = cc::Catalog::aws().provisionable_with_accelerators();
  EXPECT_EQ(widened.size(), cc::Catalog::aws().provisionable().size() + 2);
}

TEST(GpuTrainer, GpuWorkersTrainMuchFaster) {
  const auto& w = cd::workload_by_name("resnet32");
  cd::TrainOptions o;
  o.iterations = 60;
  const auto cpu = cd::run_training(cd::ClusterSpec::homogeneous(m4(), 4, 1), w, o);
  const auto gpu = cd::run_training(cd::ClusterSpec::homogeneous(p2(), 4, 1), w, o);
  // K80 is ~12x an m4 core; comm is small for ResNet, so near-linear gain.
  EXPECT_LT(gpu.total_time, cpu.total_time / 6.0);
}

TEST(GpuTrainer, GpuShiftsBottleneckToCommunication) {
  // On CPUs ResNet-32 BSP is compute-bound at 8 workers; on V100s the same
  // job becomes communication-bound — the phenomenon that changes
  // provisioning decisions (VGG-19 is comm-bound even on CPUs).
  auto w = cd::workload_by_name("resnet32");
  w.sync = cd::SyncMode::BSP;
  cd::TrainOptions o;
  o.iterations = 60;
  const auto cpu = cd::run_training(cd::ClusterSpec::homogeneous(m4(), 8, 1), w, o);
  const auto gpu = cd::run_training(cd::ClusterSpec::homogeneous(p3(), 8, 1), w, o);
  EXPECT_GT(cpu.computation_time, cpu.communication_time);
  EXPECT_LT(gpu.computation_time, gpu.communication_time);
}

TEST(GpuProfiler, ProfilesOnGpuBaseline) {
  const auto& w = cd::workload_by_name("vgg19");
  const auto prof = cynthia::profiler::profile_workload(w, p2());
  // Same FLOP count recovered regardless of the baseline device.
  EXPECT_NEAR(prof.witer.value(), w.witer.value(), w.witer.value() * 0.05);
  // But profiling is far cheaper on the accelerator.
  const auto cpu_prof = cynthia::profiler::profile_workload(w, m4());
  EXPECT_LT(prof.profiling_time.value(), cpu_prof.profiling_time.value() / 4.0);
}

TEST(GpuModel, CrossDevicePrediction) {
  // Profile on the CPU baseline, predict GPU-cluster time via the catalog's
  // accelerator GFLOPS — Fig. 8's logic extended across device classes.
  const auto& w = cd::workload_by_name("vgg19");
  const auto prof = cynthia::profiler::profile_workload(w, m4());
  co::CynthiaModel model(prof);
  const auto cluster = cd::ClusterSpec::homogeneous(p2(), 4, 1);
  cd::TrainOptions o;
  o.iterations = 200;
  const auto obs = cd::run_training(cluster, w, o);
  const double pred = model.predict_total(cluster, w.sync, 200).value();
  EXPECT_NEAR(pred, obs.total_time, obs.total_time * 0.15);
}

TEST(GpuProvisioner, DeviceEconomicsFollowSyncMode) {
  // Under ASP, staleness taxes wide clusters (the iteration budget grows
  // with sqrt(n)), so a few fast GPUs beat many cheap CPUs even at loose
  // deadlines. Under BSP there is no staleness, so the cheaper-per-FLOP
  // CPU family wins whenever it is feasible.
  const auto types = cc::Catalog::aws().provisionable_with_accelerators();

  const auto& asp = cd::workload_by_name("resnet32");
  const auto asp_pred = co::Predictor::build(asp, m4());
  co::Provisioner asp_prov(asp_pred.model(), asp_pred.loss(), types);
  const auto asp_plan = asp_prov.plan(asp.sync, {cu::hours(3), 0.6});
  ASSERT_TRUE(asp_plan.feasible);
  EXPECT_TRUE(asp_plan.type.has_accelerator()) << asp_plan.describe();

  const auto& bsp = cd::workload_by_name("cifar10");
  const auto bsp_pred = co::Predictor::build(bsp, m4());
  co::Provisioner bsp_prov(bsp_pred.model(), bsp_pred.loss(), types);
  const auto bsp_plan = bsp_prov.plan(bsp.sync, {cu::hours(3), 0.8});
  ASSERT_TRUE(bsp_plan.feasible);
  EXPECT_FALSE(bsp_plan.type.has_accelerator()) << bsp_plan.describe();
}

TEST(GpuProvisioner, GpuPlanExecutesToGoal) {
  const auto& w = cd::workload_by_name("resnet32");
  const auto pred = co::Predictor::build(w, m4());
  co::Provisioner prov(pred.model(), pred.loss(), cc::Catalog::aws().accelerated());
  const co::ProvisionGoal goal{cu::minutes(15), 0.6};
  const auto plan = prov.plan(w.sync, goal);
  ASSERT_TRUE(plan.feasible);
  cd::TrainOptions o;
  o.iterations = plan.total_iterations;
  const auto r = cd::run_training(
      cd::ClusterSpec::homogeneous(plan.type, plan.n_workers, plan.n_ps), w, o);
  EXPECT_LE(r.total_time, goal.time_goal.value() * 1.12) << plan.describe();
}
