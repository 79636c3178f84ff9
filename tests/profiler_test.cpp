// Tests for the one-shot baseline profiler (Sec. 3 "Obtaining model
// parameters" + the Sec. 5.3 overhead claims).
#include <gtest/gtest.h>

#include "cloud/instance.hpp"
#include "ddnn/workload.hpp"
#include "profiler/profiler.hpp"

namespace cp = cynthia::profiler;
namespace cd = cynthia::ddnn;
namespace cc = cynthia::cloud;

namespace {
const cc::InstanceType& m4() { return cc::Catalog::aws().at("m4.xlarge"); }
}  // namespace

TEST(Profiler, RecoversWiterFromComputePhase) {
  // w_iter = t_base * c_base must reproduce the workload's configured
  // per-iteration FLOPs (the compute phase is cleanly separable).
  for (const char* name : {"cifar10", "resnet32", "vgg19"}) {
    const auto& w = cd::workload_by_name(name);
    const auto p = cp::profile_workload(w, m4());
    EXPECT_NEAR(p.witer.value(), w.witer.value(), w.witer.value() * 0.03) << name;
    EXPECT_EQ(p.workload, name);
    EXPECT_EQ(p.baseline_type, "m4.xlarge");
    EXPECT_EQ(p.iterations, 30);
  }
}

TEST(Profiler, GparamIncludesWireOverhead) {
  const auto& w = cd::workload_by_name("cifar10");
  const auto p = cp::profile_workload(w, m4());
  // Measured payload = parameters x wire framing factor: the measured value
  // is what actually crosses the PS NIC, keeping predictions consistent.
  EXPECT_NEAR(p.gparam.value(), w.gparam.value() * cd::kWireOverhead,
              w.gparam.value() * cd::kWireOverhead * 0.05);
}

TEST(Profiler, ProfilingTimesMatchPaperSection53) {
  // Paper: mnist 0.9 s, cifar10 4.0 min, ResNet-32 6.0 min, VGG-19
  // 10.4 min for 30 iterations on one m4.xlarge worker. Generous bands —
  // the shape (relative ordering and magnitude) is what matters.
  const auto mnist = cp::profile_workload(cd::workload_by_name("mnist"), m4());
  EXPECT_LT(mnist.profiling_time.value(), 5.0);
  const auto cifar = cp::profile_workload(cd::workload_by_name("cifar10"), m4());
  EXPECT_NEAR(cifar.profiling_time.value(), 4.0 * 60, 60.0);
  const auto resnet = cp::profile_workload(cd::workload_by_name("resnet32"), m4());
  EXPECT_NEAR(resnet.profiling_time.value(), 6.0 * 60, 60.0);
  const auto vgg = cp::profile_workload(cd::workload_by_name("vgg19"), m4());
  EXPECT_NEAR(vgg.profiling_time.value(), 10.4 * 60, 120.0);
}

TEST(Profiler, CprofBprofPositiveAndSane) {
  const auto& w = cd::workload_by_name("mnist");
  const auto p = cp::profile_workload(w, m4());
  EXPECT_GT(p.cprof.value(), 0.0);
  EXPECT_LE(p.cprof.value(), m4().core_gflops.value() + 1e-9);
  EXPECT_GT(p.bprof.value(), 0.0);
  EXPECT_LE(p.bprof.value(), 2.0 * m4().nic_mbps.value() + 1e-9);
}

TEST(Profiler, MnistIsPsHeavyPerUnitTime) {
  // Table 4's signature: mnist has by far the highest c_prof and b_prof
  // rates (tiny iterations hammer the PS), despite the smallest w_iter.
  const auto mnist = cp::profile_workload(cd::workload_by_name("mnist"), m4());
  const auto resnet = cp::profile_workload(cd::workload_by_name("resnet32"), m4());
  EXPECT_GT(mnist.cprof.value(), 5.0 * resnet.cprof.value());
  EXPECT_GT(mnist.bprof.value(), 5.0 * resnet.bprof.value());
  EXPECT_LT(mnist.witer.value(), resnet.witer.value());
}

TEST(Profiler, DifferentBaselineTypeScalesWiterConsistently) {
  // Profiling on a slower baseline must still recover the same FLOP count
  // (t_base grows, c_base shrinks) — the Fig. 8 cross-type premise.
  const auto& w = cd::workload_by_name("cifar10");
  const auto on_m4 = cp::profile_workload(w, m4());
  const auto on_r3 = cp::profile_workload(w, cc::Catalog::aws().at("r3.xlarge"));
  EXPECT_NEAR(on_m4.witer.value(), on_r3.witer.value(), on_m4.witer.value() * 0.05);
  EXPECT_GT(on_r3.tbase_iter.value(), on_m4.tbase_iter.value());
}

TEST(Profiler, CustomIterationCount) {
  const auto& w = cd::workload_by_name("cifar10");
  cp::ProfileOptions o;
  o.iterations = 10;
  const auto p = cp::profile_workload(w, m4(), o);
  EXPECT_EQ(p.iterations, 10);
  EXPECT_THROW(cp::profile_workload(w, m4(), {.iterations = 0}), std::invalid_argument);
}
