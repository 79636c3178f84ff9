// Tests for the CYNTHIA_CHECK invariant layer: the check machinery itself,
// the conservation laws wired into the simulation, and the contract that a
// run with checks enabled is bit-identical to one with checks off.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "cloud/instance.hpp"
#include "cloud/pricing.hpp"
#include "core/predictor.hpp"
#include "core/provisioner.hpp"
#include "ddnn/trainer.hpp"
#include "ddnn/workload.hpp"
#include "sim/event_queue.hpp"
#include "closure_fluid.hpp"
#include "sim/fluid.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/check.hpp"

namespace cd = cynthia::ddnn;
namespace cc = cynthia::cloud;
namespace co = cynthia::core;
namespace cs = cynthia::sim;
namespace ct = cynthia::telemetry;
namespace cu = cynthia::util;

namespace {

// Restores the global invariant flag on scope exit so tests can't leak
// state into each other regardless of pass/fail order.
class ScopedInvariants {
 public:
  explicit ScopedInvariants(bool enabled) : saved_(cu::invariants_enabled()) {
    cu::set_invariants_enabled(enabled);
  }
  ~ScopedInvariants() { cu::set_invariants_enabled(saved_); }

 private:
  bool saved_;
};

const cc::InstanceType& m4() { return cc::Catalog::aws().at("m4.xlarge"); }

cd::TrainResult train(const char* workload) {
  const auto& w = cd::workload_by_name(workload);
  auto cluster = cd::ClusterSpec::homogeneous(m4(), 4, 2);
  cd::TrainOptions o;
  o.iterations = 60;
  return cd::run_training(cluster, w, o);
}

}  // namespace

// --------------------------------------------------------- check machinery

TEST(CynthiaCheck, PassingConditionIsSilent) {
  ScopedInvariants on(true);
  EXPECT_NO_THROW(CYNTHIA_CHECK(1 + 1 == 2, "arithmetic broke"));
}

TEST(CynthiaCheck, ViolationThrowsCheckFailureWithContext) {
  ScopedInvariants on(true);
  try {
    CYNTHIA_CHECK(2 < 1, "expected ", 2, " < ", 1);
    FAIL() << "CYNTHIA_CHECK did not throw";
  } catch (const cu::CheckFailure& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("2 < 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("invariants_test.cpp"), std::string::npos) << msg;
    EXPECT_NE(msg.find("expected 2 < 1"), std::string::npos) << msg;
  }
}

TEST(CynthiaCheck, DisabledChecksDoNotEvaluateCondition) {
  ScopedInvariants off(false);
  int evaluations = 0;
  auto probe = [&] {
    ++evaluations;
    return false;
  };
  CYNTHIA_CHECK(probe(), "must not run");
  EXPECT_EQ(evaluations, 0);
}

TEST(CynthiaCheck, ToggleRoundTrips) {
  ScopedInvariants outer(false);
  EXPECT_FALSE(cu::invariants_enabled());
  cu::set_invariants_enabled(true);
  EXPECT_TRUE(cu::invariants_enabled());
}

TEST(CynthiaCheck, CheckFailureIsALogicError) {
  ScopedInvariants on(true);
  EXPECT_THROW(CYNTHIA_CHECK(false), std::logic_error);
}

TEST(CynthiaCheck, DcheckMatchesBuildConfiguration) {
  ScopedInvariants on(true);
  int evaluations = 0;
  auto probe = [&] {
    ++evaluations;
    return true;
  };
  CYNTHIA_DCHECK(probe(), "probe");
#ifdef CYNTHIA_INVARIANTS
  EXPECT_EQ(evaluations, 1) << "CYNTHIA_INVARIANTS builds evaluate DCHECKs";
  EXPECT_THROW(CYNTHIA_DCHECK(false), cu::CheckFailure);
#else
  EXPECT_EQ(evaluations, 0) << "default builds compile DCHECKs out";
  EXPECT_NO_THROW(CYNTHIA_DCHECK(false));
#endif
}

// ------------------------------------------------ single-owner instances

TEST(CynthiaCheck, SingleOwnerInstancesRejectOtherThreads) {
#ifdef CYNTHIA_INVARIANTS
  ScopedInvariants on(true);
  const auto& w = cd::workload_by_name("cifar10");
  const co::Predictor pred = co::Predictor::build(w, m4());
  const co::Provisioner prov(pred.model(), pred.loss(), cc::Catalog::aws().provisionable());
  ct::MetricsRegistry registry;
  ct::Tracer tracer;
  const co::ProvisionGoal goal{cu::minutes(90), 0.8};
  auto throws = [](auto&& call) {
    try {
      call();
    } catch (const cu::CheckFailure&) {
      return true;
    }
    return false;
  };
  bool plan = false, replan = false, lookup = false, record = false;
  std::thread other([&] {
    plan = throws([&] { (void)prov.plan(w.sync, goal); });
    replan = throws([&] { (void)prov.replan(w.sync, 2000, cu::minutes(45)); });
    lookup = throws([&] { registry.counter("x"); });
    record = throws([&] { tracer.span("track", "span", "cat", 0.0, 1.0); });
  });
  other.join();
  EXPECT_TRUE(plan);
  EXPECT_TRUE(replan);
  EXPECT_TRUE(lookup);
  EXPECT_TRUE(record);
  // The owning thread is unaffected.
  EXPECT_TRUE(prov.plan(w.sync, goal).feasible);
  EXPECT_NO_THROW(registry.counter("x"));
  EXPECT_NO_THROW(tracer.span("track", "span", "cat", 0.0, 1.0));
#else
  GTEST_SKIP() << "owner checks compile out unless CYNTHIA_INVARIANTS is defined";
#endif
}

// -------------------------------------------- invariants on healthy runs

TEST(Invariants, BspTrainingPassesAllChecks) {
  ScopedInvariants on(true);
  EXPECT_NO_THROW(train("cifar10"));
}

TEST(Invariants, AspTrainingPassesAllChecks) {
  ScopedInvariants on(true);
  EXPECT_NO_THROW(train("resnet32"));
}

TEST(Invariants, SspTrainingPassesStalenessBound) {
  ScopedInvariants on(true);
  const auto& base = cd::workload_by_name("resnet32");
  auto w = base;
  w.sync = cd::SyncMode::SSP;
  w.ssp_staleness_bound = 2;
  auto cluster = cd::ClusterSpec::homogeneous(m4(), 4, 2);
  cd::TrainOptions o;
  o.iterations = 60;
  EXPECT_NO_THROW(cd::run_training(cluster, w, o));
}

TEST(Invariants, FluidSolverConservesFlowUnderChecks) {
  ScopedInvariants on(true);
  cs::Simulator sim;
  cs::test::ClosureFluid fs(sim);
  const auto cpu = fs.add_resource("cpu", 10.0);
  const auto nic = fs.add_resource("nic", 5.0);
  int done = 0;
  fs.start_job(20.0, {cpu, nic}, [&](double) { ++done; });
  fs.start_job(5.0, {nic}, [&](double) { ++done; });
  EXPECT_NO_THROW(sim.run());
  EXPECT_EQ(done, 2);
}

TEST(Invariants, FluidRateReadInsideCompletionCallbackIsRejected) {
#ifdef CYNTHIA_INVARIANTS
  // Inside a completion callback the event's batch is still open, so a rate
  // read would see the allocation from before the event (fluid.hpp).
  ScopedInvariants on(true);
  cs::Simulator sim;
  cs::test::ClosureFluid fs(sim);
  const auto cpu = fs.add_resource("cpu", 2.0);
  cs::JobId started = 0;
  fs.start_job(1.0, {cpu}, [&](double) {
    started = fs.start_job(4.0, {cpu}, nullptr);
    (void)fs.job_rate(started);
  });
  EXPECT_THROW(sim.run(), cu::CheckFailure);
  // The throw still closed the batch: the started job was solved.
  EXPECT_EQ(fs.job_rate(started), 2.0);
  EXPECT_EQ(fs.resource_used(cpu), 2.0);
#else
  GTEST_SKIP() << "CYNTHIA_DCHECK is compiled out without CYNTHIA_INVARIANTS";
#endif
}

TEST(Invariants, BillingMeterMonotonicityHolds) {
  ScopedInvariants on(true);
  cc::BillingMeter meter;
  meter.start("i-0", m4(), cu::Seconds{0.0});
  double prev = 0.0;
  for (double t : {10.0, 600.0, 3600.0, 7200.0}) {
    const double total = meter.total(cu::Seconds{t}).value();
    EXPECT_GE(total, prev);
    prev = total;
  }
}

// A cleared meter starts a new bill: a smaller total at a later clock is not
// a regression of the bill before the clear.
TEST(Invariants, ClearedBillingMeterRestartsItsMonotonicityCheck) {
  ScopedInvariants on(true);
  cc::BillingMeter meter;
  meter.start("i-0", m4(), cu::Seconds{0.0});
  const double before = meter.total(cu::hours(2)).value();
  meter.clear();
  meter.stop(meter.start("i-0", m4(), cu::Seconds{0.0}), cu::Seconds{60.0});
  EXPECT_LT(meter.total(cu::hours(3)).value(), before);
}

// ----------------------------------- checks must not perturb the results

TEST(Invariants, BspResultsBitIdenticalWithChecksOnAndOff) {
  cd::TrainResult off_result, on_result;
  {
    ScopedInvariants off(false);
    off_result = train("cifar10");
  }
  {
    ScopedInvariants on(true);
    on_result = train("cifar10");
  }
  EXPECT_EQ(off_result.total_time, on_result.total_time);
  EXPECT_EQ(off_result.final_loss, on_result.final_loss);
  EXPECT_EQ(off_result.computation_time, on_result.computation_time);
  EXPECT_EQ(off_result.communication_time, on_result.communication_time);
  EXPECT_EQ(off_result.avg_worker_cpu_util, on_result.avg_worker_cpu_util);
}

TEST(Invariants, SspResultsBitIdenticalWithChecksOnAndOff) {
  auto run_ssp = [] {
    auto w = cd::workload_by_name("resnet32");
    w.sync = cd::SyncMode::SSP;
    w.ssp_staleness_bound = 3;
    auto cluster = cd::ClusterSpec::homogeneous(m4(), 4, 2);
    cd::TrainOptions o;
    o.iterations = 60;
    return cd::run_training(cluster, w, o);
  };
  cd::TrainResult off_result, on_result;
  {
    ScopedInvariants off(false);
    off_result = run_ssp();
  }
  {
    ScopedInvariants on(true);
    on_result = run_ssp();
  }
  EXPECT_EQ(off_result.total_time, on_result.total_time);
  EXPECT_EQ(off_result.final_loss, on_result.final_loss);
  EXPECT_EQ(off_result.communication_time, on_result.communication_time);
}

// --------------------------------------------------- event-queue invariant

TEST(Invariants, EventQueuePopOrderChecksPassOnHealthyUse) {
  ScopedInvariants on(true);
  cs::EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] { order.push_back(0); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(0.5, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{2, 0, 1}));
}

// clear() retires every pending id and restarts the pop-order check, so a
// cleared queue (a restarted Simulator) may fire earlier times again.
TEST(Invariants, ClearedEventQueueRestartsItsPopOrderCheck) {
  ScopedInvariants on(true);
  cs::Simulator sim;
  sim.after(5.0, [] {});
  sim.run();
  const cs::EventId pending = sim.after(1.0, [] {});
  sim.restart();
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_TRUE(sim.idle());
  EXPECT_FALSE(sim.cancel(pending));
  bool fired = false;
  sim.after(1.0, [&] { fired = true; });
  EXPECT_NO_THROW(sim.run());
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), 1.0);
}
