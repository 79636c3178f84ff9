// Fault-injection & elastic-recovery suite (labelled `faults` in ctest).
//
// Covers the determinism contract (same seed -> bit-identical schedule and
// training digest; zero-fault schedule -> bit-identical to the fault-free
// run), crash/rollback/recovery semantics under the runtime invariant
// checker, the fluid capacity hook, and the job executor's repair-in-place
// and elastic re-planning policies.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "cloud/instance.hpp"
#include "core/predictor.hpp"
#include "core/provisioner.hpp"
#include "ddnn/trainer.hpp"
#include "ddnn/workload.hpp"
#include "faults/fault_spec.hpp"
#include "orchestrator/executor.hpp"
#include "closure_fluid.hpp"
#include "sim/fluid.hpp"
#include "sim/simulator.hpp"
#include "telemetry/report.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"

namespace cf = cynthia::faults;
namespace cd = cynthia::ddnn;
namespace cc = cynthia::cloud;
namespace core = cynthia::core;
namespace orch = cynthia::orch;
namespace sim = cynthia::sim;
namespace ct = cynthia::telemetry;

namespace {

const cc::InstanceType& m4() { return cc::Catalog::aws().at("m4.xlarge"); }

cd::TrainOptions base_options(long iterations, std::uint64_t seed = 7) {
  cd::TrainOptions o;
  o.iterations = iterations;
  o.seed = seed;
  return o;
}

/// Every scalar and curve a run produces must match bit-exactly.
void expect_identical(const cd::TrainResult& a, const cd::TrainResult& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.computation_time, b.computation_time);
  EXPECT_EQ(a.communication_time, b.communication_time);
  EXPECT_EQ(a.avg_iteration_time, b.avg_iteration_time);
  EXPECT_EQ(a.final_loss, b.final_loss);
  EXPECT_EQ(a.worker_cpu_util, b.worker_cpu_util);
  EXPECT_EQ(a.ps_cpu_util, b.ps_cpu_util);
  EXPECT_EQ(a.stopped_early, b.stopped_early);
  ASSERT_EQ(a.loss_curve.size(), b.loss_curve.size());
  for (std::size_t i = 0; i < a.loss_curve.size(); ++i) {
    EXPECT_EQ(a.loss_curve[i].iteration, b.loss_curve[i].iteration);
    EXPECT_EQ(a.loss_curve[i].loss, b.loss_curve[i].loss);
  }
  EXPECT_EQ(a.faults.injected, b.faults.injected);
  EXPECT_EQ(a.faults.crashes, b.faults.crashes);
  EXPECT_EQ(a.faults.lost_iterations, b.faults.lost_iterations);
  EXPECT_EQ(a.faults.outage_seconds, b.faults.outage_seconds);
}

/// Scoped runtime-invariant enablement (CYNTHIA_CHECK fires inside).
struct ScopedInvariants {
  ScopedInvariants() { cynthia::util::set_invariants_enabled(true); }
  ~ScopedInvariants() { cynthia::util::set_invariants_enabled(false); }
};

}  // namespace

// ------------------------------------------------------------- schedules

TEST(FaultSchedule, GenerateIsBitIdenticalForSeed) {
  cf::FaultRates rates;
  rates.crash_per_hour = 6.0;
  rates.slowdown_per_hour = 12.0;
  rates.nic_per_hour = 8.0;
  rates.blip_per_hour = 20.0;
  const auto a = cf::FaultSchedule::generate(rates, 7200.0, 8, 2, 42);
  const auto b = cf::FaultSchedule::generate(rates, 7200.0, 8, 2, 42);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_EQ(a.digest(), b.digest());
  const auto c = cf::FaultSchedule::generate(rates, 7200.0, 8, 2, 43);
  EXPECT_NE(a.digest(), c.digest()) << "different seed should move the timeline";
}

TEST(FaultSchedule, GenerateRejectsNonFiniteHorizonAndBadRates) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  cf::FaultRates rates;
  rates.crash_per_hour = 4.0;
  for (const double horizon : {inf, nan, -1.0}) {
    EXPECT_THROW(cf::FaultSchedule::generate(rates, horizon, 4, 1, 7), std::invalid_argument)
        << "horizon " << horizon;
  }
  for (double cf::FaultRates::*rate :
       {&cf::FaultRates::crash_per_hour, &cf::FaultRates::slowdown_per_hour,
        &cf::FaultRates::nic_per_hour, &cf::FaultRates::blip_per_hour}) {
    for (const double bad : {inf, nan, -1.0}) {
      cf::FaultRates r;
      r.*rate = bad;
      EXPECT_THROW(cf::FaultSchedule::generate(r, 3600.0, 4, 1, 7), std::invalid_argument)
          << "rate " << bad;
    }
  }
  // Zero rates over a zero horizon stay valid: no faults.
  EXPECT_TRUE(cf::FaultSchedule::generate({}, 0.0, 4, 1, 7).empty());
}

TEST(FaultSchedule, ParseToStringRoundTrips) {
  const std::string text = "crash:wk1@40+90;slow:wk0@20x2;nic:ps0@60=40;blip:wk2@80";
  const auto parsed = cf::FaultSchedule::parse(text);
  ASSERT_EQ(parsed.size(), 4u);
  const auto reparsed = cf::FaultSchedule::parse(parsed.to_string());
  EXPECT_EQ(parsed.digest(), reparsed.digest());
  EXPECT_EQ(parsed.events(), reparsed.events());
}

TEST(FaultSchedule, RejectsMalformedAndOutOfRange) {
  EXPECT_THROW(cf::FaultSchedule::parse("melt:wk0@3"), std::invalid_argument);
  EXPECT_THROW(cf::FaultSchedule::parse("crash:node0@3"), std::invalid_argument);
  EXPECT_THROW(cf::FaultSchedule::parse("crash:wk0"), std::invalid_argument);
  EXPECT_THROW(cf::FaultSchedule::parse("nic:wk0@3x2"), std::invalid_argument);
  const auto schedule = cf::FaultSchedule::parse("crash:wk5@3+10");
  EXPECT_THROW(schedule.validate(4, 1), std::invalid_argument);
  EXPECT_NO_THROW(schedule.validate(6, 1));
}

namespace {

/// The message parse() throws for `text`, or "" if it parses.
std::string parse_error(const std::string& text) {
  try {
    (void)cf::FaultSchedule::parse(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

}  // namespace

TEST(FaultSchedule, ParseRejectsNonFiniteTime) {
  for (const std::string text : {"slow:wk0@nanx3", "crash:wk1@inf", "crash:wk1@-inf+5",
                                 "nic:ps0@1e999=40", "blip:wk2@NAN+10"}) {
    EXPECT_EQ(parse_error(text),
              "FaultSchedule: bad event \"" + text + "\": expected a finite number");
  }
}

TEST(FaultSchedule, ParseRejectsNonFiniteSuffixValues) {
  // Each of these used to parse: a NaN factor slowed nothing, a NaN
  // bandwidth ran as the default 50% degradation, and a NaN recovery made
  // the crash permanent.
  for (const std::string text : {"slow:wk0@0.5xnan", "blip:wk0@0.5xinf", "nic:wk2@2=nan",
                                 "nic:wk2@2*nan", "nic:wk2@2=1e400", "crash:wk1@1.5+nan",
                                 "crash:wk1@1.5+inf", "slow:wk0@1x2+-nan"}) {
    EXPECT_EQ(parse_error(text),
              "FaultSchedule: bad event \"" + text + "\": expected a finite number");
  }
  // Finite values in every position still parse, exponent notation included.
  EXPECT_EQ(parse_error("slow:wk0@0.5x3;nic:wk2@2=40;nic:ps0@1*0.25;crash:wk1@1.5+2e1"), "");
}

TEST(FaultSchedule, ParseRejectsOutOfRangeTargetIndex) {
  EXPECT_EQ(parse_error("crash:wk3000000000@1"),
            "FaultSchedule: bad event \"crash:wk3000000000@1\": target index out of range");
  EXPECT_EQ(parse_error("crash:ps99999999999999999999@1"),
            "FaultSchedule: bad event \"crash:ps99999999999999999999@1\": target index out of "
            "range");
  EXPECT_EQ(parse_error("crash:wk-1@1"),
            "FaultSchedule: bad event \"crash:wk-1@1\": target index must be a non-negative "
            "integer");
  const auto largest = cf::FaultSchedule::parse("crash:wk2147483647@1");
  EXPECT_EQ(largest.events().front().target, 2147483647);
  EXPECT_EQ(cf::FaultSchedule::parse("crash:wk007@1").events().front().target, 7);
}

TEST(FaultSchedule, ValidateRejectsNonFiniteFields) {
  // Specs built in code skip the parser; validate() must catch them too,
  // with checks that NaN fails, naming the event and the bad field.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto validate_error = [](const cf::FaultSpec& spec) -> std::string {
    try {
      cf::FaultSchedule({spec}).validate(4, 1);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  cf::FaultSpec slow;
  slow.kind = cf::FaultKind::kSlowdown;
  slow.time_seconds = 1.0;
  EXPECT_EQ(validate_error(slow), "");
  for (const double bad : {nan, inf}) {
    cf::FaultSpec s = slow;
    s.time_seconds = bad;
    EXPECT_NE(validate_error(s).find("needs a finite time >= 0"), std::string::npos) << bad;
    s = slow;
    s.slowdown_factor = bad;
    EXPECT_NE(validate_error(s).find("needs a finite slowdown factor >= 1"), std::string::npos)
        << bad;
    s = slow;
    s.recovery_seconds = bad;
    EXPECT_NE(validate_error(s).find("needs a finite recovery time"), std::string::npos) << bad;
  }
  cf::FaultSpec nic;
  nic.kind = cf::FaultKind::kNicDegradation;
  nic.time_seconds = 2.0;
  nic.target = 2;
  EXPECT_EQ(validate_error(nic), "");
  for (const double bad : {nan, inf}) {
    cf::FaultSpec s = nic;
    s.degraded_mbps = bad;
    EXPECT_EQ(validate_error(s), "FaultSchedule: event \"" + s.to_string() +
                                     "\" needs =mbps finite and > 0 or *fraction in (0,1]")
        << bad;
  }
  nic.degraded_fraction = nan;
  EXPECT_NE(validate_error(nic).find("*fraction in (0,1]"), std::string::npos);
}

// ----------------------------------------------------------- determinism

TEST(FaultDeterminism, ZeroFaultScheduleReproducesFaultFreeRunExactly) {
  const auto& w = cd::workload_by_name("mnist");
  const auto cluster = cd::ClusterSpec::homogeneous(m4(), 4, 1);
  const auto plain = cd::run_training(cluster, w, base_options(200));
  cd::TrainOptions with_empty = base_options(200);
  const cf::FaultSchedule empty;
  with_empty.faults = &empty;
  const auto faulted = cd::run_training(cluster, w, with_empty);
  expect_identical(plain, faulted);
}

TEST(FaultDeterminism, FaultRunIsBitIdenticalAcrossRepeats) {
  const auto& w = cd::workload_by_name("mnist");
  const auto cluster = cd::ClusterSpec::homogeneous(m4(), 4, 1);
  const auto schedule =
      cf::FaultSchedule::parse("slow:wk0@0.5x3;crash:wk1@1.5+2;nic:wk2@2=40;crash:ps0@3+1.5");
  cd::TrainOptions o = base_options(300);
  o.faults = &schedule;
  const auto a = cd::run_training(cluster, w, o);
  const auto b = cd::run_training(cluster, w, o);
  EXPECT_GT(a.faults.injected, 0);
  expect_identical(a, b);
}

// -------------------------------------------------- crash/recovery semantics

TEST(FaultSemantics, BspCrashRecoveryPassesInvariantChecks) {
  ScopedInvariants guard;
  const auto& w = cd::workload_by_name("mnist");  // BSP
  const auto cluster = cd::ClusterSpec::homogeneous(m4(), 4, 1);
  const auto schedule =
      cf::FaultSchedule::parse("crash:wk1@1.5+2;crash:ps0@3+1.5;blip:wk3@2.5+0.5");
  cd::TrainOptions o = base_options(300);
  o.faults = &schedule;
  const auto r = cd::run_training(cluster, w, o);  // CYNTHIA_CHECK armed throughout
  EXPECT_EQ(r.iterations, 300) << "recovered run must still finish the budget";
  EXPECT_EQ(r.faults.crashes, 2);
  EXPECT_FALSE(r.stopped_early);
  EXPECT_GT(r.faults.outage_seconds, 0.0);
}

TEST(FaultSemantics, PsCrashRollsBackToCheckpoint) {
  const auto& w = cd::workload_by_name("mnist");
  const auto cluster = cd::ClusterSpec::homogeneous(m4(), 4, 1);
  const auto schedule = cf::FaultSchedule::parse("crash:ps0@3+1.5");
  cd::TrainOptions o = base_options(300);
  o.faults = &schedule;
  o.checkpoint_interval_iterations = 50;
  const auto r = cd::run_training(cluster, w, o);
  EXPECT_EQ(r.faults.crashes, 1);
  EXPECT_GT(r.faults.lost_iterations, 0) << "un-checkpointed pushes are lost";
  EXPECT_LT(r.faults.lost_iterations, 50) << "at most one interval rolls back";
  ASSERT_EQ(r.faults.events.size(), 1u);
  EXPECT_TRUE(r.faults.events[0].fired);
  EXPECT_GE(r.faults.events[0].recovered_at, 0.0);
  const auto baseline = cd::run_training(cluster, w, base_options(300));
  EXPECT_GT(r.total_time, baseline.total_time) << "redone work costs wall time";
}

TEST(FaultSemantics, AspWorkerCrashStillCompletesBudget) {
  ScopedInvariants guard;
  const auto& w = cd::workload_by_name("resnet32");  // ASP
  const auto cluster = cd::ClusterSpec::homogeneous(m4(), 4, 1);
  const auto schedule = cf::FaultSchedule::parse("crash:wk1@30");  // permanent
  cd::TrainOptions o = base_options(120);
  o.faults = &schedule;
  const auto r = cd::run_training(cluster, w, o);
  EXPECT_EQ(r.iterations, 120) << "survivors absorb the dead worker's share";
  EXPECT_FALSE(r.stopped_early);
  EXPECT_EQ(r.faults.crashes, 1);
}

TEST(FaultSemantics, SlowdownStretchesTraining) {
  const auto& w = cd::workload_by_name("mnist");
  const auto cluster = cd::ClusterSpec::homogeneous(m4(), 4, 1);
  const auto baseline = cd::run_training(cluster, w, base_options(300));
  // mnist hides moderate compute under communication, so make the straggler
  // slow enough that its compute phase dominates the barrier.
  const auto schedule = cf::FaultSchedule::parse("slow:wk0@0.5x50");  // permanent
  cd::TrainOptions o = base_options(300);
  o.faults = &schedule;
  const auto slowed = cd::run_training(cluster, w, o);
  EXPECT_EQ(slowed.faults.injected, 1);
  EXPECT_GT(slowed.total_time, baseline.total_time)
      << "a 50x slower straggler must stretch BSP barriers";
  EXPECT_EQ(slowed.iterations, 300);
}

// --------------------------------------------------------- fluid capacity

TEST(FluidCapacity, MidRunChangeSettlesAndValidates) {
  ScopedInvariants guard;
  sim::Simulator s;
  sim::test::ClosureFluid fluid(s);
  const auto cpu = fluid.add_resource("cpu", 100.0);
  bool done = false;
  fluid.start_job(1000.0, {cpu}, [&](double) { done = true; });
  s.after(1.0, [&] { fluid.set_resource_capacity(cpu, 25.0); });
  s.run();
  EXPECT_TRUE(done);
  // 100 MB/s for 1 s, then 25 MB/s for the remaining 900 units -> t = 37 s.
  EXPECT_NEAR(s.now(), 37.0, 1e-6);
}

TEST(FluidCapacity, RejectsNonPositiveCapacityAndBadId) {
  sim::Simulator s;
  sim::test::ClosureFluid fluid(s);
  const auto cpu = fluid.add_resource("cpu", 100.0);
  EXPECT_THROW(fluid.set_resource_capacity(cpu, 0.0), std::invalid_argument);
  EXPECT_THROW(fluid.set_resource_capacity(cpu, -5.0), std::invalid_argument);
  EXPECT_THROW(fluid.set_resource_capacity(cpu + 17, 10.0), std::out_of_range);
}

// ------------------------------------------------- repair-in-place / elastic
//
// The RecoveryController suite name predates the one job API: these run
// orch::execute_job under the RepairInPlace and Elastic policies.

namespace {

core::ProvisionPlan manual_plan(int n_workers, int n_ps, long iterations) {
  core::ProvisionPlan plan;
  plan.feasible = true;
  plan.type = m4();
  plan.n_workers = n_workers;
  plan.n_ps = n_ps;
  plan.iterations = iterations;
  plan.total_iterations = iterations;
  return plan;
}

/// A job on 4 workers + 1 PS of m4.xlarge under `schedule` and `policy`.
orch::JobSpec fault_job(const char* workload, long iterations, const char* schedule,
                        const core::ProvisionGoal& goal, orch::JobPolicy policy = {}) {
  return {cd::workload_by_name(workload), manual_plan(4, 1, iterations), goal,
          cf::FaultSchedule::parse(schedule), std::move(policy)};
}

}  // namespace

TEST(RecoveryController, RepairInPlaceHealsACrash) {
  ScopedInvariants guard;
  // Compute-bound ASP workload: losing a worker visibly slows training, and
  // the run is long enough that the realistic replacement pipeline (~70 s of
  // boot + install + kubeadm join) completes inside it.
  orch::JobSpec spec = fault_job("resnet32", 150, "crash:wk1@30",  // no recovery given
                                 {cynthia::util::Seconds{7200.0}, 20.0});
  spec.seed = 7;
  const auto report = orch::execute_job(spec);
  spec.faults = {};
  const auto baseline = orch::execute_job(spec);
  ASSERT_EQ(report.replacement_provisioning.size(), 1u);
  EXPECT_GT(report.replacement_provisioning[0], 0.0);
  EXPECT_EQ(report.training.faults.crashes, 1);
  ASSERT_FALSE(report.training.faults.events.empty());
  EXPECT_GE(report.training.faults.events[0].recovered_at, 0.0)
      << "the controller must have provisioned a replacement";
  EXPECT_EQ(report.training.iterations, 150);
  EXPECT_TRUE(report.time_goal_met);
  EXPECT_GT(report.training.total_time, baseline.training.total_time)
      << "a missing worker slows a compute-bound job";
  EXPECT_GT(report.actual_cost.value(), baseline.actual_cost.value())
      << "the replacement node and the longer run cost extra dollars";
}

TEST(RecoveryController, DeterministicAcrossRepeats) {
  const orch::JobSpec spec = fault_job("mnist", 300, "crash:ps0@3;slow:wk0@1x2+4",
                                       {cynthia::util::Seconds{3600.0}, 1.0});
  const auto a = orch::execute_job(spec);
  const auto b = orch::execute_job(spec);
  expect_identical(a.training, b.training);
  EXPECT_EQ(a.actual_cost.value(), b.actual_cost.value());
  EXPECT_EQ(a.replacement_provisioning, b.replacement_provisioning);
}

TEST(RecoveryController, ElasticReplansAfterPsCrash) {
  ScopedInvariants guard;
  const auto& w = cd::workload_by_name("mnist");
  const auto& baseline = m4();
  const auto predictor = core::Predictor::build(w, baseline);
  const core::Provisioner provisioner(predictor.model(), predictor.loss(),
                                      cc::Catalog::aws().provisionable());
  const auto report = orch::execute_job(
      fault_job("mnist", 300, "crash:ps0@3", {cynthia::util::Seconds{3600.0}, 1.0},
                orch::Elastic{}),
      &provisioner);
  EXPECT_GT(report.resume_at, 3.0) << "resume follows detection + provisioning + restore";
  EXPECT_TRUE(report.replacement_plan.feasible);
  EXPECT_EQ(report.training.iterations, 300)
      << "checkpointed + resumed segments must cover the whole budget";
  EXPECT_GE(report.training.faults.crashes, 1);
  EXPECT_GT(report.training.faults.outage_seconds, 0.0);
  // The loss curve continues across the splice instead of restarting.
  long prev = -1;
  for (const auto& sample : report.training.loss_curve) {
    EXPECT_GT(sample.iteration, prev);
    prev = sample.iteration;
  }
  EXPECT_TRUE(report.time_goal_met);
}

TEST(RecoveryController, ElasticFallsBackToRepairInPlaceWhenNoReplanFits) {
  ScopedInvariants guard;
  // An 8 s Tg leaves no budget after the PS crash at t=3 and the 5 s
  // detection: no re-plan is feasible, so the crashed PS is repaired in
  // place and the job finishes on its original cluster.
  const auto& w = cd::workload_by_name("mnist");
  const auto predictor = core::Predictor::build(w, m4());
  const core::Provisioner provisioner(predictor.model(), predictor.loss(),
                                      cc::Catalog::aws().provisionable());
  ct::Telemetry tel;
  orch::JobSpec spec =
      fault_job("mnist", 300, "crash:ps0@3", {cynthia::util::Seconds{8.0}, 1.0}, orch::Elastic{});
  spec.training.telemetry = &tel;
  const auto report = orch::execute_job(spec, &provisioner);
  EXPECT_FALSE(report.replanned);
  EXPECT_EQ(report.training.iterations, 300);
  EXPECT_EQ(report.training.faults.crashes, 1);
  ASSERT_FALSE(report.training.faults.events.empty());
  EXPECT_GE(report.training.faults.events[0].recovered_at, 0.0)
      << "the replacement PS must bring the crashed shard back";
  const auto ledger = ct::CostLedger::from(tel.journal);
  EXPECT_EQ(ledger.total().value(), report.actual_cost.value());
  EXPECT_GT(ledger.phase_dollars(ct::CostPhase::kRecover), 0.0);
}

TEST(RecoveryController, ElasticWithoutProvisionerThrows) {
  EXPECT_THROW(orch::execute_job(fault_job("mnist", 100, "crash:wk0@1",
                                           {cynthia::util::Seconds{3600.0}, 1.0},
                                           orch::Elastic{})),
               std::invalid_argument);
}

// ----------------------------------------------------------------- replan

TEST(Provisioner, ReplanFindsFeasiblePlanForRemainingBudget) {
  const auto& w = cd::workload_by_name("mnist");
  const auto predictor = core::Predictor::build(w, m4());
  const core::Provisioner provisioner(predictor.model(), predictor.loss(),
                                      cc::Catalog::aws().provisionable());
  const auto plan = provisioner.replan(w.sync, 500, cynthia::util::Seconds{600.0});
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.total_iterations, 500);
  EXPECT_GT(plan.n_workers, 0);
  EXPECT_LE(plan.predicted_time.value(), 600.0);
  // An impossible budget reports infeasible instead of throwing.
  const auto none = provisioner.replan(w.sync, 500, cynthia::util::Seconds{0.0});
  EXPECT_FALSE(none.feasible);
  EXPECT_THROW(provisioner.replan(w.sync, 0, cynthia::util::Seconds{100.0}),
               std::invalid_argument);
}

// ------------------------------------------------ journal cost attribution

TEST(RecoveryController, JournalLedgerSumsToActualCostExactly) {
  // Repair-in-place path: the original meter settlement plus per-crash
  // replacement deltas must reproduce report.actual_cost bit-for-bit.
  ct::Telemetry tel;
  orch::JobSpec spec = fault_job("mnist", 300, "crash:ps0@3;slow:wk0@1x2+4",
                                 {cynthia::util::Seconds{3600.0}, 1.0});
  spec.training.telemetry = &tel;
  const auto report = orch::execute_job(spec);
  EXPECT_GE(report.training.faults.crashes, 1);

  const auto ledger = ct::CostLedger::from(tel.journal);
  EXPECT_FALSE(ledger.entries().empty());
  EXPECT_EQ(ledger.total().value(), report.actual_cost.value());
  EXPECT_EQ(tel.metrics.gauge_value(ct::metric::kBillingDollars),
            report.actual_cost.value());
  EXPECT_GT(ledger.phase_dollars(ct::CostPhase::kRecover), 0.0)
      << "crash replacements must be attributed to the recover phase";

  // ... and the journal must not perturb the run it observes.
  spec.training.telemetry = nullptr;
  const auto plain = orch::execute_job(spec);
  expect_identical(report.training, plain.training);
  EXPECT_EQ(report.actual_cost.value(), plain.actual_cost.value());
}

TEST(RecoveryController, ElasticJournalLedgerSumsToActualCostExactly) {
  // Elastic path: two meter settlements (original + replacement cluster)
  // plus per-crash plan-cost deltas, still bitwise-equal to actual_cost.
  const auto& w = cd::workload_by_name("mnist");
  const auto predictor = core::Predictor::build(w, m4());
  const core::Provisioner provisioner(predictor.model(), predictor.loss(),
                                      cc::Catalog::aws().provisionable());
  ct::Telemetry tel;
  orch::JobSpec spec = fault_job("mnist", 300, "crash:ps0@3",
                                 {cynthia::util::Seconds{3600.0}, 1.0}, orch::Elastic{});
  spec.training.telemetry = &tel;
  const auto report = orch::execute_job(spec, &provisioner);
  EXPECT_GE(report.training.faults.crashes, 1);

  const auto ledger = ct::CostLedger::from(tel.journal);
  EXPECT_FALSE(ledger.entries().empty());
  EXPECT_EQ(ledger.total().value(), report.actual_cost.value());
  EXPECT_EQ(tel.metrics.gauge_value(ct::metric::kBillingDollars),
            report.actual_cost.value());
  EXPECT_GT(ledger.cause_dollars(ct::CostCause::kFault), 0.0)
      << "the replacement cluster must be attributed to the fault";
}
