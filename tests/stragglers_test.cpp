// SLO-sentinel suite: straggler/degradation detection, mitigation policies,
// and no-oscillation guarantees, run under the full invariant checker
// (`ctest -L stragglers`). The StragglerDetector is driven both with
// synthetic probes (exact threshold semantics) and end-to-end through
// orch::execute_job's Sentinel policy on fault-injected training.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cloud/instance.hpp"
#include "core/predictor.hpp"
#include "core/provisioner.hpp"
#include "ddnn/monitor.hpp"
#include "ddnn/trainer.hpp"
#include "ddnn/workload.hpp"
#include "faults/fault_spec.hpp"
#include "orchestrator/executor.hpp"
#include "orchestrator/sentinel.hpp"
#include "telemetry/report.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"

namespace cc = cynthia::cloud;
namespace cd = cynthia::ddnn;
namespace core = cynthia::core;
namespace cf = cynthia::faults;
namespace orch = cynthia::orch;
namespace cu = cynthia::util;

namespace {

/// Every test in this file runs with the runtime invariant checker on.
class StragglersTest : public ::testing::Test {
 protected:
  void SetUp() override { cu::set_invariants_enabled(true); }
  void TearDown() override { cu::set_invariants_enabled(false); }
};

const cc::InstanceType& m4() { return cc::Catalog::aws().at("m4.xlarge"); }

/// A probe over `busy` with a healthy PS, `dt` seconds after the last one.
cd::HealthProbe probe_at(double now, long iteration, std::vector<double> busy,
                         double ps_sat = 0.0) {
  cd::HealthProbe p;
  p.now = now;
  p.iteration = iteration;
  p.total_iterations = 10000;
  p.mode = cd::SyncMode::BSP;
  p.worker_busy_seconds = std::move(busy);
  p.window_seconds = 1.0;
  p.ps_nic_saturated_fraction = ps_sat;
  return p;
}

orch::StragglerDetector::Config detector_config() {
  orch::StragglerDetector::Config cfg;
  cfg.total_iterations = 10000;
  cfg.replacement_after_seconds = 30.0;
  return cfg;
}

/// The journal's `segment` records, in job order.
std::vector<cynthia::telemetry::JournalRecord> segment_records(
    const cynthia::telemetry::Journal& journal) {
  std::vector<cynthia::telemetry::JournalRecord> out;
  for (const auto& rec : journal.records()) {
    if (rec.kind == cynthia::telemetry::JournalKind::kSegment) out.push_back(rec);
  }
  return out;
}

/// Compute spans traced for worker `w` that start in [t0, t1) on the job clock.
int compute_spans(const cynthia::telemetry::Tracer& tracer, int w, double t0, double t1) {
  const std::string track = "wk" + std::to_string(w) + ".cpu";
  int n = 0;
  for (const auto& ev : tracer.events()) {
    if (ev.name == "compute" && tracer.tracks()[ev.track] == track && ev.start >= t0 &&
        ev.start < t1) {
      ++n;
    }
  }
  return n;
}

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

/// A Sentinel-policy job; `mitigation` picks what the detector may do.
orch::JobSpec sentinel_job(const std::string& workload, const core::ProvisionPlan& plan,
                           cf::FaultSchedule schedule, const core::ProvisionGoal& goal,
                           orch::MitigationPolicy mitigation = orch::MitigationPolicy::kAuto) {
  return {cd::workload_by_name(workload), plan, goal, std::move(schedule),
          orch::Sentinel{mitigation}};
}

}  // namespace

// ---------------------------------------------------------------- detector

TEST_F(StragglersTest, DetectorFlagsPersistentStragglerAfterHysteresis) {
  auto cfg = detector_config();
  std::vector<orch::DetectionEvent> detections;
  orch::StragglerDetector det(cfg, &detections);

  double t = 0.0;
  long iter = 0;
  // Warmup: a healthy, uniform cluster.
  for (int k = 0; k < orch::kWarmupProbes + 1; ++k) {
    auto a = det.observe(probe_at(t += 1.0, ++iter, {1.0, 1.0, 1.0, 1.0}));
    EXPECT_EQ(a.kind, cd::MonitorAction::Kind::kNone);
  }
  // Worker 2 turns 2x slow; hysteresis demands consecutive anomalies.
  cd::MonitorAction action;
  int probes_until_action = 0;
  for (int k = 0; k < 20; ++k) {
    action = det.observe(probe_at(t += 1.0, ++iter, {1.0, 1.0, 2.0, 1.0}));
    ++probes_until_action;
    if (action.kind != cd::MonitorAction::Kind::kNone) break;
  }
  ASSERT_EQ(action.kind, cd::MonitorAction::Kind::kExcludeWorker);
  EXPECT_EQ(action.target, 2);
  EXPECT_DOUBLE_EQ(action.replacement_after_seconds, 30.0);
  // The EWMA baseline must cross the threshold AND hold it for
  // kHysteresisProbes probes; a single anomaly can never trigger.
  EXPECT_GE(probes_until_action, orch::kHysteresisProbes);
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_EQ(detections[0].kind, "straggler");
  EXPECT_EQ(detections[0].worker, 2);
}

TEST_F(StragglersTest, DetectorIgnoresHealthyJitter) {
  auto cfg = detector_config();
  std::vector<orch::DetectionEvent> detections;
  orch::StragglerDetector det(cfg, &detections);
  // +/- 8% jitter is normal cloud noise; min_ratio gates the z-score.
  double t = 0.0;
  for (int k = 0; k < 60; ++k) {
    const double wiggle = (k % 3 == 0) ? 1.08 : (k % 3 == 1 ? 0.95 : 1.0);
    auto a = det.observe(probe_at(t += 1.0, k + 1, {1.0, wiggle, 1.02, 0.97}));
    EXPECT_EQ(a.kind, cd::MonitorAction::Kind::kNone) << "probe " << k;
  }
  EXPECT_TRUE(detections.empty());
}

TEST_F(StragglersTest, DetectorDoesNotOscillate) {
  auto cfg = detector_config();
  std::vector<orch::DetectionEvent> detections;
  std::vector<orch::MitigationRecord> mitigations;
  orch::StragglerDetector det(cfg, &detections, &mitigations);

  double t = 0.0;
  long iter = 0;
  int actions = 0;
  double first_action_at = -1.0;
  // A persistent anomaly (the mitigation "didn't take"): the cooldown must
  // space out repeat actions by at least kCooldown.
  for (int k = 0; k < 200; ++k) {
    auto a = det.observe(probe_at(t += 1.0, ++iter, {1.0, 1.0, 2.0, 1.0}));
    if (a.kind != cd::MonitorAction::Kind::kNone) {
      ++actions;
      if (first_action_at < 0.0) {
        first_action_at = t;
      } else {
        EXPECT_GE(t - first_action_at, orch::kCooldown.value());
        break;
      }
    }
  }
  EXPECT_GE(actions, 1);
  EXPECT_EQ(mitigations.size(), static_cast<std::size_t>(actions));
}

TEST_F(StragglersTest, DetectorRoutesPsSaturationToAddPs) {
  auto cfg = detector_config();
  orch::StragglerDetector det(cfg);
  double t = 0.0;
  cd::MonitorAction action;
  for (int k = 0; k < 20; ++k) {
    action = det.observe(probe_at(t += 1.0, k + 1, {1.0, 1.0, 1.0, 1.0}, 0.99));
    if (action.kind != cd::MonitorAction::Kind::kNone) break;
  }
  ASSERT_EQ(action.kind, cd::MonitorAction::Kind::kStop);
  EXPECT_EQ(action.reason, "ps-bottleneck");
}

TEST_F(StragglersTest, DetectorForecastDowngradesBspToSsp) {
  auto cfg = detector_config();
  cfg.time_goal_seconds = 100.0;  // 10000 iterations at 1 s/iter cannot fit
  orch::StragglerDetector det(cfg);
  double t = 0.0;
  cd::MonitorAction action;
  for (int k = 0; k < 20; ++k) {
    action = det.observe(probe_at(t += 1.0, k + 1, {1.0, 1.0, 1.0, 1.0}));
    if (action.kind != cd::MonitorAction::Kind::kNone) break;
  }
  ASSERT_EQ(action.kind, cd::MonitorAction::Kind::kDowngradeSsp);
  EXPECT_EQ(action.reason, "slo-forecast");
}

TEST_F(StragglersTest, PolicyNoneDetectsButNeverActs) {
  auto cfg = detector_config();
  cfg.policy = orch::MitigationPolicy::kNone;
  std::vector<orch::DetectionEvent> detections;
  orch::StragglerDetector det(cfg, &detections);
  double t = 0.0;
  for (int k = 0; k < 60; ++k) {
    auto a = det.observe(probe_at(t += 1.0, k + 1, {1.0, 1.0, 3.0, 1.0}));
    EXPECT_EQ(a.kind, cd::MonitorAction::Kind::kNone);
  }
  EXPECT_FALSE(detections.empty());
}

TEST_F(StragglersTest, PolicyParsingRoundTrips) {
  for (const char* name : {"none", "replace", "add-ps", "ssp", "replan", "auto"}) {
    EXPECT_STREQ(orch::to_string(orch::parse_mitigation_policy(name)), name);
  }
  EXPECT_THROW(orch::parse_mitigation_policy("fix-it"), std::invalid_argument);
}

// ---------------------------------------------------------------- end-to-end

TEST_F(StragglersTest, SentinelReplacesSlowWorkerAndBeatsUnmitigatedRun) {
  const auto schedule =
      cf::FaultSchedule::parse("slow:wk1@200x4+100000");  // effectively permanent
  const core::ProvisionGoal goal{cu::Seconds{1e9}, 1e9};

  orch::JobSpec on = sentinel_job("cifar10", manual_plan(4, 1, 400), schedule, goal);
  const orch::JobRun mitigated = orch::execute_job(on);
  orch::JobSpec off = on;
  off.policy = orch::RepairInPlace{};
  const orch::JobRun plain = orch::execute_job(off);

  EXPECT_FALSE(mitigated.detections.empty());
  EXPECT_FALSE(mitigated.mitigations.empty());
  ASSERT_FALSE(mitigated.training.monitor.exclusions.empty());
  EXPECT_EQ(mitigated.training.monitor.exclusions[0].worker, 1);
  EXPECT_EQ(mitigated.training.iterations, 400);
  // Replacing the degraded node must beat riding out the 4x slowdown.
  EXPECT_LT(mitigated.training.total_time, plain.training.total_time);
  // ... and the replacement node costs extra dollars.
  EXPECT_GT(mitigated.actual_cost.value(), 0.0);
}

TEST_F(StragglersTest, SentinelRunsAreDeterministic) {
  const orch::JobSpec spec =
      sentinel_job("cifar10", manual_plan(4, 1, 300),
                   cf::FaultSchedule::parse("slow:wk2@150x3+100000"), {cu::Seconds{1e9}, 1e9});
  const auto a = orch::execute_job(spec);
  const auto b = orch::execute_job(spec);
  EXPECT_EQ(a.training.total_time, b.training.total_time);
  EXPECT_EQ(a.training.final_loss, b.training.final_loss);
  EXPECT_EQ(a.actual_cost.value(), b.actual_cost.value());
  ASSERT_EQ(a.detections.size(), b.detections.size());
  for (std::size_t i = 0; i < a.detections.size(); ++i) {
    EXPECT_EQ(a.detections[i].at, b.detections[i].at);
    EXPECT_EQ(a.detections[i].kind, b.detections[i].kind);
    EXPECT_EQ(a.detections[i].worker, b.detections[i].worker);
  }
}

TEST_F(StragglersTest, SentinelHonorsMitigationBudget) {
  // Six of eight workers degrade permanently, one after another: more
  // stragglers than the job's kMaxActions budget can replace.
  const auto schedule = cf::FaultSchedule::parse(
      "slow:wk0@100x4+100000;slow:wk1@200x4+100000;slow:wk2@300x4+100000;"
      "slow:wk3@400x4+100000;slow:wk4@500x4+100000;slow:wk5@600x4+100000");
  const auto report = orch::execute_job(
      sentinel_job("cifar10", manual_plan(8, 1, 800), schedule, {cu::Seconds{1e9}, 1e9}));
  EXPECT_GT(report.detections.size(), static_cast<std::size_t>(orch::kMaxActions));
  EXPECT_EQ(report.mitigations.size(), static_cast<std::size_t>(orch::kMaxActions));
  EXPECT_EQ(report.training.iterations, 800);  // the budget still completes
}

TEST_F(StragglersTest, SentinelSspPolicyDowngradesUnderForecastMiss) {
  // `cynthiactl simulate cifar10 --workers 4 --ps 1 --iterations 400
  // --faults <below> --mitigate=ssp --minutes 20`: one downgrade, no later cut.
  // A uniform cluster-wide slowdown on cifar10 (BSP): no single straggler
  // stands out, so the forecast detector is the one that must fire.
  const auto schedule = cf::FaultSchedule::parse(
      "slow:wk0@100x2+100000;slow:wk1@100x2+100000;slow:wk2@100x2+100000;"
      "slow:wk3@100x2+100000");
  cynthia::telemetry::Telemetry tel;
  // Tight but reachable: the fault-free run takes ~824 s.
  orch::JobSpec spec = sentinel_job("cifar10", manual_plan(4, 1, 400), schedule,
                                    {cu::minutes(20.0), 0.0}, orch::MitigationPolicy::kSsp);
  spec.seed = 1;
  spec.training.telemetry = &tel;
  const auto report = orch::execute_job(spec);

  const cd::TrainResult& r = report.training;
  ASSERT_TRUE(r.monitor.downgraded);
  EXPECT_EQ(r.iterations, 400);
  ASSERT_EQ(report.mitigations.size(), 1u);
  EXPECT_EQ(report.mitigations[0].action, "ssp-downgrade");

  // The downgrade ends segment 0; the SSP segment runs the rest of the budget.
  EXPECT_EQ(report.segments, 2);
  const auto segments = segment_records(tel.journal);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0].detail, "ssp-downgrade");
  EXPECT_EQ(segments[0].iterations, r.monitor.downgraded_at_iteration);
  EXPECT_EQ(segments[1].detail, "completed");
  EXPECT_EQ(segments[1].t, r.monitor.downgraded_at);  // no pause between them
  EXPECT_EQ(segments[0].iterations + segments[1].iterations, 400);

  // Every slowdown is still active at the cut: the SSP segment re-injects it
  // on the same node, it never recovers, and it is counted once.
  EXPECT_EQ(r.faults.slowdowns, 4);
  ASSERT_EQ(r.faults.events.size(), 4u);
  for (const cd::FaultEventOutcome& e : r.faults.events) {
    EXPECT_TRUE(e.fired) << e.spec.to_string();
    EXPECT_EQ(e.injected_at, 100.0) << e.spec.to_string();
    EXPECT_LT(e.recovered_at, 0.0) << e.spec.to_string();
  }
  const double degraded_to_end = 4.0 * (r.total_time - 100.0);
  EXPECT_NEAR(r.faults.degraded_node_seconds, degraded_to_end, 1e-9 * degraded_to_end);
}

TEST_F(StragglersTest, SspDowngradeKeepsAPendingReplacementExcluded) {
  // Determinism's sentinel fault case 4: wk1 is blacklisted at ~136 s with
  // its replacement due at ~207 s, and the forecast downgrades at ~188 s, so
  // the replacement's join dies with the cut.
  cynthia::telemetry::Telemetry tel;
  orch::JobSpec spec = sentinel_job(
      "cifar10", manual_plan(4, 1, 200),
      cf::FaultSchedule::parse("slow:wk1@100x4+100000;blip:wk3@50x100+10;nic:ps0@60*0.25+300"),
      {cu::Seconds{600.0}, 1e9});
  spec.seed = 7;
  spec.training.telemetry = &tel;
  const auto report = orch::execute_job(spec);

  const cd::TrainResult& r = report.training;
  ASSERT_TRUE(r.monitor.downgraded);
  const double cut = r.monitor.downgraded_at;
  const cd::MonitorExclusion* wk1 = nullptr;
  for (const cd::MonitorExclusion& e : r.monitor.exclusions) {
    if (e.worker == 1) wk1 = &e;
  }
  ASSERT_NE(wk1, nullptr);
  ASSERT_LT(wk1->at, cut);
  ASSERT_GT(wk1->replaced_at, cut);

  // The run cuts again after the downgrade, and the merged result keeps only
  // the last segment's utilization: look at the SSP segment's own trace.
  const auto segments = segment_records(tel.journal);
  std::size_t ssp = 0;
  while (ssp < segments.size() && segments[ssp].detail != "ssp-downgrade") ++ssp;
  ASSERT_LT(ssp + 1, segments.size());
  const cynthia::telemetry::JournalRecord& next = segments[ssp + 1];
  EXPECT_EQ(next.t, cut);
  const double end = next.t + next.value;
  EXPECT_EQ(compute_spans(tel.tracer, 1, cut, end), 0) << "wk1 trained in the SSP segment";
  for (int j : {0, 2, 3}) EXPECT_GT(compute_spans(tel.tracer, j, cut, end), 0) << "wk" << j;
  EXPECT_EQ(r.iterations, 200);
}

TEST_F(StragglersTest, SentinelDisabledMatchesPlainTraining) {
  const auto& w = cd::workload_by_name("cifar10");
  const auto schedule = cf::FaultSchedule::parse("slow:wk1@100x2+100000");
  const orch::JobSpec spec{w, manual_plan(4, 1, 200), {cu::Seconds{1e9}, 1e9}, schedule};
  const auto report = orch::execute_job(spec);

  // Without the sentinel (repair-in-place), the job must train
  // bit-identically to a direct run_training call with the same cluster,
  // seed, and schedule (no crash events here, so no recovery enrichment
  // perturbs the timeline).
  const auto cluster = cd::ClusterSpec::homogeneous(m4(), 4, 1);
  cd::TrainOptions o;
  o.iterations = 200;
  o.seed = spec.seed;
  o.faults = &schedule;
  const auto direct = cd::run_training(cluster, w, o);
  EXPECT_EQ(report.training.total_time, direct.total_time);
  EXPECT_EQ(report.training.final_loss, direct.final_loss);
  EXPECT_EQ(report.training.computation_time, direct.computation_time);
  EXPECT_EQ(report.training.communication_time, direct.communication_time);
  EXPECT_TRUE(report.detections.empty());
  EXPECT_TRUE(report.mitigations.empty());
}

TEST_F(StragglersTest, JournalLedgerSumsToSentinelCostExactly) {
  // A replaced straggler puts kMitigate settlements next to the original
  // meter settlement: the attribution ledger must still reproduce
  // report.actual_cost bit-for-bit (and the gauge mirrors it).
  cynthia::telemetry::Telemetry tel;
  orch::JobSpec spec =
      sentinel_job("cifar10", manual_plan(4, 1, 400),
                   cf::FaultSchedule::parse("slow:wk1@200x4+100000"), {cu::Seconds{1e9}, 1e9});
  spec.training.telemetry = &tel;
  const auto report = orch::execute_job(spec);
  ASSERT_FALSE(report.mitigations.empty());

  const auto ledger = cynthia::telemetry::CostLedger::from(tel.journal);
  EXPECT_FALSE(ledger.entries().empty());
  EXPECT_EQ(ledger.total().value(), report.actual_cost.value());
  EXPECT_EQ(tel.metrics.gauge_value(cynthia::telemetry::metric::kBillingDollars),
            report.actual_cost.value());
  EXPECT_GT(ledger.cause_dollars(cynthia::telemetry::CostCause::kSentinelAction), 0.0)
      << "the straggler replacement must be attributed to a sentinel action";

  // ... and carrying the journal must not perturb the run itself.
  spec.training.telemetry = nullptr;
  const auto plain = orch::execute_job(spec);
  EXPECT_EQ(report.training.total_time, plain.training.total_time);
  EXPECT_EQ(report.training.final_loss, plain.training.final_loss);
  EXPECT_EQ(report.actual_cost.value(), plain.actual_cost.value());
}

TEST_F(StragglersTest, ForecastMissReplansThroughTheProvisioner) {
  // With a Provisioner attached, a Tg-forecast miss takes the executor's
  // re-plan step: the job moves to a larger cluster, finishes its budget
  // there, and the new cluster is billed as a sentinel action.
  const auto& w = cd::workload_by_name("resnet32");  // ASP: no SSP detour
  const auto predictor = core::Predictor::build(w, m4());
  const core::Provisioner provisioner(predictor.model(), predictor.loss(),
                                      cc::Catalog::aws().provisionable());
  const auto plan = manual_plan(2, 1, 300);
  const core::ProvisionGoal goal{cu::minutes(20.0), 0.0};

  cynthia::telemetry::Telemetry tel;
  orch::JobSpec spec = sentinel_job("resnet32", plan, {}, goal, orch::MitigationPolicy::kReplan);
  spec.training.telemetry = &tel;
  const auto report = orch::execute_job(spec, &provisioner);

  ASSERT_TRUE(report.replanned);
  EXPECT_GT(report.replacement_plan.n_workers, plan.n_workers);
  EXPECT_EQ(report.training.iterations, 300);
  EXPECT_TRUE(report.time_goal_met) << report.training.total_time;
  long prev = -1;
  for (const auto& sample : report.training.loss_curve) {
    EXPECT_GT(sample.iteration, prev);
    prev = sample.iteration;
  }

  const auto ledger = cynthia::telemetry::CostLedger::from(tel.journal);
  EXPECT_EQ(ledger.total().value(), report.actual_cost.value());
  bool leased = false;
  for (const auto& entry : ledger.entries()) {
    if (entry.node.rfind("extra-", 0) != 0) continue;
    leased = true;
    EXPECT_EQ(entry.phase, cynthia::telemetry::CostPhase::kMitigate);
    EXPECT_EQ(entry.cause, cynthia::telemetry::CostCause::kSentinelAction);
    EXPECT_GT(entry.dollars, 0.0);
  }
  EXPECT_TRUE(leased) << "the re-planned cluster must be billed";
}
