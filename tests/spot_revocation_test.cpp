// Revocation-aware provisioning suite (ctest label: spot).
//
// Covers the interruption-model fitting and expected-run math in
// core/revocation, the mixed-fleet planner (core::Provisioner::plan_spot),
// the executed spot runs (orch::execute_job's Spot policy: revocation
// crashes, rollback, billing and ledger), and the bit-identical-at-fixed-seed
// determinism contract that ties them together.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "cloud/instance.hpp"
#include "cloud/spot.hpp"
#include "core/predictor.hpp"
#include "core/provisioner.hpp"
#include "core/revocation.hpp"
#include "ddnn/workload.hpp"
#include "faults/fault_spec.hpp"
#include "orchestrator/executor.hpp"
#include "telemetry/report.hpp"
#include "telemetry/telemetry.hpp"
#include "util/units.hpp"

namespace cc = cynthia::cloud;
namespace cd = cynthia::ddnn;
namespace cf = cynthia::faults;
namespace core = cynthia::core;
namespace orch = cynthia::orch;
namespace ct = cynthia::telemetry;
namespace util = cynthia::util;

namespace {

const cc::InstanceType& m4() { return cc::Catalog::aws().at("m4.xlarge"); }

/// A bid low enough to see revocations on every seed we use here.
util::DollarsPerHour tight_bid(const cc::SpotMarket& market) {
  return util::DollarsPerHour{market.mean_price("m4.xlarge") * 1.1};
}

core::InterruptionModel fit(std::uint64_t seed, double multiplier = 1.1) {
  cc::SpotMarket market(cc::Catalog::aws(), seed);
  return core::fit_interruption_model(
      market, m4(), util::DollarsPerHour{market.mean_price("m4.xlarge") * multiplier});
}

}  // namespace

// -------------------------------------------------------------- market

TEST(SpotTrace, PricesStayPositive) {
  cc::SpotMarket market(cc::Catalog::aws(), 11);
  for (double t = 0.0; t < util::days(3.0).value(); t += 150.0) {
    EXPECT_GT(market.price_at("m4.xlarge", t), 0.0) << "t=" << t;
  }
}

TEST(SpotTrace, CostIsAdditiveOverAdjacentWindows) {
  cc::SpotMarket market(cc::Catalog::aws(), 12);
  // Split points chosen off the 300 s step grid on purpose.
  const double t0 = 130.0, t1 = 7777.0, t2 = 20011.0;
  const double whole = market.cost("m4.xlarge", t0, t2).value();
  const double split =
      market.cost("m4.xlarge", t0, t1).value() + market.cost("m4.xlarge", t1, t2).value();
  EXPECT_NEAR(whole, split, 1e-9 * std::max(1.0, whole));
}

TEST(SpotTrace, RevocationImpliesPriceAboveBid) {
  cc::SpotMarket market(cc::Catalog::aws(), 13);
  const double bid = tight_bid(market).value();
  const auto held = market.held_windows("m4.xlarge", bid, 0.0, util::days(2.0).value());
  ASSERT_GT(held.size(), 1u);
  for (std::size_t i = 0; i + 1 < held.size(); ++i) {
    ASSERT_TRUE(held[i].revoked);
    EXPECT_GT(market.price_at("m4.xlarge", held[i].end), bid);
    EXPECT_LE(market.price_at("m4.xlarge", held[i + 1].start), bid);
    EXPECT_GT(held[i + 1].start, held[i].end);
  }
}

// ------------------------------------------------- interruption fitting

TEST(InterruptionFit, TightBidSeesRevocations) {
  const core::InterruptionModel model = fit(21);
  EXPECT_GT(model.revocations, 0);
  EXPECT_GT(model.hazard, 0.0);
  EXPECT_GT(model.mean_uptime.value(), 0.0);
  EXPECT_GT(model.mean_outage.value(), 0.0);
  EXPECT_FALSE(model.always_available());
  // Held price can never exceed the bid, which sits well below on-demand.
  EXPECT_LT(model.held_price_ratio, 1.0);
  EXPECT_GT(model.held_price_ratio, 0.0);
}

TEST(InterruptionFit, GenerousBidIsAlwaysAvailable) {
  const core::InterruptionModel model = fit(21, /*multiplier=*/50.0);
  EXPECT_EQ(model.revocations, 0);
  EXPECT_DOUBLE_EQ(model.hazard, 0.0);
  EXPECT_TRUE(model.always_available());
}

TEST(InterruptionFit, DeterministicForSeed) {
  const core::InterruptionModel a = fit(22), b = fit(22);
  EXPECT_EQ(a.revocations, b.revocations);
  EXPECT_DOUBLE_EQ(a.hazard, b.hazard);
  EXPECT_DOUBLE_EQ(a.mean_uptime.value(), b.mean_uptime.value());
  EXPECT_DOUBLE_EQ(a.mean_outage.value(), b.mean_outage.value());
  EXPECT_DOUBLE_EQ(a.held_price_ratio, b.held_price_ratio);
}

// --------------------------------------------------- expected-run math

TEST(ExpectedRun, NoHazardMeansNominalRun) {
  core::InterruptionModel calm;
  calm.type = "m4.xlarge";
  calm.hazard = 0.0;
  core::RevocationRunShape shape;
  shape.work = util::Seconds{3600.0};
  shape.t_iter = util::Seconds{0.5};
  const core::ExpectedRun run = core::expected_run(calm, shape, util::Seconds{600.0});
  ASSERT_TRUE(run.finite);
  EXPECT_DOUBLE_EQ(run.expected_revocations, 0.0);
  EXPECT_DOUBLE_EQ(run.expected_wall.value(), run.expected_busy.value());
  EXPECT_GE(run.expected_busy.value(), shape.work.value());
}

TEST(ExpectedRun, SurvivingStateBeatsRollback) {
  const core::InterruptionModel model = fit(23);
  core::RevocationRunShape all_spot;
  all_spot.work = util::Seconds{4.0 * 3600.0};
  all_spot.t_iter = util::Seconds{0.5};
  all_spot.checkpoint_write = util::Seconds{20.0};
  all_spot.restore_read = util::Seconds{20.0};
  core::RevocationRunShape mixed = all_spot;
  mixed.state_survives = true;
  mixed.checkpoint_write = mixed.restore_read = util::Seconds{0.0};
  const core::ExpectedRun a = core::optimize_checkpoint_cadence(model, all_spot);
  const core::ExpectedRun b = core::optimize_checkpoint_cadence(model, mixed);
  ASSERT_TRUE(a.finite);
  ASSERT_TRUE(b.finite);
  EXPECT_LE(b.expected_busy.value(), a.expected_busy.value());
  // Mixed fleets keep the parameters alive: no checkpoints at all.
  EXPECT_DOUBLE_EQ(b.checkpoint_interval.value(), 0.0);
  EXPECT_DOUBLE_EQ(b.checkpoint_overhead.value(), 0.0);
}

TEST(ExpectedRun, OptimizedCadenceBeatsLegacyFixed600) {
  const core::InterruptionModel model = fit(24);
  ASSERT_GT(model.hazard, 0.0);
  core::RevocationRunShape shape;
  shape.work = util::Seconds{6.0 * 3600.0};
  shape.t_iter = util::Seconds{0.5};
  shape.checkpoint_write = util::Seconds{30.0};
  shape.restore_read = util::Seconds{30.0};
  const core::ExpectedRun best = core::optimize_checkpoint_cadence(model, shape);
  const core::ExpectedRun fixed = core::expected_run(model, shape, util::Seconds{600.0});
  ASSERT_TRUE(best.finite);
  ASSERT_TRUE(fixed.finite);
  EXPECT_LE(best.expected_wall.value(), fixed.expected_wall.value());
  EXPECT_GT(best.checkpoint_interval.value(), 0.0);
}

TEST(ExpectedRun, WallGrowsWithHazard) {
  core::InterruptionModel mild, stormy;
  mild.hazard = 1.0 / (8.0 * 3600.0);
  stormy.hazard = 1.0 / (1.0 * 3600.0);
  mild.mean_outage = stormy.mean_outage = util::Seconds{900.0};
  core::RevocationRunShape shape;
  shape.work = util::Seconds{2.0 * 3600.0};
  shape.t_iter = util::Seconds{0.5};
  shape.checkpoint_write = util::Seconds{15.0};
  shape.restore_read = util::Seconds{15.0};
  const core::ExpectedRun a = core::expected_run(mild, shape, util::Seconds{600.0});
  const core::ExpectedRun b = core::expected_run(stormy, shape, util::Seconds{600.0});
  ASSERT_TRUE(a.finite);
  ASSERT_TRUE(b.finite);
  EXPECT_LT(a.expected_wall.value(), b.expected_wall.value());
  EXPECT_LT(a.expected_revocations, b.expected_revocations);
}

// ------------------------------------------------------------- planner

TEST(SpotPlanner, NeverCostsMoreThanDurable) {
  const auto& w = cd::workload_by_name("cifar10");
  const auto pred = core::Predictor::build(w, m4());
  core::Provisioner prov(pred.model(), pred.loss(), cc::Catalog::aws().provisionable());
  const core::ProvisionGoal goal{util::minutes(90.0), 0.8};
  cc::SpotMarket market(cc::Catalog::aws(), 42);
  const core::SpotProvisionPlan sp = prov.plan_spot(w.sync, goal, market);
  ASSERT_TRUE(sp.feasible);
  ASSERT_TRUE(sp.durable.feasible);
  // The durable Algorithm 1 answer is always a candidate, so the
  // durability-aware winner can only improve on it.
  EXPECT_LE(sp.expected_cost.value(), sp.durable.predicted_cost.value() + 1e-9);
  // And it still meets the deadline in expectation.
  EXPECT_LE(sp.expected_time.value(), goal.time_goal.value() + 1e-9);
}

TEST(SpotPlanner, DeterministicForSeed) {
  const auto& w = cd::workload_by_name("cifar10");
  const auto pred = core::Predictor::build(w, m4());
  core::Provisioner prov(pred.model(), pred.loss(), cc::Catalog::aws().provisionable());
  const core::ProvisionGoal goal{util::minutes(90.0), 0.8};
  cc::SpotMarket market(cc::Catalog::aws(), 43);
  const auto a = prov.plan_spot(w.sync, goal, market);
  const auto b = prov.plan_spot(w.sync, goal, market);
  EXPECT_EQ(a.durability, b.durability);
  EXPECT_EQ(a.plan.type.name, b.plan.type.name);
  EXPECT_EQ(a.plan.n_workers, b.plan.n_workers);
  EXPECT_EQ(a.plan.n_ps, b.plan.n_ps);
  EXPECT_DOUBLE_EQ(a.expected_cost.value(), b.expected_cost.value());
  EXPECT_DOUBLE_EQ(a.expected_time.value(), b.expected_time.value());
  EXPECT_DOUBLE_EQ(a.checkpoint_interval.value(), b.checkpoint_interval.value());
}

TEST(SpotPlanner, InvalidBidThrows) {
  const auto& w = cd::workload_by_name("mnist");
  const auto pred = core::Predictor::build(w, m4());
  core::Provisioner prov(pred.model(), pred.loss(), cc::Catalog::aws().provisionable());
  cc::SpotMarket market;
  core::SpotPlanOptions bad;
  bad.bid_multiplier = 0.0;
  EXPECT_THROW(
      prov.plan_spot(w.sync, core::ProvisionGoal{util::minutes(30.0), 0.05}, market, bad),
      std::invalid_argument);
}

// ------------------------------------------------- executed spot runs
//
// plan_spot answers built by hand, so each case controls the bid and the
// cadence: cifar10 on 2 workers + 1 PS of m4.xlarge for 800 updates (about an
// hour of training) on a market that revokes a tight bid within it.

namespace {

constexpr long kSpotIterations = 800;

core::SpotProvisionPlan spot_answer(const cc::SpotMarket& market,
                                    core::FleetDurability durability, double bid_multiplier,
                                    double checkpoint_seconds = 600.0) {
  core::SpotProvisionPlan a;
  a.feasible = true;
  a.durability = durability;
  a.plan.feasible = true;
  a.plan.type = m4();
  a.plan.n_workers = 2;
  a.plan.n_ps = 1;
  a.plan.iterations = a.plan.total_iterations = kSpotIterations;
  a.plan.t_iter = 4.1;  // cifar10 on 2 m4.xlarge workers
  a.plan.predicted_time = util::Seconds{a.plan.t_iter * kSpotIterations};
  a.plan.predicted_cost = core::plan_cost(m4(), 2, 1, a.plan.predicted_time);
  a.bid = util::DollarsPerHour{market.mean_price("m4.xlarge") * bid_multiplier};
  a.checkpoint_interval = util::Seconds{checkpoint_seconds};
  a.expected_cost = a.plan.predicted_cost;
  return a;
}

const core::ProvisionGoal kSpotGoal{util::hours(12.0), 1e9};

/// cifar10 on the answer's plan; `policy` defaults to running it durable.
orch::JobSpec spot_job(const core::SpotProvisionPlan& answer, orch::JobPolicy policy = {}) {
  orch::JobSpec spec{cd::workload_by_name("cifar10"), answer.plan, kSpotGoal, {},
                     std::move(policy)};
  spec.seed = 7;
  return spec;
}

orch::JobRun run_spot(const cc::SpotMarket& market, const core::SpotProvisionPlan& answer,
                      ct::Telemetry* tel = nullptr) {
  orch::JobSpec spec = spot_job(answer, orch::Spot{market, answer});
  spec.training.telemetry = tel;
  return orch::execute_job(spec);
}

/// Revocations a run lived through: each one crashes every spot node.
long revocations(const orch::JobRun& run, const core::SpotProvisionPlan& answer) {
  const bool all_spot = answer.durability == core::FleetDurability::kAllSpot;
  const int spot_nodes = answer.plan.n_workers + (all_spot ? answer.plan.n_ps : 0);
  return run.training.faults.crashes / spot_nodes;
}

}  // namespace

TEST(SpotRunner, CompletesAndUndercutsOnDemand) {
  cc::SpotMarket market(cc::Catalog::aws(), 11);
  const auto answer = spot_answer(market, core::FleetDurability::kAllSpot, 1.8);
  const auto r = run_spot(market, answer);
  EXPECT_EQ(r.training.iterations, kSpotIterations);
  EXPECT_FALSE(r.training.stopped_early);
  EXPECT_TRUE(r.time_goal_met);
  EXPECT_GT(r.actual_cost.value(), 0.0);
  const auto durable = orch::execute_job(spot_job(answer));
  EXPECT_LT(r.actual_cost.value(), durable.actual_cost.value())
      << "spot must undercut the durable run of the same plan";
  // A durable answer has no spot tier: under the Spot policy it runs as
  // repair-in-place.
  auto durable_answer = answer;
  durable_answer.durability = core::FleetDurability::kDurable;
  const auto as_durable = orch::execute_job(spot_job(answer, orch::Spot{market, durable_answer}));
  EXPECT_EQ(as_durable.training.total_time, durable.training.total_time);
  EXPECT_EQ(as_durable.actual_cost.value(), durable.actual_cost.value());
}

TEST(SpotRunner, LowBidMeansMoreRevocationsAndWall) {
  cc::SpotMarket market(cc::Catalog::aws(), 11);
  const auto tight = spot_answer(market, core::FleetDurability::kAllSpot, 1.05);
  const auto generous = spot_answer(market, core::FleetDurability::kAllSpot, 2.6);
  const auto a = run_spot(market, tight);
  const auto b = run_spot(market, generous);
  ASSERT_EQ(a.training.iterations, kSpotIterations);
  ASSERT_EQ(b.training.iterations, kSpotIterations);
  EXPECT_GT(revocations(a, tight), 0);
  EXPECT_GE(revocations(a, tight), revocations(b, generous));
  EXPECT_GE(a.training.total_time, b.training.total_time);
}

TEST(SpotRunner, RarerCheckpointsRollBackMore) {
  cc::SpotMarket market(cc::Catalog::aws(), 11);
  const auto frequent = spot_answer(market, core::FleetDurability::kAllSpot, 1.1, 120.0);
  const auto rare = spot_answer(market, core::FleetDurability::kAllSpot, 1.1, 3600.0);
  const auto f = run_spot(market, frequent);
  const auto r = run_spot(market, rare);
  ASSERT_EQ(f.training.iterations, kSpotIterations);
  ASSERT_EQ(r.training.iterations, kSpotIterations);
  ASSERT_GT(revocations(f, frequent), 0) << "the tight bid must be revoked";
  EXPECT_GE(r.training.faults.lost_iterations, f.training.faults.lost_iterations);
  EXPECT_GT(r.training.faults.lost_iterations, 0);
}

TEST(MixedFleet, SurvivesRevocationsAndUndercutsOnDemand) {
  cc::SpotMarket market(cc::Catalog::aws(), 11);
  const auto answer = spot_answer(market, core::FleetDurability::kMixed, 1.1);
  const auto r = run_spot(market, answer);
  ASSERT_EQ(r.training.iterations, kSpotIterations);
  EXPECT_GT(revocations(r, answer), 0);
  // The on-demand PS tier keeps the parameters: workers rejoin live.
  EXPECT_EQ(r.training.faults.lost_iterations, 0);
  for (const cd::FaultEventOutcome& e : r.training.faults.events) {
    EXPECT_FALSE(e.spec.on_ps) << "a mixed fleet's PS tier is never revoked";
  }
  const auto durable = orch::execute_job(spot_job(answer));
  EXPECT_LT(r.actual_cost.value(), durable.actual_cost.value());
}

TEST(SpotRunner, FullHoldWindowIsBilled) {
  cc::SpotMarket market(cc::Catalog::aws(), 11);
  const auto answer = spot_answer(market, core::FleetDurability::kAllSpot, 1.05);
  const auto r = run_spot(market, answer);
  const long revoked = revocations(r, answer);
  ASSERT_GT(revoked, 0);
  // The bill integrates the price over every held window from launch to the
  // end of the job: all three dockers pay their slot share of the instance.
  const double bid = answer.bid.value();
  const double launch = market.held_windows("m4.xlarge", bid, 0.0, 86400.0).front().start;
  const double end = launch + r.provisioning.value() + r.training.total_time;
  double held = 0.0;
  double instance_dollars = 0.0;
  for (const cc::HeldWindow& w : market.held_windows("m4.xlarge", bid, launch, end)) {
    held += w.end - w.start;
    instance_dollars += market.cost("m4.xlarge", w.start, w.end).value();
  }
  EXPECT_NEAR(r.actual_cost.value(), instance_dollars / m4().physical_cores * 3,
              1e-12);
  // Held time covers provisioning, training and, per revocation, the restart
  // delay and the restore read: nothing the tier holds rides free.
  double trainer_outage = 0.0;
  for (const cd::FaultEventOutcome& e : r.training.faults.events) {
    if (e.fired && e.spec.on_ps) trainer_outage += e.recovered_at - e.injected_at;
  }
  const double restart = core::kRestartDelay.value() + r.restore.value();
  EXPECT_NEAR(held,
              r.provisioning.value() + r.training.total_time - trainer_outage +
                  static_cast<double>(revoked) * restart,
              1e-6);
}

TEST(SpotRestore, RevocationsChargeCheckpointReadTime) {
  // Same market, bid and deployment: the all-spot tier's outages are the
  // mixed tier's plus exactly one checkpoint read each.
  cc::SpotMarket market(cc::Catalog::aws(), 11);
  const auto all_spot = run_spot(market, spot_answer(market, core::FleetDurability::kAllSpot, 1.1));
  const auto mixed = run_spot(market, spot_answer(market, core::FleetDurability::kMixed, 1.1));
  const auto& a = all_spot.training.faults.events;
  const auto& m = mixed.training.faults.events;
  ASSERT_FALSE(m.empty());
  ASSERT_EQ(a.size(), m.size() / 2 * 3) << "same revocations, one more node each";
  for (std::size_t i = 0; i < m.size() / 2; ++i) {
    EXPECT_DOUBLE_EQ(a[3 * i].spec.time_seconds, m[2 * i].spec.time_seconds);
    EXPECT_NEAR(a[3 * i].spec.recovery_seconds - m[2 * i].spec.recovery_seconds,
                all_spot.restore.value(), 1e-9);
  }
}

TEST(MixedFleet, BitIdenticalAcrossRepeats) {
  cc::SpotMarket market(cc::Catalog::aws(), 11);
  for (const auto durability : {core::FleetDurability::kMixed, core::FleetDurability::kAllSpot}) {
    const auto answer = spot_answer(market, durability, 1.1);
    ct::Telemetry tel_a, tel_b;
    const auto a = run_spot(market, answer, &tel_a);
    const auto b = run_spot(market, answer, &tel_b);
    EXPECT_EQ(tel_a.journal.digest(), tel_b.journal.digest()) << core::to_string(durability);
    EXPECT_EQ(a.actual_cost.value(), b.actual_cost.value());
    EXPECT_EQ(a.training.total_time, b.training.total_time);
    EXPECT_GT(revocations(a, answer), 0);
  }
}

TEST(SpotRunner, AccountingIsCoherent) {
  cc::SpotMarket market(cc::Catalog::aws(), 11);
  for (const auto durability : {core::FleetDurability::kMixed, core::FleetDurability::kAllSpot}) {
    ct::Telemetry tel;
    const auto r = run_spot(market, spot_answer(market, durability, 1.1), &tel);
    // One billing delta per tier, folding to the run's cost bit for bit.
    const ct::CostLedger ledger = ct::CostLedger::from(tel.journal);
    EXPECT_EQ(ledger.entries().size(), durability == core::FleetDurability::kMixed ? 2u : 1u);
    EXPECT_EQ(ledger.total().value(), r.actual_cost.value())
        << core::to_string(durability);
  }
}

TEST(SpotRunner, InvalidArgumentsThrow) {
  cc::SpotMarket market(cc::Catalog::aws(), 11);
  const auto answer = spot_answer(market, core::FleetDurability::kAllSpot, 1.6);
  // Revocations are a spot run's only faults and recoveries.
  orch::JobSpec faulted = spot_job(answer, orch::Spot{market, answer});
  faulted.faults = cf::FaultSchedule::parse("crash:wk0@10");
  EXPECT_THROW(orch::execute_job(faulted), std::invalid_argument);
  // The cadence divides by the predicted time per update.
  auto unpredicted = answer;
  unpredicted.plan.predicted_time = util::Seconds{0.0};
  EXPECT_THROW(run_spot(market, unpredicted), std::invalid_argument);
  // A bid below the market never launches.
  auto underbid = answer;
  underbid.bid = util::DollarsPerHour{1e-6};
  EXPECT_THROW(run_spot(market, underbid), std::invalid_argument);
}
