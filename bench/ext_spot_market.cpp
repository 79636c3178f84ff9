// Extension bench: revocation-aware provisioning on the spot market (the
// Proteus [13] / FC2 [27] direction the paper cites as complementary).
//
// Two parts, every run on the orchestrator's job executor (orch::execute_job):
//  1. The original Fig. 11 study — the cifar10 plan (90-minute goal, loss
//     0.8) executed all-spot across bid multipliers and checkpoint
//     cadences (cost vs. the durable run, revocations, rolled-back updates,
//     wall clock).
//  2. The perf-trajectory study — core::Provisioner::plan_spot priced
//     against durable-only Algorithm 1 across 3 revocation regimes
//     (calm / base / stormy markets) x 3 seeds, and each answer executed.
//     Emitted as BENCH_spot.json so CI gates the expected-cost savings (the
//     spot_plan_cost_speedup_* scalars are floors) with zero expected-
//     deadline misses; the bench itself fails when an executed answer
//     misses Tg or realizes a cost more than 10% off its expectation.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "cloud/spot.hpp"
#include "common.hpp"
#include "core/predictor.hpp"
#include "core/provisioner.hpp"
#include "core/revocation.hpp"
#include "orchestrator/executor.hpp"
#include "perf_common.hpp"

using namespace cynthia;

namespace {

struct Regime {
  const char* name;
  cloud::SpotTraceOptions trace;
};

std::vector<Regime> regimes() {
  cloud::SpotTraceOptions calm;
  calm.volatility = 0.05;
  calm.spike_probability = 0.003;
  cloud::SpotTraceOptions base;  // the stock market model
  cloud::SpotTraceOptions stormy;
  stormy.volatility = 0.12;
  stormy.spike_probability = 0.03;
  return {{"calm", calm}, {"base", base}, {"stormy", stormy}};
}

/// The durable plan run all-spot at `bid_multiplier` x the mean spot price,
/// checkpointing every `checkpoint_seconds`.
core::SpotProvisionPlan all_spot(const core::ProvisionPlan& plan, const cloud::SpotMarket& market,
                                 double bid_multiplier, double checkpoint_seconds) {
  core::SpotProvisionPlan answer;
  answer.feasible = true;
  answer.durability = core::FleetDurability::kAllSpot;
  answer.plan = plan;
  answer.bid = util::DollarsPerHour{market.mean_price(plan.type.name) * bid_multiplier};
  answer.checkpoint_interval = util::Seconds{checkpoint_seconds};
  answer.expected_cost = plan.predicted_cost;
  return answer;
}

/// Revocations a run lived through: each one crashes every spot node.
long revocations(const orch::JobRun& run, const core::SpotProvisionPlan& answer) {
  const bool all_spot = answer.durability == core::FleetDurability::kAllSpot;
  const int spot_nodes = answer.plan.n_workers + (all_spot ? answer.plan.n_ps : 0);
  return run.training.faults.crashes / std::max(1, spot_nodes);
}

/// plan_spot's `answer` executed on `market` (a durable answer runs on
/// demand).
orch::JobRun run_spot(const cloud::SpotMarket& market, const ddnn::WorkloadSpec& w,
                      const core::SpotProvisionPlan& answer, const core::ProvisionGoal& goal) {
  return orch::execute_job({w, answer.plan, goal, {}, orch::Spot{market, answer}});
}

}  // namespace

int main() {
  std::puts("=== Extension: revocation-aware provisioning on the spot market ===");
  util::CsvWriter csv(bench::out_dir() + "/ext_spot_market.csv");
  csv.header({"regime", "seed", "fleet", "type", "workers", "ps", "ckpt_s", "expected_cost_usd",
              "durable_cost_usd", "saving_pct", "expected_s", "expected_revocations",
              "realized_cost_usd", "wall_s", "revocations"});

  // The Fig. 11 plan, and the planner it came from.
  const auto& w = ddnn::workload_by_name("cifar10");
  const auto pred = core::Predictor::build(w, bench::m4());
  core::Provisioner prov(pred.model(), pred.loss(), cloud::Catalog::aws().provisionable());
  const core::ProvisionGoal goal{util::minutes(90), 0.8};
  const auto plan = prov.plan(w.sync, goal);
  if (!plan.feasible) {
    std::puts("plan infeasible — calibration drifted");
    return 1;
  }
  std::printf("durable plan under test: %s\n\n", plan.describe().c_str());

  // ---- Part 1: the classic all-spot execution study (unchanged scope).
  const double tg = goal.time_goal.value();
  const double durable_cost = orch::execute_job({w, plan, goal}).actual_cost.value();
  cloud::SpotMarket market(cloud::Catalog::aws(), 42);
  util::Table t("All-spot execution of the plan (checkpoint every 600 s)");
  t.header({"bid (x mean)", "cost ($)", "vs durable", "revocations", "rolled back",
            "wall (s)", "deadline 5400 s"});
  for (double bid : {1.05, 1.2, 1.6, 2.4}) {
    const core::SpotProvisionPlan answer = all_spot(plan, market, bid, 600.0);
    const orch::JobRun r = run_spot(market, w, answer, goal);
    const double cost = r.actual_cost.value();
    const double wall = r.training.total_time;
    t.row({util::Table::num(bid, 2), util::Table::num(cost, 2),
           "-" + util::Table::pct(100.0 * (1.0 - cost / durable_cost)),
           std::to_string(revocations(r, answer)),
           std::to_string(r.training.faults.lost_iterations), util::Table::num(wall, 0),
           wall <= tg ? "met" : "MISSED"});
  }
  t.print(std::cout);

  util::Table c("Checkpoint cadence at a risky bid (1.1x mean)");
  c.header({"checkpoint every", "revocations", "rolled back", "wall (s)", "cost ($)"});
  for (double interval : {60.0, 300.0, 1200.0, 3600.0}) {
    const core::SpotProvisionPlan answer = all_spot(plan, market, 1.1, interval);
    const orch::JobRun r = run_spot(market, w, answer, goal);
    c.row({util::Table::num(interval, 0) + " s", std::to_string(revocations(r, answer)),
           std::to_string(r.training.faults.lost_iterations),
           util::Table::num(r.training.total_time, 0),
           util::Table::num(r.actual_cost.value(), 2)});
  }
  c.print(std::cout);

  // ---- Part 2: spot planning across regimes/seeds, each answer executed.
  bench::perf::BenchReport report("spot");
  util::Table p("plan_spot vs durable-only across revocation regimes (3 seeds each)");
  p.header({"regime", "seed", "winner", "E[cost] ($)", "durable ($)", "saving", "E[rev]",
            "ckpt (s)", "realized ($)", "real/E", "rev", "wall/Tg"});
  int regimes_with_savings = 0;
  int slo_misses = 0;
  double cost_error_max = 0.0;
  double wall_over_tg_max = 0.0;
  for (const Regime& regime : regimes()) {
    bench::perf::Samples expected_cost, durable_cost, realized_cost;
    double expected_sum = 0.0, durable_sum = 0.0;
    for (std::uint64_t seed : {42ull, 43ull, 44ull}) {
      cloud::SpotMarket m(cloud::Catalog::aws(), seed, regime.trace);
      const core::SpotProvisionPlan sp = prov.plan_spot(w.sync, goal, m);
      if (!sp.feasible) {
        std::printf("plan_spot infeasible under regime %s seed %llu\n", regime.name,
                    static_cast<unsigned long long>(seed));
        return 1;
      }
      if (sp.expected_time.value() > goal.time_goal.value() + 1e-9) ++slo_misses;
      expected_cost.add(sp.expected_cost.value());
      durable_cost.add(sp.durable.predicted_cost.value());
      expected_sum += sp.expected_cost.value();
      durable_sum += sp.durable.predicted_cost.value();
      const double saving =
          100.0 * (1.0 - sp.expected_cost.value() / sp.durable.predicted_cost.value());
      const orch::JobRun r = run_spot(m, w, sp, goal);
      const double realized = r.actual_cost.value();
      const double wall = r.training.total_time;
      realized_cost.add(realized);
      cost_error_max =
          std::max(cost_error_max, std::abs(realized / sp.expected_cost.value() - 1.0));
      wall_over_tg_max = std::max(wall_over_tg_max, wall / tg);
      p.row({regime.name, std::to_string(seed), core::to_string(sp.durability),
             util::Table::num(sp.expected_cost.value(), 2),
             util::Table::num(sp.durable.predicted_cost.value(), 2),
             util::Table::pct(saving), util::Table::num(sp.expected_revocations, 2),
             sp.checkpoint_interval.value() > 0.0
                 ? util::Table::num(sp.checkpoint_interval.value(), 0)
                 : "-",
             util::Table::num(realized, 2),
             util::Table::num(realized / sp.expected_cost.value(), 3),
             std::to_string(revocations(r, sp)), util::Table::num(wall / tg, 3)});
      csv.row({regime.name, std::to_string(seed), core::to_string(sp.durability),
               sp.plan.type.name, std::to_string(sp.plan.n_workers),
               std::to_string(sp.plan.n_ps),
               util::Table::num(sp.checkpoint_interval.value(), 0),
               util::Table::num(sp.expected_cost.value(), 4),
               util::Table::num(sp.durable.predicted_cost.value(), 4),
               util::Table::num(saving, 1), util::Table::num(sp.expected_time.value(), 1),
               util::Table::num(sp.expected_revocations, 3), util::Table::num(realized, 4),
               util::Table::num(wall, 1), std::to_string(revocations(r, sp))});
    }
    if (expected_sum < durable_sum) ++regimes_with_savings;
    const std::string prefix = std::string("expected_cost_") + regime.name;
    report.add_series(prefix + "_usd", "usd", expected_cost);
    report.add_series(std::string("durable_cost_") + regime.name + "_usd", "usd",
                      durable_cost);
    report.add_series(std::string("realized_cost_") + regime.name + "_usd", "usd",
                      realized_cost);
    report.add_scalar(std::string("spot_plan_cost_speedup_") + regime.name,
                      expected_sum > 0.0 ? durable_sum / expected_sum : 0.0);
  }
  p.print(std::cout);
  report.add_scalar("regimes_with_savings", regimes_with_savings);
  report.add_scalar("expected_slo_misses", slo_misses);
  report.add_scalar("realized_cost_error_max", cost_error_max);
  report.add_scalar("executed_wall_over_tg_max", wall_over_tg_max);
  report.write();

  std::puts("");
  std::puts("Spot capacity cuts the bill ~55-70% but converts the hard deadline");
  std::puts("into a distribution; the expected-cost planner folds the fitted");
  std::puts("revocation process (hazard, outages, rollback loss) into Algorithm 1");
  std::puts("so the cheaper fleet is only chosen when it still meets Tg in");
  std::puts("expectation; executing each answer checks that expectation against");
  std::puts("the realized bill and wall clock (docs/SPOT.md).");
  std::printf("[csv] %s/ext_spot_market.csv\n\n", bench::out_dir().c_str());

  // The acceptance bar: savings in at least 2 of 3 regimes, no expected
  // deadline misses, and every executed answer within 10% of its expected
  // cost and inside Tg. Fail loudly so CI catches a regressed planner.
  if (regimes_with_savings < 2 || slo_misses > 0 || cost_error_max > 0.10 ||
      wall_over_tg_max > 1.0) {
    std::printf("FAIL: savings in %d/3 regimes, %d expected SLO miss(es), realized cost "
                "off by up to %.3f, executed wall up to %.3f x Tg\n",
                regimes_with_savings, slo_misses, cost_error_max, wall_over_tg_max);
    return 1;
  }
  return 0;
}
