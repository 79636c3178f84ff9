// Extension bench: SLO survival under faults (src/faults + the job executor's
// repair-in-place policy).
//
// Subjects two calibrated plans — mnist (BSP, communication-bound) and
// resnet32 (ASP, compute-bound) — to generated Poisson fault schedules of
// increasing intensity (crashes : slowdowns : NIC degradations at 2:1:1)
// and reports, per fault rate across three seeds, the SLO-miss rate and the
// extra wall time / extra dollars the recovery pipeline cost relative to
// the fault-free execution of the same plan. Crashes are healed in place
// through the kubeadm-join replacement lifecycle (detection + provisioning
// + checkpoint restore), exactly as orch::execute_job does in production.
#include <cstdio>
#include <iostream>
#include <vector>

#include "cloud/instance.hpp"
#include "common.hpp"
#include "ddnn/trainer.hpp"
#include "ddnn/workload.hpp"
#include "faults/fault_spec.hpp"
#include "orchestrator/executor.hpp"
#include "util/table.hpp"

using namespace cynthia;

namespace {

struct Scenario {
  const char* workload;
  int n_workers;
  int n_ps;
  long iterations;
};

core::ProvisionPlan manual_plan(const Scenario& s) {
  core::ProvisionPlan plan;
  plan.feasible = true;
  plan.type = bench::m4();
  plan.n_workers = s.n_workers;
  plan.n_ps = s.n_ps;
  plan.iterations = s.iterations;
  plan.total_iterations = s.iterations;
  return plan;
}

}  // namespace

int main() {
  std::puts("=== Extension: SLO-miss rate and extra cost vs fault rate ===");
  util::CsvWriter csv(bench::out_dir() + "/ext_faults.csv");
  csv.header({"workload", "fault_rate_per_h", "runs", "slo_miss_pct", "crashes_mean",
              "extra_time_s_mean", "extra_cost_usd_mean"});

  const std::vector<Scenario> scenarios = {
      {"mnist", 4, 1, 10000},    // BSP, ~3 simulated minutes fault-free
      {"resnet32", 4, 1, 150},   // ASP, ~12 simulated minutes fault-free
  };
  const std::vector<double> rates_per_hour = {0.0, 4.0, 8.0, 16.0};
  const std::vector<std::uint64_t> seeds = {1, 2, 3};

  for (const Scenario& s : scenarios) {
    const auto& w = ddnn::workload_by_name(s.workload);
    const core::ProvisionPlan plan = manual_plan(s);

    // Fault-free reference execution of the same plan, same pipeline: its
    // time anchors the SLO (25% headroom) and its bill anchors extra cost.
    orch::JobSpec spec{w, plan, {util::Seconds{1e9}, 1e9}};
    spec.seed = 7;
    const auto baseline = orch::execute_job(spec);
    const double base_time = baseline.training.total_time;
    const double base_cost = baseline.actual_cost.value();
    const core::ProvisionGoal goal{util::Seconds{base_time * 1.25},
                                   baseline.achieved_loss * 1.02};
    spec.goal = goal;
    std::printf("\n%s: fault-free %.0f s, $%.4f -> SLO Tg = %.0f s, lg = %.3f\n", s.workload,
                base_time, base_cost, goal.time_goal.value(), goal.target_loss);

    util::Table t(std::string(s.workload) + ": faults vs SLO (3 seeds per rate)");
    t.header({"faults/h", "SLO miss", "crashes", "extra time (s)", "extra cost ($)"});
    for (double rate : rates_per_hour) {
      faults::FaultRates classes;
      classes.crash_per_hour = rate / 2.0;
      classes.slowdown_per_hour = rate / 4.0;
      classes.nic_per_hour = rate / 4.0;

      int misses = 0;
      double crashes = 0.0;
      double extra_time = 0.0;
      double extra_cost = 0.0;
      for (std::uint64_t seed : seeds) {
        // The horizon covers the SLO window: faults past Tg cannot hit a
        // run that still meets the goal.
        spec.faults = faults::FaultSchedule::generate(classes, goal.time_goal.value(),
                                                      s.n_workers, s.n_ps, seed);
        const auto report = orch::execute_job(spec);
        if (!report.time_goal_met || !report.loss_goal_met) ++misses;
        crashes += static_cast<double>(report.training.faults.crashes);
        extra_time += report.training.total_time - base_time;
        extra_cost += report.actual_cost.value() - base_cost;
      }
      const double runs = static_cast<double>(seeds.size());
      const double miss_pct = 100.0 * misses / runs;
      t.row({util::Table::num(rate, 0), util::Table::pct(miss_pct),
             util::Table::num(crashes / runs, 2), util::Table::num(extra_time / runs, 1),
             util::Table::num(extra_cost / runs, 4)});
      csv.row({s.workload, util::Table::num(rate, 1), util::Table::num(runs, 0),
               util::Table::num(miss_pct, 1), util::Table::num(crashes / runs, 2),
               util::Table::num(extra_time / runs, 2),
               util::Table::num(extra_cost / runs, 5)});
    }
    t.print(std::cout);
  }
  std::printf("\n[csv] %s/ext_faults.csv\n", bench::out_dir().c_str());
  return 0;
}
