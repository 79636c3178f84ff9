// Extension bench: SLO survival under stragglers, with and without the
// online sentinel (orchestrator/sentinel.hpp).
//
// Subjects three calibrated plans — cifar10 (BSP, compute-bound), mnist
// (BSP, communication-bound) and resnet32 (ASP, compute-bound) — to
// generated slow/NIC-degradation schedules of increasing intensity (no crashes: that axis is bench/ext_faults), with
// degradations that do NOT heal on their own. Each (rate, seed) cell runs
// twice: sentinel disabled (the faults silently stretch the run) and
// sentinel enabled under the auto policy (blacklist-and-replace, add-PS,
// SSP downgrade). Reported per rate across three seeds: SLO-miss rate,
// detections/mitigations, and the extra wall time / extra dollars relative
// to the fault-free execution of the same plan. The acceptance bar for this
// subsystem is the enabled column strictly beating the disabled column.
#include <cstdio>
#include <iostream>
#include <string>
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

struct CellStats {
  int misses = 0;
  double detections = 0.0;
  double mitigations = 0.0;
  double extra_time = 0.0;
  double extra_cost = 0.0;
};

}  // namespace

int main() {
  std::puts("=== Extension: straggler SLO-miss rate, sentinel on vs off ===");
  util::CsvWriter csv(bench::out_dir() + "/ext_stragglers.csv");
  csv.header({"workload", "fault_rate_per_h", "sentinel", "runs", "slo_miss_pct",
              "detections_mean", "mitigations_mean", "extra_time_s_mean",
              "extra_cost_usd_mean"});

  const std::vector<Scenario> scenarios = {
      {"cifar10", 4, 1, 400},    // BSP compute-bound, ~14 simulated min fault-free
      {"mnist", 4, 1, 40000},    // BSP communication-bound, ~10 simulated min
      {"resnet32", 4, 1, 150},   // ASP compute-bound, ~8 simulated min
  };
  const std::vector<double> rates_per_hour = {4.0, 8.0, 16.0};
  const std::vector<std::uint64_t> seeds = {1, 2, 3};

  bool sentinel_strictly_better = true;
  for (const Scenario& s : scenarios) {
    const auto& w = ddnn::workload_by_name(s.workload);
    const core::ProvisionPlan plan = manual_plan(s);

    // Fault-free reference through the same pipeline (sentinel attached but
    // with nothing to detect): its time anchors the SLO and its bill
    // anchors extra cost.
    orch::JobSpec probe{w, plan, {util::Seconds{1e9}, 1e9}, {}, orch::Sentinel{}};
    probe.seed = 7;
    const auto baseline = orch::execute_job(probe);
    const double base_time = baseline.training.total_time;
    const double base_cost = baseline.actual_cost.value();
    const core::ProvisionGoal goal{util::Seconds{base_time * 1.3},
                                   baseline.achieved_loss * 1.02};
    std::printf("\n%s: fault-free %.0f s, $%.4f -> SLO Tg = %.0f s, lg = %.3f\n",
                s.workload, base_time, base_cost, goal.time_goal.value(), goal.target_loss);

    util::Table t(std::string(s.workload) +
                  ": stragglers vs SLO, sentinel on/off (3 seeds per rate)");
    t.header({"faults/h", "miss (off)", "miss (on)", "detect", "mitigate",
              "extra time on/off (s)", "extra cost on/off ($)"});
    for (double rate : rates_per_hour) {
      faults::FaultRates classes;
      classes.crash_per_hour = 0.0;
      classes.slowdown_per_hour = rate / 2.0;
      classes.nic_per_hour = rate / 2.0;
      classes.blip_per_hour = 0.0;
      classes.degradation_recovery_seconds = -1.0;  // degradations stay down

      CellStats on, off;
      for (std::uint64_t seed : seeds) {
        const auto schedule = faults::FaultSchedule::generate(
            classes, goal.time_goal.value(), s.n_workers, s.n_ps, seed);
        for (const bool enabled : {false, true}) {
          orch::JobSpec spec{w, plan, goal, schedule};
          if (enabled) spec.policy = orch::Sentinel{};
          spec.seed = seed;
          const auto report = orch::execute_job(spec);
          CellStats& cell = enabled ? on : off;
          if (!report.time_goal_met || !report.loss_goal_met) ++cell.misses;
          cell.detections += static_cast<double>(report.detections.size());
          cell.mitigations += static_cast<double>(report.mitigations.size());
          cell.extra_time += report.training.total_time - base_time;
          cell.extra_cost += report.actual_cost.value() - base_cost;
        }
      }
      const double runs = static_cast<double>(seeds.size());
      const double miss_on = 100.0 * on.misses / runs;
      const double miss_off = 100.0 * off.misses / runs;
      if (miss_on >= miss_off && miss_off > 0.0) sentinel_strictly_better = false;
      t.row({util::Table::num(rate, 0), util::Table::pct(miss_off),
             util::Table::pct(miss_on), util::Table::num(on.detections / runs, 1),
             util::Table::num(on.mitigations / runs, 1),
             util::Table::num(on.extra_time / runs, 0) + " / " +
                 util::Table::num(off.extra_time / runs, 0),
             util::Table::num(on.extra_cost / runs, 4) + " / " +
                 util::Table::num(off.extra_cost / runs, 4)});
      for (const bool enabled : {false, true}) {
        const CellStats& cell = enabled ? on : off;
        csv.row({s.workload, util::Table::num(rate, 1), enabled ? "on" : "off",
                 util::Table::num(runs, 0),
                 util::Table::num(100.0 * cell.misses / runs, 1),
                 util::Table::num(cell.detections / runs, 2),
                 util::Table::num(cell.mitigations / runs, 2),
                 util::Table::num(cell.extra_time / runs, 2),
                 util::Table::num(cell.extra_cost / runs, 5)});
      }
    }
    t.print(std::cout);
  }
  std::printf("\nsentinel strictly reduces the miss rate where faults bite: %s\n",
              sentinel_strictly_better ? "yes" : "NO");
  std::printf("[csv] %s/ext_stragglers.csv\n", bench::out_dir().c_str());
  return 0;
}
