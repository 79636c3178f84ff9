// Equivalence suite for component-scoped (incremental) fluid reallocation.
//
// Max-min fairness decomposes exactly over connected components of the
// job/resource bipartite graph, so re-water-filling only the component
// touched by an event must reproduce the global solve bit-for-bit — same
// rates, same used_rate bookkeeping, same completion times, in every event
// order. These tests drive identical scripts through an incremental and a
// global FluidSystem side by side and compare with exact floating-point
// equality (no tolerances).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ddnn/trainer.hpp"
#include "ddnn/workload.hpp"
#include "sim/fluid.hpp"
#include "sim/simulator.hpp"

namespace cs = cynthia::sim;
namespace cd = cynthia::ddnn;
namespace cc = cynthia::cloud;

namespace {

/// One simulator + fluid system + the PS-training resource shape used by
/// the churn scripts: per-worker CPU and NIC, one shared PS NIC.
struct Rig {
  cs::Simulator sim;
  cs::FluidSystem fluid{sim};
  cs::ResourceId ps_nic = 0;
  std::vector<cs::ResourceId> wk_cpu, wk_nic;
  std::vector<double> completions;

  explicit Rig(bool incremental, int n_workers) {
    fluid.set_incremental(incremental);
    ps_nic = fluid.add_resource("ps.nic", 120.0);
    for (int w = 0; w < n_workers; ++w) {
      wk_cpu.push_back(fluid.add_resource("wk" + std::to_string(w) + ".cpu", 8.8));
      wk_nic.push_back(fluid.add_resource("wk" + std::to_string(w) + ".nic", 125.0));
    }
  }
};

void expect_same_resource_state(Rig& a, Rig& b) {
  ASSERT_EQ(a.fluid.resource_used(a.ps_nic), b.fluid.resource_used(b.ps_nic));
  for (std::size_t w = 0; w < a.wk_cpu.size(); ++w) {
    ASSERT_EQ(a.fluid.resource_used(a.wk_cpu[w]), b.fluid.resource_used(b.wk_cpu[w]))
        << "wk_cpu " << w;
    ASSERT_EQ(a.fluid.resource_used(a.wk_nic[w]), b.fluid.resource_used(b.wk_nic[w]))
        << "wk_nic " << w;
  }
}

/// Worker `w` cycles compute -> push for `rounds` rounds, recording every
/// completion time. Mirrors bench/perf_fluid.cpp's churn shape.
void start_cycle(Rig& rig, int w, int round, int rounds) {
  if (round >= rounds) return;
  const double compute_volume = 40.0 + 0.37 * w;
  const double push_volume = 65.0 + 0.53 * w;
  rig.fluid.start_job(compute_volume, {rig.wk_cpu[w]},
                      [&rig, w, round, rounds, push_volume](double t) {
    rig.completions.push_back(t);
    rig.fluid.start_job(push_volume, {rig.wk_nic[w], rig.ps_nic},
                        [&rig, w, round, rounds](double t_push) {
                          rig.completions.push_back(t_push);
                          start_cycle(rig, w, round + 1, rounds);
                        });
  });
}

}  // namespace

TEST(FluidIncremental, ChurnCompletionTimesBitIdentical) {
  constexpr int kWorkers = 12;
  constexpr int kRounds = 20;
  Rig inc(true, kWorkers), global(false, kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    start_cycle(inc, w, 0, kRounds);
    start_cycle(global, w, 0, kRounds);
  }
  inc.sim.run();
  global.sim.run();

  ASSERT_EQ(inc.completions.size(), global.completions.size());
  ASSERT_EQ(inc.completions.size(), std::size_t(kWorkers) * kRounds * 2);
  for (std::size_t i = 0; i < inc.completions.size(); ++i) {
    ASSERT_EQ(inc.completions[i], global.completions[i]) << "completion " << i;
  }
  expect_same_resource_state(inc, global);
  // Both modes reallocate on the same events; only the solve scope differs.
  EXPECT_EQ(inc.fluid.realloc_count(), global.fluid.realloc_count());
  EXPECT_GT(inc.fluid.flows_avoided(), 0u) << "incremental mode must skip settled components";
  EXPECT_EQ(global.fluid.flows_avoided(), 0u) << "global mode re-solves everything";
  EXPECT_GT(global.fluid.flows_resolved(), inc.fluid.flows_resolved());
}

TEST(FluidIncremental, MidRunRatesMatchUnderCapacityChangeAndCancel) {
  constexpr int kWorkers = 6;
  Rig inc(true, kWorkers), global(false, kWorkers);

  // All workers push through the shared PS NIC concurrently (one big
  // component) while half also run compute (singleton components).
  std::vector<cs::JobId> inc_jobs, global_jobs;
  for (int w = 0; w < kWorkers; ++w) {
    inc_jobs.push_back(
        inc.fluid.start_job(500.0 + w, {inc.wk_nic[w], inc.ps_nic}, [](double) {}));
    global_jobs.push_back(
        global.fluid.start_job(500.0 + w, {global.wk_nic[w], global.ps_nic}, [](double) {}));
    if (w % 2 == 0) {
      inc.fluid.start_job(300.0 + w, {inc.wk_cpu[w]}, [](double) {});
      global.fluid.start_job(300.0 + w, {global.wk_cpu[w]}, [](double) {});
    }
  }
  for (std::size_t i = 0; i < inc_jobs.size(); ++i) {
    ASSERT_EQ(inc.fluid.job_rate(inc_jobs[i]), global.fluid.job_rate(global_jobs[i]));
  }
  expect_same_resource_state(inc, global);

  // Degrade the PS NIC mid-run (fault injection), advance, cancel a flow,
  // advance again: allocations must track each other exactly throughout.
  inc.sim.run_until(1.0);
  global.sim.run_until(1.0);
  inc.fluid.set_resource_capacity(inc.ps_nic, 80.0);
  global.fluid.set_resource_capacity(global.ps_nic, 80.0);
  for (std::size_t i = 0; i < inc_jobs.size(); ++i) {
    ASSERT_EQ(inc.fluid.job_rate(inc_jobs[i]), global.fluid.job_rate(global_jobs[i]));
    ASSERT_EQ(inc.fluid.job_remaining(inc_jobs[i]),
              global.fluid.job_remaining(global_jobs[i]));
  }
  expect_same_resource_state(inc, global);

  inc.sim.run_until(2.0);
  global.sim.run_until(2.0);
  inc.fluid.cancel_job(inc_jobs[2]);
  global.fluid.cancel_job(global_jobs[2]);
  for (std::size_t i = 0; i < inc_jobs.size(); ++i) {
    if (i == 2) continue;
    ASSERT_EQ(inc.fluid.job_rate(inc_jobs[i]), global.fluid.job_rate(global_jobs[i]));
  }
  expect_same_resource_state(inc, global);

  inc.sim.run();
  global.sim.run();
  ASSERT_EQ(inc.sim.now(), global.sim.now()) << "drain times must match exactly";
}

TEST(FluidIncremental, TrainerRunBitIdenticalWithToggle) {
  const auto& w = cd::workload_by_name("cifar10");
  const auto& m4 = cc::Catalog::aws().at("m4.xlarge");
  const auto cluster = cd::ClusterSpec::homogeneous(m4, 8, 1);
  cd::TrainOptions incremental, global;
  incremental.iterations = global.iterations = 60;
  incremental.fluid_incremental = true;
  global.fluid_incremental = false;

  const auto a = cd::run_training(cluster, w, incremental);
  const auto b = cd::run_training(cluster, w, global);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.computation_time, b.computation_time);
  EXPECT_EQ(a.communication_time, b.communication_time);
  EXPECT_EQ(a.final_loss, b.final_loss);
  EXPECT_EQ(a.avg_worker_cpu_util, b.avg_worker_cpu_util);
  EXPECT_EQ(a.avg_ps_cpu_util, b.avg_ps_cpu_util);
  EXPECT_EQ(a.ps_ingress_avg_mbps, b.ps_ingress_avg_mbps);
}

TEST(FluidIncremental, RunTwiceDigestDeterminism) {
  // The incremental solver must also be deterministic against itself: two
  // identical runs produce identical completion streams.
  constexpr int kWorkers = 8;
  constexpr int kRounds = 10;
  Rig first(true, kWorkers), second(true, kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    start_cycle(first, w, 0, kRounds);
    start_cycle(second, w, 0, kRounds);
  }
  first.sim.run();
  second.sim.run();
  ASSERT_EQ(first.completions.size(), second.completions.size());
  for (std::size_t i = 0; i < first.completions.size(); ++i) {
    ASSERT_EQ(first.completions[i], second.completions[i]) << "completion " << i;
  }
  EXPECT_EQ(first.fluid.flows_resolved(), second.fluid.flows_resolved());
  EXPECT_EQ(first.fluid.flows_avoided(), second.fluid.flows_avoided());
}

TEST(FluidIncremental, BatchedEventMatchesFreshSolve) {
  // One completion callback starts three jobs, cancels one of them and
  // degrades the PS NIC. The event's single solve must leave exactly the
  // allocation of a fresh system that starts the survivors directly, in the
  // same order and with their remaining volumes, on the new capacity.
  constexpr int kWorkers = 4;
  constexpr double kDegradedPsNic = 90.0;
  for (const bool incremental : {true, false}) {
    Rig rig(incremental, kWorkers);
    std::vector<cs::JobId> survivors = {
        rig.fluid.start_job(500.0, {rig.wk_nic[1], rig.ps_nic}, [](double) {}),
        rig.fluid.start_job(300.0, {rig.wk_cpu[2]}, [](double) {}),
        rig.fluid.start_job(400.0, {rig.wk_nic[2], rig.ps_nic}, [](double) {}),
    };
    bool fired = false;
    rig.fluid.start_job(1.0, {rig.wk_cpu[0]}, [&](double) {
      fired = true;
      survivors.push_back(rig.fluid.start_job(80.0, {rig.wk_nic[0], rig.ps_nic}, [](double) {}));
      const cs::JobId cancelled = rig.fluid.start_job(30.0, {rig.wk_cpu[0]}, [](double) {});
      survivors.push_back(rig.fluid.start_job(60.0, {rig.wk_nic[3], rig.ps_nic}, [](double) {}));
      rig.fluid.cancel_job(cancelled);
      rig.fluid.set_resource_capacity(rig.ps_nic, kDegradedPsNic);
    });

    const std::size_t reallocs_before = rig.fluid.realloc_count();
    ASSERT_TRUE(rig.sim.step());  // the 1-unit job finishes first
    ASSERT_TRUE(fired) << "incremental=" << incremental;
    EXPECT_EQ(rig.fluid.realloc_count(), reallocs_before + 1) << "incremental=" << incremental;
    ASSERT_EQ(rig.fluid.active_jobs(), survivors.size());

    Rig fresh(incremental, kWorkers);
    fresh.fluid.set_resource_capacity(fresh.ps_nic, kDegradedPsNic);
    const std::vector<std::vector<cs::ResourceId>> routes = {
        {fresh.wk_nic[1], fresh.ps_nic}, {fresh.wk_cpu[2]}, {fresh.wk_nic[2], fresh.ps_nic},
        {fresh.wk_nic[0], fresh.ps_nic}, {fresh.wk_nic[3], fresh.ps_nic}};
    std::vector<cs::JobId> fresh_ids;
    for (std::size_t i = 0; i < survivors.size(); ++i) {
      fresh_ids.push_back(
          fresh.fluid.start_job(rig.fluid.job_remaining(survivors[i]), routes[i], [](double) {}));
    }
    for (std::size_t i = 0; i < survivors.size(); ++i) {
      EXPECT_EQ(rig.fluid.job_rate(survivors[i]), fresh.fluid.job_rate(fresh_ids[i]))
          << "job " << i << ", incremental=" << incremental;
    }
    expect_same_resource_state(rig, fresh);
  }
}
