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

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ddnn/trainer.hpp"
#include "ddnn/workload.hpp"
#include "closure_fluid.hpp"
#include "sim/fluid.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace cs = cynthia::sim;
namespace cd = cynthia::ddnn;
namespace cc = cynthia::cloud;

namespace {

/// One simulator + fluid system + the PS-training resource shape used by
/// the churn scripts: per-worker CPU and NIC, one shared PS NIC.
struct Rig {
  cs::Simulator sim;
  cs::test::ClosureFluid fluid{sim};
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

namespace {

/// What the random scripts exercised, summed over seeds, so the differential
/// test cannot pass on scripts that never reach the cases it names.
struct ScriptCoverage {
  int multi_resource_starts = 0;
  int repeated_resource_starts = 0;
  int starts_in_callbacks = 0;
  int cancels_in_callbacks = 0;
  int cancels_of_finished = 0;
  int capacity_changes = 0;
};

/// One side of the differential test: a fluid system driven by a seeded
/// script of starts, cancels and capacity changes, issued both directly and
/// from completion callbacks. Both sides draw from identical RNG streams, so
/// while their completions agree they make the same calls at the same
/// instants. After every solve it checks that the solve counted each live
/// flow once, as re-solved or as avoided.
class ScriptedSystem {
 public:
  ScriptedSystem(bool incremental, std::uint64_t seed, int start_budget, ScriptCoverage& coverage)
      : rng_(seed), starts_left_(start_budget), coverage_(coverage) {
    fluid.set_incremental(incremental);
    const auto n_resources = rng_.uniform_int(2, 9);
    for (std::int64_t r = 0; r < n_resources; ++r) {
      resources.push_back(fluid.add_resource("r" + std::to_string(r), rng_.uniform(1.0, 50.0)));
    }
    const auto initial = rng_.uniform_int(2, 12);
    for (std::int64_t i = 0; i < initial; ++i) start();
    const auto scripted = rng_.uniform_int(4, 16);
    for (std::int64_t i = 0; i < scripted; ++i) {
      sim.at(rng_.uniform(0.0, 12.0), [this] { random_op(); });
    }
  }

  ScriptedSystem(const ScriptedSystem&) = delete;
  ScriptedSystem& operator=(const ScriptedSystem&) = delete;

  /// Checks the solve accounting since the last check: at most one solve,
  /// and it added exactly the live flow count to resolved + avoided.
  void check_solves() {
    const std::size_t solves = fluid.realloc_count() - reallocs_seen_;
    const std::uint64_t flows = fluid.flows_resolved() + fluid.flows_avoided() - flows_seen_;
    ASSERT_LE(solves, 1u);
    EXPECT_EQ(flows, solves == 1 ? fluid.active_jobs() : 0u);
    reallocs_seen_ = fluid.realloc_count();
    flows_seen_ = fluid.flows_resolved() + fluid.flows_avoided();
  }

  cs::Simulator sim;
  cs::test::ClosureFluid fluid{sim};
  std::vector<cs::ResourceId> resources;
  std::vector<cs::JobId> issued;  // every id start_job returned, in order
  std::vector<std::pair<cs::JobId, double>> completions;

 private:
  cynthia::util::Rng rng_;
  int starts_left_;
  ScriptCoverage& coverage_;
  std::vector<char> finished_;  // per issued index
  bool in_completion_ = false;  // inside a completion event's callbacks
  std::size_t reallocs_seen_ = 0;
  std::uint64_t flows_seen_ = 0;

  cs::ResourceId random_resource() {
    return resources[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(resources.size()) - 1))];
  }

  /// Calls made outside a completion event solve at once; check each.
  void after_call() {
    if (!in_completion_) check_solves();
  }

  void start() {
    if (starts_left_ <= 0) return;
    --starts_left_;
    const bool drained = rng_.chance(0.05);  // zero volume: completes via a plain event
    const double volume = drained ? 0.0 : rng_.uniform(0.5, 40.0);
    std::vector<cs::ResourceId> route;
    const auto hops = rng_.uniform_int(1, 3);
    for (std::int64_t h = 0; h < hops; ++h) route.push_back(random_resource());
    if (rng_.chance(0.15)) {
      route.push_back(route.front());
      ++coverage_.repeated_resource_starts;
    }
    if (route.size() > 1) ++coverage_.multi_resource_starts;
    if (in_completion_) ++coverage_.starts_in_callbacks;
    const std::size_t index = issued.size();
    issued.push_back(0);
    finished_.push_back(0);
    issued[index] = fluid.start_job(volume, std::move(route), [this, index, drained](double t) {
      on_complete(index, t, !drained);
    });
    after_call();
  }

  void cancel() {
    if (issued.empty()) return;
    const auto index = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(issued.size()) - 1));
    if (finished_[index]) ++coverage_.cancels_of_finished;
    if (in_completion_) ++coverage_.cancels_in_callbacks;
    fluid.cancel_job(issued[index]);
    after_call();
  }

  void change_capacity() {
    ++coverage_.capacity_changes;
    fluid.set_resource_capacity(random_resource(), rng_.uniform(1.0, 50.0));
    after_call();
  }

  void random_op() {
    const double pick = rng_.uniform(0.0, 1.0);
    if (pick < 0.5) {
      start();
    } else if (pick < 0.75) {
      cancel();
    } else {
      change_capacity();
    }
  }

  void on_complete(std::size_t index, double t, bool in_completion_event) {
    finished_[index] = 1;
    completions.emplace_back(issued[index], t);
    in_completion_ = in_completion_event;
    const auto starts = rng_.uniform_int(0, 2);
    for (std::int64_t i = 0; i < starts; ++i) start();
    if (rng_.chance(0.25)) cancel();
    if (rng_.chance(0.1)) change_capacity();
    in_completion_ = false;
  }
};

void expect_same_state(ScriptedSystem& inc, ScriptedSystem& global) {
  ASSERT_EQ(inc.sim.now(), global.sim.now());
  ASSERT_EQ(inc.issued, global.issued);
  ASSERT_EQ(inc.completions, global.completions);
  ASSERT_EQ(inc.fluid.active_jobs(), global.fluid.active_jobs());
  ASSERT_EQ(inc.fluid.realloc_count(), global.fluid.realloc_count());
  for (cs::JobId id : inc.issued) {
    ASSERT_EQ(inc.fluid.job_rate(id), global.fluid.job_rate(id)) << "job " << id;
    ASSERT_EQ(inc.fluid.job_remaining(id), global.fluid.job_remaining(id)) << "job " << id;
  }
  for (std::size_t r = 0; r < inc.resources.size(); ++r) {
    ASSERT_EQ(inc.fluid.resource_used(inc.resources[r]),
              global.fluid.resource_used(global.resources[r]))
        << "resource " << r;
  }
}

}  // namespace

TEST(FluidIncremental, RandomScriptsMatchGlobalSolve) {
  // Seeded random resource graphs and scripts, run in both solver modes in
  // lockstep, one event at a time. Every rate, used rate and completion
  // time must agree exactly after every event.
  constexpr int kSeeds = 40;
  constexpr int kStartBudget = 160;
  constexpr int kMaxSteps = 100000;
  ScriptCoverage coverage;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ScriptedSystem inc(true, seed, kStartBudget, coverage);
    ScriptedSystem global(false, seed, kStartBudget, coverage);
    expect_same_state(inc, global);
    int steps = 0;
    for (;;) {
      const bool inc_more = inc.sim.step();
      ASSERT_EQ(inc_more, global.sim.step());
      if (!inc_more) break;
      ASSERT_LT(++steps, kMaxSteps) << "script did not drain";
      inc.check_solves();
      global.check_solves();
      expect_same_state(inc, global);
      if (HasFatalFailure()) return;
    }
    EXPECT_EQ(inc.fluid.active_jobs(), 0u);
    EXPECT_EQ(global.fluid.flows_avoided(), 0u) << "global mode re-solves everything";
    EXPECT_EQ(inc.fluid.flows_resolved() + inc.fluid.flows_avoided(),
              global.fluid.flows_resolved());
  }
  EXPECT_GT(coverage.multi_resource_starts, 0);
  EXPECT_GT(coverage.repeated_resource_starts, 0);
  EXPECT_GT(coverage.starts_in_callbacks, 0);
  EXPECT_GT(coverage.cancels_in_callbacks, 0);
  EXPECT_GT(coverage.cancels_of_finished, 0);
  EXPECT_GT(coverage.capacity_changes, 0);
}
