// Per-thread stress test for the single-owner contract: a Provisioner (with
// its prediction cache) and a Telemetry bundle belong to one thread, so
// concurrent planning means one of each per thread. Every thread builds its
// own Predictor (so the profiler and loss sampling run on every thread too),
// Provisioner and Telemetry and runs the same plan/replan sequence with
// metrics attached; each must reproduce the outcome the main thread got,
// profile included, exactly. Built and run under ThreadSanitizer in CI (see
// .github/workflows/ci.yml), which also shows that separate instances share
// no hidden mutable state: catalog, zoo, profiler or loss sampling.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "cloud/instance.hpp"
#include "core/predictor.hpp"
#include "core/provisioner.hpp"
#include "ddnn/workload.hpp"
#include "telemetry/telemetry.hpp"
#include "util/units.hpp"

namespace ct = cynthia::telemetry;
namespace cu = cynthia::util;
namespace co = cynthia::core;
namespace cd = cynthia::ddnn;
namespace cc = cynthia::cloud;

namespace {

constexpr int kThreads = 8;

/// The bit-exact fields of one plan.
struct PlanBits {
  bool feasible = false;
  std::string type;
  int n_workers = 0;
  int n_ps = 0;
  long iterations = 0;
  long total_iterations = 0;
  double t_iter = 0.0;
  double time = 0.0;
  double cost = 0.0;
  bool operator==(const PlanBits&) const = default;
};

/// Everything one thread's sequence leaves behind.
struct Outcome {
  std::string error;  ///< what() of an exception thrown in the sequence
  double witer = 0.0, gparam = 0.0, cprof = 0.0, bprof = 0.0;  ///< its profile
  std::vector<PlanBits> plans;
  std::vector<std::size_t> trace_sizes;
  std::vector<std::uint64_t> stats;
  std::vector<double> planner_metrics;
  bool operator==(const Outcome&) const = default;
};

PlanBits bits(const co::ProvisionPlan& p) {
  return {p.feasible, p.type.name, p.n_workers, p.n_ps, p.iterations, p.total_iterations,
          p.t_iter, p.predicted_time.value(), p.predicted_cost.value()};
}

/// Builds a planner and its telemetry on the calling thread and runs a fixed
/// plan/replan sequence over both prediction-cache tiers.
Outcome run_sequence() {
  const cd::WorkloadSpec& w = cd::workload_by_name("cifar10");
  const co::Predictor predictor = co::Predictor::build(w, cc::Catalog::aws().at("m4.xlarge"));
  co::Provisioner prov(predictor.model(), predictor.loss(), cc::Catalog::aws().provisionable());
  ct::Telemetry tel;
  prov.set_metrics(&tel.metrics);
  co::ProvisionOptions traced;
  traced.keep_trace = true;

  Outcome out;
  const auto& profile = predictor.profile();
  out.witer = profile.witer.value();
  out.gparam = profile.gparam.value();
  out.cprof = profile.cprof.value();
  out.bprof = profile.bprof.value();
  for (int round = 0; round < 3; ++round) {  // later rounds answer from the warm cache
    out.plans.push_back(bits(prov.plan(w.sync, {cu::minutes(90), 0.8}, traced)));
    out.trace_sizes.push_back(prov.considered().size());
    out.plans.push_back(bits(prov.plan(w.sync, {cu::minutes(5), 2.0})));  // 13 PS: map tier
    out.plans.push_back(bits(prov.replan(w.sync, 2000, cu::minutes(45), traced)));
    out.trace_sizes.push_back(prov.considered().size());
    out.plans.push_back(bits(prov.replan(w.sync, 1500, cu::minutes(30), {}, {0.8, 0.1})));
  }
  const co::PlannerStats s = prov.stats();
  out.stats = {s.plans, s.candidates_evaluated, s.candidates_pruned, s.cache_hits,
               s.cache_misses};
  const ct::MetricsRegistry& m = tel.metrics;
  for (const char* name :
       {ct::metric::kPlannerCandidates, ct::metric::kPlannerPruned, ct::metric::kPlannerCacheHits,
        ct::metric::kPlannerCacheMisses, ct::metric::kPlannerCacheHitRate}) {
    out.planner_metrics.push_back(m.gauge_value(name, -1.0));
  }
  out.planner_metrics.push_back(m.counter_value(ct::metric::kPlannerPlans, -1.0));
  const ct::Histogram* latency = m.find_histogram(ct::metric::kPlannerPlanSeconds);
  out.planner_metrics.push_back(latency ? static_cast<double>(latency->count()) : -1.0);
  return out;
}

}  // namespace

TEST(TsanStress, PerThreadPlannersReproduceTheSingleThreadedOutcome) {
  const Outcome reference = run_sequence();
  ASSERT_TRUE(reference.plans.front().feasible);
  ASSERT_GT(reference.plans[1].n_ps, 8);
  ASSERT_EQ(reference.stats.front(), 12u);

  std::vector<Outcome> outcomes(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&outcomes, i] {
      try {
        outcomes[i] = run_sequence();
      } catch (const std::exception& e) {
        outcomes[i].error = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (int i = 0; i < kThreads; ++i) {
    SCOPED_TRACE("thread " + std::to_string(i));
    EXPECT_EQ(outcomes[i].error, "");
    EXPECT_TRUE(outcomes[i] == reference) << "a thread's own planner must match the reference";
  }
}
