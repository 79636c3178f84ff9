// Contention stress tests for the components that may be shared across
// threads: the telemetry metrics registry and one Provisioner called from
// many threads (its PredictionCache, counters and trace publication).
// Built and run under ThreadSanitizer in CI (see .github/workflows/ci.yml);
// under a plain build they still verify that concurrent updates sum
// correctly and plans stay deterministic.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "cloud/instance.hpp"
#include "core/loss_model.hpp"
#include "core/provisioner.hpp"
#include "ddnn/workload.hpp"
#include "profiler/profiler.hpp"
#include "telemetry/metrics.hpp"
#include "util/units.hpp"

namespace ct = cynthia::telemetry;
namespace cu = cynthia::util;
namespace co = cynthia::core;
namespace cd = cynthia::ddnn;
namespace cc = cynthia::cloud;
namespace cp = cynthia::profiler;

namespace {
constexpr int kThreads = 8;
constexpr int kOpsPerThread = 5000;

// Launches `kThreads` OS threads all hammering `fn(thread_index)`.
void hammer(const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) threads.emplace_back([&fn, i] { fn(i); });
  for (auto& t : threads) t.join();
}
}  // namespace

// ------------------------------------------------------------------ metrics

TEST(TsanStress, CountersSumExactlyUnderContention) {
  ct::MetricsRegistry registry;
  // Pre-create so the hot loop exercises the lock-free path, then also
  // hammer the name-lookup path from every thread.
  ct::Counter& hot = registry.counter("stress.hot");
  hammer([&](int) {
    for (int j = 0; j < kOpsPerThread; ++j) {
      hot.inc(1.0);
      registry.counter("stress.looked_up").inc(2.0);
    }
  });
  EXPECT_DOUBLE_EQ(hot.value(), double(kThreads) * kOpsPerThread);
  EXPECT_DOUBLE_EQ(registry.counter_value("stress.looked_up"),
                   2.0 * kThreads * kOpsPerThread);
}

TEST(TsanStress, GaugeConvergesToLastWrite) {
  ct::MetricsRegistry registry;
  ct::Gauge& g = registry.gauge("stress.gauge");
  hammer([&](int t) {
    for (int j = 0; j < kOpsPerThread; ++j) g.set(double(t));
  });
  const double v = g.value();
  EXPECT_GE(v, 0.0);
  EXPECT_LT(v, double(kThreads));
  EXPECT_EQ(v, std::floor(v)) << "gauge value must be one of the written values";
}

TEST(TsanStress, HistogramConservesCountAndSumUnderContention) {
  ct::MetricsRegistry registry;
  ct::Histogram& h = registry.histogram("stress.hist");
  hammer([&](int t) {
    for (int j = 0; j < kOpsPerThread; ++j) {
      // Values spread across several decades so many buckets see traffic.
      h.observe(std::pow(10.0, t % 5 - 2) * (1.0 + j % 3));
    }
  });
  const std::uint64_t expected = std::uint64_t(kThreads) * kOpsPerThread;
  EXPECT_EQ(h.count(), expected);
  const auto buckets = h.bucket_counts();
  const std::uint64_t bucket_total =
      std::accumulate(buckets.begin(), buckets.end(), std::uint64_t{0});
  EXPECT_EQ(bucket_total, expected) << "every observation must land in exactly one bucket";
  EXPECT_GT(h.sum(), 0.0);
  EXPECT_GE(h.max(), h.min());
}

// --------------------------------------------------------------- provisioner

namespace {

co::Provisioner stress_provisioner() {
  static std::map<std::string, cp::ProfileResult> cache;
  const char* name = "cifar10";
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache
             .emplace(name, cp::profile_workload(cd::workload_by_name(name),
                                                 cc::Catalog::aws().at("m4.xlarge")))
             .first;
  }
  const auto& w = cd::workload_by_name(name);
  co::LossModel loss(cd::SyncMode::BSP, w.loss().beta0, w.loss().beta1);
  return co::Provisioner(co::CynthiaModel(it->second), std::move(loss),
                         cc::Catalog::aws().provisionable());
}

}  // namespace

TEST(TsanStress, ConcurrentPlansOnSharedProvisionerAreDeterministic) {
  const auto prov = stress_provisioner();
  const co::ProvisionGoal goal{cu::minutes(90), 0.8};
  // The shared PredictionCache (dense slots + shards), the stats counters
  // and the trace publication all see contention from plan() and replan()
  // callers simultaneously.
  co::ProvisionOptions options;
  options.keep_trace = true;

  const auto reference = prov.plan(cd::SyncMode::BSP, goal, options);
  ASSERT_TRUE(reference.feasible);
  const std::size_t reference_trace_size = prov.considered().size();
  const auto reference_replan =
      prov.replan(cd::SyncMode::BSP, 2000, cu::minutes(45), options);

  std::atomic<int> mismatches{0};
  hammer([&](int t) {
    for (int j = 0; j < 25; ++j) {
      if ((t + j) % 2 == 0) {
        const auto plan = prov.plan(cd::SyncMode::BSP, goal, options);
        if (plan.n_workers != reference.n_workers || plan.n_ps != reference.n_ps ||
            plan.t_iter != reference.t_iter ||
            plan.predicted_cost.value() != reference.predicted_cost.value()) {
          mismatches.fetch_add(1);
        }
      } else {
        const auto plan = prov.replan(cd::SyncMode::BSP, 2000, cu::minutes(45), options);
        if (plan.n_workers != reference_replan.n_workers ||
            plan.n_ps != reference_replan.n_ps || plan.t_iter != reference_replan.t_iter) {
          mismatches.fetch_add(1);
        }
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0) << "every concurrent caller must get the same plan";

  // considered() holds whichever call published last; every publication is
  // serialized and complete, so the trace is a full deterministic sequence.
  const auto final_plan = prov.plan(cd::SyncMode::BSP, goal, options);
  EXPECT_EQ(final_plan.n_workers, reference.n_workers);
  EXPECT_EQ(prov.considered().size(), reference_trace_size);

  const auto stats = prov.stats();
  EXPECT_EQ(stats.plans, 2u + kThreads * 25u + 1u);
}

TEST(TsanStress, CacheClearBetweenContendedPhasesKeepsPlansIdentical) {
  const auto prov = stress_provisioner();
  const co::ProvisionGoal goal{cu::minutes(90), 0.8};
  const co::ProvisionOptions options;
  const auto reference = prov.plan(cd::SyncMode::BSP, goal, options);
  ASSERT_TRUE(reference.feasible);
  // clear_cache() requires quiescence (prediction_cache.hpp), so clears run
  // between hammer phases; each phase then repopulates the cache under full
  // contention and every caller must still see the identical plan.
  for (int phase = 0; phase < 3; ++phase) {
    prov.clear_cache();
    hammer([&](int) {
      for (int j = 0; j < 10; ++j) {
        const auto plan = prov.plan(cd::SyncMode::BSP, goal, options);
        ASSERT_EQ(plan.n_workers, reference.n_workers);
        ASSERT_EQ(plan.t_iter, reference.t_iter);
      }
    });
  }
}

TEST(TsanStress, RegistryCreationRaceYieldsOneMetricPerName) {
  ct::MetricsRegistry registry;
  hammer([&](int t) {
    for (int j = 0; j < 200; ++j) {
      registry.counter("race.c" + std::to_string(j % 16)).inc();
      registry.gauge("race.g" + std::to_string(j % 16)).set(double(t));
      registry.histogram("race.h" + std::to_string(j % 16)).observe(1.0);
    }
  });
  // 16 of each kind, not one per thread: the registry deduplicates by name.
  EXPECT_EQ(registry.size(), 48u);
  // j % 16 == 0 for j in {0, 16, ..., 192}: 13 hits per thread.
  EXPECT_DOUBLE_EQ(registry.counter_value("race.c0"), double(kThreads) * 13);
}
