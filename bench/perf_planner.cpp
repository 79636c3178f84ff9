// Planner-latency microbench: Algorithm 1 (plan) and elastic replan wall
// clock, optimized hot path (memoized + bound-pruned) vs. the
// unoptimized exhaustive reference, across the paper workloads and all
// three sync mechanisms. Emits BENCH_planner.json (schema: docs/PERF.md).
//
// The two paths return bit-identical plans (tests/planner_equiv_test.cpp);
// this bench only quantifies the speed gap and the cache hit rate the
// SLO-sentinel + multi-tenant-service call pattern enjoys.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/loss_model.hpp"
#include "core/provisioner.hpp"
#include "ddnn/workload.hpp"
#include "perf_common.hpp"
#include "profiler/profiler.hpp"
#include "util/units.hpp"

namespace {

using namespace cynthia;

core::Provisioner make_provisioner(const char* workload, ddnn::SyncMode mode) {
  static std::map<std::string, profiler::ProfileResult> profiles;
  auto it = profiles.find(workload);
  if (it == profiles.end()) {
    it = profiles
             .emplace(workload,
                      profiler::profile_workload(ddnn::workload_by_name(workload), bench::m4()))
             .first;
  }
  const auto& w = ddnn::workload_by_name(workload);
  const auto& coef = w.loss_for(mode);
  core::LossModel loss(mode, coef.beta0, coef.beta1);
  return core::Provisioner(core::CynthiaModel(it->second), std::move(loss),
                           cloud::Catalog::aws().provisionable());
}

struct Case {
  const char* workload;
  ddnn::SyncMode mode;
  const char* mode_name;
  core::ProvisionGoal goal;
};

const char* sync_name(ddnn::SyncMode m) {
  switch (m) {
    case ddnn::SyncMode::BSP:
      return "bsp";
    case ddnn::SyncMode::ASP:
      return "asp";
    default:
      return "ssp";
  }
}

}  // namespace

int main() {
  std::printf("perf_planner: plan/replan latency, optimized vs exhaustive reference\n\n");

  std::vector<Case> cases;
  for (ddnn::SyncMode mode :
       {ddnn::SyncMode::BSP, ddnn::SyncMode::ASP, ddnn::SyncMode::SSP}) {
    cases.push_back({"mnist", mode, sync_name(mode), {util::minutes(30), 0.1}});
    cases.push_back({"cifar10", mode, sync_name(mode), {util::minutes(90), 0.8}});
    cases.push_back({"vgg19", mode, sync_name(mode), {util::minutes(240), 0.8}});
  }

  // Reference: no cache, no pruning — and for plan() the exhaustive grid
  // (the ablation path the optimized bounded search is proven bit-identical
  // to).
  core::ProvisionOptions optimized;  // defaults: cache + prune
  core::ProvisionOptions reference;
  reference.use_cache = false;
  reference.prune = false;
  core::ProvisionOptions reference_exhaustive = reference;
  reference_exhaustive.exhaustive = true;
  core::ProvisionOptions optimized_exhaustive = optimized;
  optimized_exhaustive.exhaustive = true;

  constexpr int kOptimizedReps = 200;
  constexpr int kReferenceReps = 20;
  constexpr long kReplanRemaining = 2000;
  const util::Seconds replan_budget = util::minutes(45);

  bench::perf::Samples plan_opt, plan_ref, plan_opt_exhaustive, replan_opt, replan_ref;
  std::uint64_t cache_hits = 0, cache_misses = 0, evaluated = 0, pruned = 0;

  for (const Case& c : cases) {
    const core::Provisioner prov = make_provisioner(c.workload, c.mode);
    // Warm the prediction cache the way a long-lived service would be warm
    // (the cold first call is reported separately).
    bench::perf::Samples first_call;
    first_call.add(bench::perf::time_call([&] { (void)prov.plan(c.mode, c.goal, optimized); }));
    for (int i = 0; i < kOptimizedReps; ++i) {
      plan_opt.add(bench::perf::time_call([&] { (void)prov.plan(c.mode, c.goal, optimized); }));
    }
    for (int i = 0; i < kOptimizedReps; ++i) {
      replan_opt.add(bench::perf::time_call(
          [&] { (void)prov.replan(c.mode, kReplanRemaining, replan_budget, optimized); }));
    }
    for (int i = 0; i < kOptimizedReps / 4; ++i) {
      plan_opt_exhaustive.add(bench::perf::time_call(
          [&] { (void)prov.plan(c.mode, c.goal, optimized_exhaustive); }));
    }
    for (int i = 0; i < kReferenceReps; ++i) {
      plan_ref.add(bench::perf::time_call(
          [&] { (void)prov.plan(c.mode, c.goal, reference_exhaustive); }));
    }
    for (int i = 0; i < kReferenceReps; ++i) {
      replan_ref.add(bench::perf::time_call(
          [&] { (void)prov.replan(c.mode, kReplanRemaining, replan_budget, reference); }));
    }
    const auto stats = prov.stats();
    cache_hits += stats.cache_hits;
    cache_misses += stats.cache_misses;
    evaluated += stats.candidates_evaluated;
    pruned += stats.candidates_pruned;
    std::printf("  case %-8s %-3s warm p50 %8.1f us  (cold first call %8.1f us)\n", c.workload,
                c.mode_name, plan_opt.quantile(0.5) * 1e6, first_call.max() * 1e6);
  }

  std::printf("\n");
  bench::perf::BenchReport report("planner");
  report.add_series("plan_optimized_seconds", "seconds", plan_opt);
  report.add_series("plan_optimized_exhaustive_seconds", "seconds", plan_opt_exhaustive);
  report.add_series("plan_exhaustive_reference_seconds", "seconds", plan_ref);
  report.add_series("replan_optimized_seconds", "seconds", replan_opt);
  report.add_series("replan_reference_seconds", "seconds", replan_ref);
  report.add_scalar("plan_p50_speedup_vs_exhaustive",
                    plan_ref.quantile(0.5) / plan_opt.quantile(0.5));
  report.add_scalar("replan_p50_speedup_vs_reference",
                    replan_ref.quantile(0.5) / replan_opt.quantile(0.5));
  const double lookups = static_cast<double>(cache_hits + cache_misses);
  report.add_scalar("cache_hit_rate", lookups > 0.0 ? cache_hits / lookups : 0.0);
  report.add_scalar("candidates_evaluated", static_cast<double>(evaluated));
  report.add_scalar("candidates_pruned", static_cast<double>(pruned));
  report.write();
  return 0;
}
