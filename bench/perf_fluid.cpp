// Fluid-solver settle-throughput microbench: component-scoped (incremental)
// vs. global max-min reallocation on a PS-training-shaped churn workload,
// plus an end-to-end trainer window. Emits BENCH_fluid.json (docs/PERF.md).
//
// The two modes produce bit-identical allocations and completion times
// (tests/fluid_incremental_test.cpp); a completion-time digest is still
// cross-checked here so a future regression cannot silently publish a
// bogus speedup.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "ddnn/trainer.hpp"
#include "ddnn/workload.hpp"
#include "perf_common.hpp"
#include "sim/fluid.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace cynthia;

std::uint64_t fnv1a_double(std::uint64_t h, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

struct ChurnResult {
  double wall_seconds = 0.0;
  std::size_t reallocs = 0;
  std::uint64_t flows_resolved = 0;
  std::uint64_t flows_avoided = 0;
  std::uint64_t digest = 0xCBF29CE484222325ULL;
};

// Per-worker churn volumes; they vary per worker so completions interleave
// rather than tie.
double compute_volume(int w) { return 40.0 + 0.37 * w; }
double push_volume(int w) { return 65.0 + 0.53 * w; }

/// The paper's PS-training shape: every worker cycles compute (its own CPU,
/// a singleton component) -> push (its NIC + the shared PS NIC, one big
/// component). Each completion triggers a reallocation; the incremental
/// solver re-water-fills only the touched component. A job's tag is
/// 2 * worker + stage (0 compute, 1 push), and the fluid system's one
/// completion handler continues the cycle from it.
class Churn {
 public:
  Churn(bool incremental, int n_workers, int rounds)
      : fluid_(sim_, [this](sim::JobId, sim::JobTag tag, double t) { on_done(tag, t); }),
        rounds_(rounds),
        round_(n_workers, 0) {
    fluid_.set_incremental(incremental);
    ps_nic_ = fluid_.add_resource("ps.nic", 120.0);
    for (int w = 0; w < n_workers; ++w) {
      wk_cpu_.push_back(fluid_.add_resource("wk" + std::to_string(w) + ".cpu", 8.8));
      wk_nic_.push_back(fluid_.add_resource("wk" + std::to_string(w) + ".nic", 125.0));
    }
  }

  ChurnResult run() {
    const int n_workers = static_cast<int>(round_.size());
    const double t0 = bench::perf::now_seconds();
    for (int w = 0; w < n_workers; ++w) start_round(w);
    sim_.run();
    out_.wall_seconds = bench::perf::now_seconds() - t0;
    // Every push crosses the shared PS NIC, so it must have served all of
    // them; anything else means the churn did not run the workload it claims.
    double pushed = 0.0;
    for (int w = 0; w < n_workers; ++w) pushed += rounds_ * push_volume(w);
    const double served = fluid_.resource_volume_served(ps_nic_);
    if (std::abs(served - pushed) > 1e-9 * pushed) {
      throw std::logic_error("perf_fluid: PS NIC served " + std::to_string(served) +
                             " units, expected " + std::to_string(pushed));
    }
    out_.reallocs = fluid_.realloc_count();
    out_.flows_resolved = fluid_.flows_resolved();
    out_.flows_avoided = fluid_.flows_avoided();
    return out_;
  }

 private:
  sim::Simulator sim_;
  sim::FluidSystem fluid_;
  int rounds_;
  std::vector<int> round_;  ///< per worker, the round its cycle is in
  sim::ResourceId ps_nic_ = 0;
  std::vector<sim::ResourceId> wk_cpu_, wk_nic_;
  ChurnResult out_;

  void start_round(int w) {
    if (round_[w] >= rounds_) return;
    fluid_.start_job(compute_volume(w), {wk_cpu_[w]}, 2 * static_cast<sim::JobTag>(w));
  }

  void on_done(sim::JobTag tag, double t) {
    out_.digest = fnv1a_double(out_.digest, t);
    const int w = static_cast<int>(tag / 2);
    if (tag % 2 == 0) {
      fluid_.start_job(push_volume(w), {wk_nic_[w], ps_nic_}, tag + 1);
      return;
    }
    ++round_[w];
    start_round(w);
  }
};

ChurnResult run_churn(bool incremental, int n_workers, int rounds) {
  return Churn(incremental, n_workers, rounds).run();
}

double run_trainer_window(bool incremental) {
  const auto& w = ddnn::workload_by_name("cifar10");
  const auto cluster = ddnn::ClusterSpec::homogeneous(bench::m4(), 8, 1);
  ddnn::TrainOptions options;
  options.iterations = 120;
  options.fluid_incremental = incremental;
  const double t0 = bench::perf::now_seconds();
  (void)ddnn::run_training(cluster, w, options);
  return bench::perf::now_seconds() - t0;
}

}  // namespace

int main() {
  std::printf("perf_fluid: incremental vs global max-min reallocation\n\n");

  constexpr int kWorkers = 24;
  constexpr int kRounds = 150;
  constexpr int kReps = 5;

  bench::perf::Samples wall_inc, wall_global, trainer_inc, trainer_global;
  ChurnResult inc_last, global_last;
  for (int i = 0; i < kReps; ++i) {
    global_last = run_churn(false, kWorkers, kRounds);
    wall_global.add(global_last.wall_seconds);
    inc_last = run_churn(true, kWorkers, kRounds);
    wall_inc.add(inc_last.wall_seconds);
    if (inc_last.digest != global_last.digest) {
      throw std::logic_error("perf_fluid: incremental/global completion digests diverge");
    }
  }
  for (int i = 0; i < kReps; ++i) {
    trainer_global.add(run_trainer_window(false));
    trainer_inc.add(run_trainer_window(true));
  }

  std::printf("  churn: %zu reallocs, incremental re-solved %llu flows, avoided %llu\n",
              inc_last.reallocs, static_cast<unsigned long long>(inc_last.flows_resolved),
              static_cast<unsigned long long>(inc_last.flows_avoided));
  std::printf("  completion digests identical across modes\n\n");

  bench::perf::BenchReport report("fluid");
  report.add_series("churn_incremental_seconds", "seconds", wall_inc);
  report.add_series("churn_global_seconds", "seconds", wall_global);
  report.add_series("trainer_window_incremental_seconds", "seconds", trainer_inc);
  report.add_series("trainer_window_global_seconds", "seconds", trainer_global);
  report.add_scalar("churn_p50_speedup", wall_global.quantile(0.5) / wall_inc.quantile(0.5));
  report.add_scalar("trainer_p50_speedup",
                    trainer_global.quantile(0.5) / trainer_inc.quantile(0.5));
  report.add_scalar("reallocs", static_cast<double>(inc_last.reallocs));
  report.add_scalar("flows_resolved", static_cast<double>(inc_last.flows_resolved));
  report.add_scalar("flows_avoided", static_cast<double>(inc_last.flows_avoided));
  const double total =
      static_cast<double>(inc_last.flows_resolved + inc_last.flows_avoided);
  report.add_scalar("resolve_fraction",
                    total > 0.0 ? static_cast<double>(inc_last.flows_resolved) / total : 0.0);
  report.write();
  return 0;
}
