// Allocation gate for the simulator's hot path: once warm, the event queue
// and the fluid system allocate nothing per event or job, and a steady-state
// training iteration allocates nothing, so a run makes as many heap
// allocations at 2N iterations as at N. That holds with a straggler monitor
// probing every barrier too; a traced run may add only the trace's own
// amortised storage growth. A warm deploy meter's walk allocates only what
// the walk builds, the same on every walk.
//
// This binary replaces the global operator new and delete with counting
// versions, which is why it is its own executable: the counter affects no
// other test. Runtime invariants are switched off here, because the checker
// (FluidSystem::verify_allocation) builds scratch vectors by design.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "cloud/instance.hpp"
#include "cloud/pricing.hpp"
#include "core/provisioner.hpp"
#include "ddnn/cluster.hpp"
#include "ddnn/trainer.hpp"
#include "ddnn/workload.hpp"
#include "orchestrator/cluster_manager.hpp"
#include "orchestrator/sentinel.hpp"
#include "sim/event_queue.hpp"
#include "sim/fluid.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cd = cynthia::ddnn;
namespace cs = cynthia::sim;
namespace cu = cynthia::util;

namespace {

template <typename F>
std::uint64_t allocations_during(F&& f) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

class AllocationGate : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = cu::invariants_enabled();
    cu::set_invariants_enabled(false);
  }
  void TearDown() override { cu::set_invariants_enabled(saved_); }

 private:
  bool saved_ = false;
};

/// What a gated run attaches to the trainer.
enum class Attach { kNothing, kMonitor, kTelemetry };

/// Heap allocations of one fault-free 8x2 run on m4.xlarge, counting
/// everything it builds: the monitor or telemetry bundle, the cluster's
/// resources and the run itself.
std::uint64_t training_allocations(const char* workload, long iterations,
                                   Attach attach = Attach::kNothing) {
  const auto& w = cd::workload_by_name(workload);
  const auto cluster =
      cd::ClusterSpec::homogeneous(cynthia::cloud::Catalog::aws().at("m4.xlarge"), 8, 2);
  return allocations_during([&] {
    cd::TrainOptions options;
    options.iterations = iterations;
    cynthia::orch::StragglerDetector detector{cynthia::orch::StragglerDetector::Config{}};
    cynthia::telemetry::Telemetry tel;
    if (attach == Attach::kMonitor) options.monitor = &detector;
    if (attach == Attach::kTelemetry) options.telemetry = &tel;
    (void)cd::run_training(cluster, w, options);
  });
}

/// Workers cycling compute (own CPU) -> push (own NIC + a shared PS NIC),
/// continued from each job's tag (2 * worker + stage) by the fluid system's
/// one handler, like the trainer. No job has zero volume.
class FluidChurn {
 public:
  explicit FluidChurn(cs::Simulator& sim, int n_workers)
      : fluid_(sim, [this](cs::JobId, cs::JobTag tag, double) { on_done(tag); }),
        rounds_left_(n_workers, 0) {
    ps_nic_ = fluid_.add_resource("ps.nic", 120.0);
    for (int w = 0; w < n_workers; ++w) {
      cpu_.push_back(fluid_.add_resource("cpu", 8.8));
      nic_.push_back(fluid_.add_resource("nic", 125.0));
    }
  }

  /// Starts `rounds` more cycles on every worker.
  void start(int rounds) {
    for (std::size_t w = 0; w < rounds_left_.size(); ++w) {
      rounds_left_[w] = rounds;
      start_compute(w);
    }
  }

 private:
  cs::FluidSystem fluid_;
  std::vector<int> rounds_left_;
  cs::ResourceId ps_nic_ = 0;
  std::vector<cs::ResourceId> cpu_, nic_;

  void start_compute(std::size_t w) {
    if (rounds_left_[w]-- > 0) fluid_.start_job(40.0 + 0.37 * w, {cpu_[w]}, 2 * w);
  }
  void on_done(cs::JobTag tag) {
    const std::size_t w = tag / 2;
    if (tag % 2 == 0) {
      fluid_.start_job(65.0 + 0.53 * w, {nic_[w], ps_nic_}, tag + 1);
    } else {
      start_compute(w);
    }
  }
};

}  // namespace

TEST_F(AllocationGate, CounterSeesHeapAllocations) {
  // The gate below means nothing if the replacement is not linked in.
  EXPECT_GE(allocations_during([] { std::vector<int> v(1000, 1); }), 1u);
}

TEST_F(AllocationGate, WarmEventQueueChurnAllocatesNothing) {
  cs::EventQueue q;
  int fired = 0;
  // One round: 64 events over 16 timestamps (ties), every third one
  // cancelled, an id reused after it fired, then the queue drained.
  const auto round = [&](double base) {
    cs::EventId ids[64];
    for (int i = 0; i < 64; ++i) {
      ids[i] = q.schedule(base + static_cast<double>(i % 16), [&fired] { ++fired; });
    }
    for (int i = 0; i < 64; i += 3) q.cancel(ids[i]);
    for (int i = 0; i < 8; ++i) q.pop().action();
    for (int i = 0; i < 8; ++i) q.cancel(ids[i]);  // fired, cancelled or live alike
    while (!q.empty()) q.pop().action();
  };
  for (int r = 0; r < 4; ++r) round(100.0 * r);
  const int fired_warm = fired;
  EXPECT_EQ(allocations_during([&] {
              for (int r = 4; r < 200; ++r) round(100.0 * r);
            }),
            0u);
  EXPECT_GT(fired, fired_warm);
}

TEST_F(AllocationGate, WarmFluidChurnAllocatesNothing) {
  cs::Simulator sim;
  FluidChurn churn(sim, 12);
  churn.start(20);
  sim.run();
  const std::size_t events_warm = sim.events_fired();
  EXPECT_EQ(allocations_during([&] {
              churn.start(200);
              sim.run();
            }),
            0u);
  EXPECT_GT(sim.events_fired(), events_warm + 12 * 200);
}

TEST_F(AllocationGate, BspIterationsAllocateNothing) {
  const auto at_n = training_allocations("cifar10", 400);
  const auto at_2n = training_allocations("cifar10", 800);
  EXPECT_EQ(at_2n, at_n) << "cifar10 BSP 8x2: " << at_n << " allocations at 400 iterations, "
                         << at_2n << " at 800";
}

TEST_F(AllocationGate, AspIterationsAllocateNothing) {
  const auto at_n = training_allocations("resnet32", 400);
  const auto at_2n = training_allocations("resnet32", 800);
  EXPECT_EQ(at_2n, at_n) << "resnet32 ASP 8x2: " << at_n << " allocations at 400 iterations, "
                         << at_2n << " at 800";
}

TEST_F(AllocationGate, MonitoredBspIterationsAllocateNothing) {
  // A fault-free detector probes at every barrier and never acts.
  const auto at_n = training_allocations("cifar10", 400, Attach::kMonitor);
  const auto at_2n = training_allocations("cifar10", 800, Attach::kMonitor);
  EXPECT_EQ(at_2n, at_n) << "monitored cifar10 BSP 8x2: " << at_n
                         << " allocations at 400 iterations, " << at_2n << " at 800";
}

TEST_F(AllocationGate, TracedBspIterationsAllocateOnlyTraceStorage) {
  // Metrics and the tracer attached. The trace keeps every event: 12,400 at
  // 400 iterations, 24,800 at 800, so its event vector doubles once more
  // (capacity 16,384 -> 32,768). That is the only growth allowed; metric
  // lookups and span names allocate nothing per iteration.
  const auto at_n = training_allocations("cifar10", 400, Attach::kTelemetry);
  const auto at_2n = training_allocations("cifar10", 800, Attach::kTelemetry);
  EXPECT_GE(at_2n, at_n);
  EXPECT_LE(at_2n, at_n + 1) << "traced cifar10 BSP 8x2: " << at_n
                             << " allocations at 400 iterations, " << at_2n << " at 800";
}

TEST_F(AllocationGate, WarmDeployMeterWalksAllocateTheSame) {
  // One plan of 5 workers and 2 PS on m4.xlarge: 4 nodes a walk. A warm
  // meter reuses its clock, event queue, bill and manager, so its 2nd and
  // 1,000th walks allocate the same blocks, fewer than a new control plane's.
  cynthia::core::ProvisionPlan plan;
  plan.feasible = true;
  plan.type = cynthia::cloud::Catalog::aws().at("m4.xlarge");
  plan.n_workers = 5;
  plan.n_ps = 2;
  cynthia::orch::DeployMeter meter;
  (void)meter.measure(plan, 1);
  const auto second = allocations_during([&] { (void)meter.measure(plan, 2); });
  for (std::uint64_t seed = 3; seed < 1000; ++seed) (void)meter.measure(plan, seed);
  const auto thousandth = allocations_during([&] { (void)meter.measure(plan, 1000); });
  const auto fresh = allocations_during([&] {
    cs::Simulator sim;
    cynthia::cloud::BillingMeter billing;
    cynthia::orch::ClusterManager manager(sim, billing, 1001);
    cynthia::orch::Deployment deployment = manager.deploy(plan);
    manager.teardown(deployment);
  });
  EXPECT_EQ(thousandth, second) << second << " allocations on the 2nd walk, " << thousandth
                                << " on the 1,000th";
  EXPECT_LT(second, fresh) << "a new control plane's walk: " << fresh;
}
