// Run-twice determinism regressions. The spot market used to hold its
// per-type traces in an unordered_map; nothing iterated it, but the layout
// was one refactor away from becoming run-order-dependent. These tests pin
// the contract end to end: the same configuration must produce bit-identical
// timelines and costs, every time, including across interleaved queries that
// grow the lazily-extended price traces in different orders.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "cloud/instance.hpp"
#include "cloud/spot.hpp"
#include "core/provisioner.hpp"
#include "ddnn/cluster.hpp"
#include "ddnn/monitor.hpp"
#include "ddnn/trainer.hpp"
#include "ddnn/workload.hpp"
#include "faults/fault_spec.hpp"
#include "core/predictor.hpp"
#include "orchestrator/executor.hpp"
#include "orchestrator/sentinel.hpp"
#include "telemetry/telemetry.hpp"

namespace cc = cynthia::cloud;
namespace cd = cynthia::ddnn;
namespace core = cynthia::core;
namespace cf = cynthia::faults;
namespace ct = cynthia::telemetry;
namespace cu = cynthia::util;
namespace orch = cynthia::orch;

namespace {

const cc::InstanceType& m4() { return cc::Catalog::aws().at("m4.xlarge"); }

/// plan_spot's answer built by hand: cifar10 on `workers` + 1 m4.xlarge for
/// `iterations` updates at `bid_multiplier` x the mean spot price.
core::SpotProvisionPlan spot_answer(const cc::SpotMarket& market,
                                    core::FleetDurability durability, int workers,
                                    long iterations, double bid_multiplier) {
  core::SpotProvisionPlan a;
  a.feasible = true;
  a.durability = durability;
  a.plan.feasible = true;
  a.plan.type = m4();
  a.plan.n_workers = workers;
  a.plan.n_ps = 1;
  a.plan.iterations = a.plan.total_iterations = iterations;
  a.plan.t_iter = 8.2 / workers;  // cifar10 on m4.xlarge workers
  a.plan.predicted_time = cu::Seconds{a.plan.t_iter * static_cast<double>(iterations)};
  a.plan.predicted_cost = core::plan_cost(m4(), workers, 1, a.plan.predicted_time);
  a.bid = cu::DollarsPerHour{market.mean_price("m4.xlarge") * bid_multiplier};
  a.checkpoint_interval = cu::Seconds{600.0};
  a.expected_cost = a.plan.predicted_cost;
  return a;
}

orch::JobRun run_spot(const cc::SpotMarket& market, const core::SpotProvisionPlan& answer,
                      ct::Telemetry* tel) {
  orch::JobSpec spec{cd::workload_by_name("cifar10"), answer.plan, {cu::hours(12.0), 1e9}};
  spec.policy = orch::Spot{market, answer};
  spec.seed = 7;
  spec.training.telemetry = tel;
  return orch::execute_job(spec);
}

// Orders every scalar a run produces into one comparable digest.
struct RunDigest {
  double wall_time = 0.0;
  double provisioning = 0.0;
  double cost = 0.0;
  long crashes = 0;
  long lost_iterations = 0;
  long iterations = 0;
  std::uint64_t journal = 0;

  bool operator==(const RunDigest&) const = default;
};

RunDigest spot_digest(std::uint64_t market_seed) {
  cc::SpotMarket market(cc::Catalog::aws(), market_seed);
  ct::Telemetry tel;
  const auto r = run_spot(market, spot_answer(market, core::FleetDurability::kAllSpot, 3, 400, 1.6),
                          &tel);
  const cd::TrainResult& t = r.training;
  return {t.total_time,     r.provisioning.value(),   r.actual_cost.value(),
          t.faults.crashes, t.faults.lost_iterations, t.iterations,
          tel.journal.digest()};
}

}  // namespace

TEST(Determinism, SpotMarketPricesIdenticalAcrossInstances) {
  cc::SpotMarket a(cc::Catalog::aws(), 11), b(cc::Catalog::aws(), 11);
  for (const char* type : {"m4.xlarge", "m1.xlarge"}) {
    for (double t = 0.0; t < 100000.0; t += 7321.0) {
      EXPECT_DOUBLE_EQ(a.price_at(type, t), b.price_at(type, t)) << type << " @ " << t;
    }
  }
}

TEST(Determinism, SpotMarketPricesIndependentOfQueryOrder) {
  // Query one market far-first (extending traces in one big step) and the
  // other near-first (many small extensions); per-type streams must agree.
  cc::SpotMarket far_first(cc::Catalog::aws(), 11), near_first(cc::Catalog::aws(), 11);
  (void)far_first.price_at("m1.xlarge", 90000.0);
  (void)far_first.price_at("m4.xlarge", 90000.0);
  for (double t = 0.0; t <= 90000.0; t += 4567.0) {
    (void)near_first.price_at("m4.xlarge", t);
    (void)near_first.price_at("m1.xlarge", t);
  }
  for (double t = 0.0; t <= 90000.0; t += 4567.0) {
    EXPECT_DOUBLE_EQ(far_first.price_at("m4.xlarge", t), near_first.price_at("m4.xlarge", t));
    EXPECT_DOUBLE_EQ(far_first.price_at("m1.xlarge", t), near_first.price_at("m1.xlarge", t));
  }
}

TEST(Determinism, SpotRunTwiceYieldsIdenticalDigests) {
  const RunDigest first = spot_digest(17);
  const RunDigest second = spot_digest(17);
  EXPECT_EQ(first, second);
  EXPECT_GT(first.wall_time, 0.0);
  EXPECT_GT(first.cost, 0.0);
}

TEST(Determinism, TrainingRunTwiceYieldsIdenticalTimeline) {
  const auto& w = cd::workload_by_name("resnet32");
  auto cluster = cd::ClusterSpec::homogeneous(m4(), 4, 2);
  cd::TrainOptions o;
  o.iterations = 60;
  const auto a = cd::run_training(cluster, w, o);
  const auto b = cd::run_training(cluster, w, o);
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.final_loss, b.final_loss);
  EXPECT_EQ(a.computation_time, b.computation_time);
  EXPECT_EQ(a.communication_time, b.communication_time);
  ASSERT_EQ(a.loss_curve.size(), b.loss_curve.size());
  for (std::size_t i = 0; i < a.loss_curve.size(); ++i) {
    EXPECT_EQ(a.loss_curve[i].loss, b.loss_curve[i].loss);
  }
}

namespace {

/// A monitor that watches every probe but never acts — per the contract in
/// ddnn/monitor.hpp its mere presence must not perturb the simulation.
class NullMonitor : public cd::TrainingMonitor {
 public:
  cd::MonitorAction observe(const cd::HealthProbe& probe) override {
    ++probes;
    last_iteration = probe.iteration;
    return {};
  }
  int probes = 0;
  long last_iteration = 0;
};

}  // namespace

TEST(Determinism, NeverActingMonitorIsBitIdenticalToNoMonitor) {
  for (const char* workload : {"mnist", "resnet32"}) {  // BSP and ASP
    const auto& w = cd::workload_by_name(workload);
    auto cluster = cd::ClusterSpec::homogeneous(m4(), 4, 1);
    cd::TrainOptions bare;
    bare.iterations = 80;
    const auto without = cd::run_training(cluster, w, bare);

    NullMonitor monitor;
    cd::TrainOptions observed = bare;
    observed.monitor = &monitor;
    const auto with = cd::run_training(cluster, w, observed);

    EXPECT_EQ(without.total_time, with.total_time) << workload;
    EXPECT_EQ(without.final_loss, with.final_loss) << workload;
    EXPECT_EQ(without.computation_time, with.computation_time) << workload;
    EXPECT_EQ(without.communication_time, with.communication_time) << workload;
    ASSERT_EQ(without.loss_curve.size(), with.loss_curve.size()) << workload;
    for (std::size_t i = 0; i < without.loss_curve.size(); ++i) {
      EXPECT_EQ(without.loss_curve[i].loss, with.loss_curve[i].loss) << workload;
    }
    EXPECT_GT(monitor.probes, 0) << workload;  // the monitor really was probed
    EXPECT_FALSE(with.monitor.stopped) << workload;
    EXPECT_TRUE(with.monitor.exclusions.empty()) << workload;
  }
}

TEST(Determinism, NeverActingMonitorIsBitIdenticalUnderFaults) {
  // Slow/NIC degradations bend the timeline; the probe bookkeeping still
  // must not add or reorder a single simulator event.
  const auto& w = cd::workload_by_name("cifar10");
  auto cluster = cd::ClusterSpec::homogeneous(m4(), 4, 1);
  const auto schedule =
      cynthia::faults::FaultSchedule::parse("slow:wk1@60x2+120;nic:wk2@90=80+120");
  cd::TrainOptions bare;
  bare.iterations = 120;
  bare.faults = &schedule;
  const auto without = cd::run_training(cluster, w, bare);

  NullMonitor monitor;
  cd::TrainOptions observed = bare;
  observed.monitor = &monitor;
  const auto with = cd::run_training(cluster, w, observed);

  EXPECT_EQ(without.total_time, with.total_time);
  EXPECT_EQ(without.final_loss, with.final_loss);
  EXPECT_EQ(without.faults.slowdowns, with.faults.slowdowns);
  EXPECT_EQ(without.faults.nic_degradations, with.faults.nic_degradations);
  EXPECT_EQ(without.faults.degraded_node_seconds, with.faults.degraded_node_seconds);
  EXPECT_GT(monitor.probes, 0);
}

// ------------------------------------------------------ pinned job digests
//
// The tests above compare two runs of the same build. These pin the job
// paths' outputs to constants, so a refactor that changes every run the same
// way still fails. Every job runs on orch::execute_job: the profile -> plan
// -> execute pipeline, repair-in-place (with the fault-free baseline run
// beside it), the sentinel (without a provisioner, journal digest included;
// also through the SloSentinel adapter bench/e2e calls) and spot (mixed and
// all-spot fleets on two markets, journal digest included).

namespace {

/// FNV-1a over the bit patterns of every field a job report carries.
class Fold {
 public:
  Fold& add(double x) { return mix(std::bit_cast<std::uint64_t>(x)); }
  Fold& add(long x) { return mix(static_cast<std::uint64_t>(x)); }
  Fold& add(int x) { return mix(static_cast<std::uint64_t>(static_cast<long>(x))); }
  Fold& add(bool x) { return mix(x ? 1u : 0u); }
  Fold& add(std::uint64_t x) { return mix(x); }
  Fold& add(const std::string& s) {
    for (const char c : s) mix(static_cast<unsigned char>(c));
    return mix(s.size());
  }
  Fold& add(const std::vector<double>& v) {
    for (const double x : v) add(x);
    return mix(v.size());
  }
  Fold& add(const cd::TrainResult& r) {
    add(r.iterations).add(r.total_time).add(r.computation_time).add(r.communication_time);
    add(r.avg_iteration_time).add(r.worker_cpu_util).add(r.ps_cpu_util);
    add(r.avg_worker_cpu_util).add(r.avg_fast_worker_cpu_util).add(r.avg_ps_cpu_util);
    add(r.ps_ingress_avg_mbps).add(r.ps_ingress_peak_mbps).add(r.final_loss);
    for (const cd::LossSample& s : r.loss_curve) add(s.iteration).add(s.loss);
    add(r.stopped_early);
    const cd::FaultSummary& f = r.faults;
    add(f.injected).add(f.crashes).add(f.slowdowns).add(f.nic_degradations).add(f.blips);
    add(f.lost_iterations).add(f.outage_seconds).add(f.degraded_node_seconds);
    for (const cd::FaultEventOutcome& e : f.events) {
      add(static_cast<int>(e.spec.kind)).add(e.spec.on_ps).add(e.spec.target);
      add(e.spec.time_seconds).add(e.spec.recovery_seconds);
      add(e.fired).add(e.injected_at).add(e.recovered_at).add(e.lost_iterations);
    }
    const cd::MonitorOutcome& m = r.monitor;
    for (const cd::MonitorExclusion& e : m.exclusions) add(e.worker).add(e.at).add(e.replaced_at);
    add(m.stopped).add(m.stop_reason).add(m.downgraded).add(m.downgraded_at);
    return add(m.downgraded_at_iteration).add(m.staleness_bound);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  Fold& mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
    return *this;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

core::ProvisionPlan pinned_plan(int n_workers, int n_ps, long iterations) {
  core::ProvisionPlan plan;
  plan.feasible = true;
  plan.type = m4();
  plan.n_workers = n_workers;
  plan.n_ps = n_ps;
  plan.iterations = iterations;
  plan.total_iterations = iterations;
  return plan;
}

/// One fault run: a hand-built plan, a schedule mixing every fault kind on
/// workers and PS nodes, and a goal (Tg, l_g).
struct FaultCase {
  const char* workload;
  int n_workers;
  int n_ps;
  long iterations;
  const char* schedule;
  double tg_seconds;
  double target_loss;
};

const FaultCase kFaultCases[] = {
    {"mnist", 4, 1, 300, "crash:ps0@3;slow:wk0@1x2+4", 3600.0, 1.0},
    {"mnist", 4, 1, 300, "crash:wk1@1.5+2;slow:wk0@0.5x3;nic:wk2@2=40;crash:ps0@3+1.5", 12.0,
     1.0},
    {"resnet32", 4, 1, 150, "crash:wk1@30;blip:wk2@10x100+5", 7200.0, 20.0},
    {"cifar10", 4, 1, 200, "slow:wk1@100x4+100000;blip:wk3@50x100+10;nic:ps0@60*0.25+300",
     600.0, 1e9},
    {"cifar10", 4, 2, 300, "crash:ps1@80;nic:wk0@40=80+120;slow:ps0@30x2+60;crash:wk2@200",
     900.0, 1e9},
    {"resnet32", 8, 1, 300, "blip:ps0@20x50+5;crash:wk3@10;crash:wk5@40+20;nic:ps0@30=200",
     1800.0, 20.0},
};

orch::JobSpec fault_spec(const FaultCase& c, orch::JobPolicy policy) {
  orch::JobSpec spec{cd::workload_by_name(c.workload),
                     pinned_plan(c.n_workers, c.n_ps, c.iterations),
                     {cu::Seconds{c.tg_seconds}, c.target_loss},
                     cf::FaultSchedule::parse(c.schedule),
                     std::move(policy)};
  spec.seed = 7;
  return spec;
}

/// Repair-in-place, folded with its fault-free baseline: the same spec run
/// again with no faults.
std::uint64_t repair_digest(const FaultCase& c) {
  orch::JobSpec spec = fault_spec(c, orch::RepairInPlace{});
  const orch::JobRun r = orch::execute_job(spec);
  spec.faults = {};
  const orch::JobRun baseline = orch::execute_job(spec);
  Fold f;
  f.add(r.training).add(r.achieved_loss).add(r.replanned).add(r.provisioning.value());
  f.add(r.restore.value()).add(r.replacement_provisioning).add(r.resume_at);
  f.add(r.actual_cost.value()).add(r.time_goal_met).add(r.loss_goal_met);
  f.add(baseline.training.total_time).add(baseline.actual_cost.value());
  f.add(r.training.total_time - baseline.training.total_time);
  return f.add(r.actual_cost.value() - baseline.actual_cost.value()).value();
}

std::uint64_t sentinel_fold(const orch::JobRun& r, const ct::Telemetry& tel) {
  Fold f;
  f.add(r.training).add(r.achieved_loss).add(r.replanned).add(r.added_ps).add(r.segments);
  f.add(r.provisioning.value()).add(r.actual_cost.value()).add(r.time_goal_met);
  f.add(r.loss_goal_met);
  for (const orch::DetectionEvent& d : r.detections) {
    f.add(d.at.value()).add(d.kind).add(d.worker).add(d.severity);
  }
  for (const orch::MitigationRecord& m : r.mitigations) {
    f.add(m.at.value()).add(m.action).add(m.detail);
  }
  return f.add(tel.journal.digest()).value();
}

/// The sentinel case through execute_job under the Sentinel policy.
std::uint64_t sentinel_digest(const FaultCase& c) {
  ct::Telemetry tel;
  orch::JobSpec spec = fault_spec(c, orch::Sentinel{});
  spec.training.telemetry = &tel;
  return sentinel_fold(orch::execute_job(spec), tel);
}

/// The same case through the SloSentinel adapter, bench/e2e's path.
std::uint64_t adapter_digest(const FaultCase& c) {
  ct::Telemetry tel;
  orch::SentinelOptions options;
  options.seed = 7;
  options.training.telemetry = &tel;
  const auto r = orch::SloSentinel(options).run(
      cd::workload_by_name(c.workload), pinned_plan(c.n_workers, c.n_ps, c.iterations),
      cf::FaultSchedule::parse(c.schedule), {cu::Seconds{c.tg_seconds}, c.target_loss});
  return sentinel_fold(r, tel);
}

}  // namespace

TEST(Determinism, PinnedSubmitDigests) {
  struct Case {
    const char* workload;
    double tg_minutes;
    double target_loss;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"mnist", 30.0, 0.9, 0x10c89bb737979ea2ull},
      {"resnet32", 60.0, 20.0, 0xee7d354ab6d52462ull},
      {"cifar10", 120.0, 0.8, 0x6450dbd5a3b0df31ull},
      {"vgg19", 60.0, 0.8, 0x46219d6838e59981ull},
  };
  for (const Case& c : cases) {
    // Profile on m4.xlarge, Algorithm 1 over the provisionable catalog, then
    // one fault-free repair-in-place run of the plan.
    const auto& w = cd::workload_by_name(c.workload);
    const core::Predictor predictor = core::Predictor::build(w, m4());
    const core::Provisioner provisioner(predictor.model(), predictor.loss(),
                                        cc::Catalog::aws().provisionable());
    const core::ProvisionGoal goal{cu::minutes(c.tg_minutes), c.target_loss};
    const core::ProvisionPlan plan = provisioner.plan(w.sync, goal);
    ASSERT_TRUE(plan.feasible) << c.workload;
    const orch::JobRun r = orch::execute_job({w, plan, goal});
    Fold f;
    f.add(plan.n_workers).add(plan.n_ps).add(plan.type.name);
    f.add(plan.total_iterations).add(r.provisioning.value()).add(r.training);
    f.add(r.achieved_loss).add(r.actual_cost.value()).add(r.time_goal_met);
    f.add(r.loss_goal_met);
    EXPECT_EQ(hex(f.value()), hex(c.digest)) << c.workload;
  }
}

TEST(Determinism, PinnedRepairInPlaceDigests) {
  const std::uint64_t expected[] = {0x54c23db5ecdba62bull, 0x59ee2c3a0ec4fb0bull,
                                    0xa658f2f7b8bbed1dull, 0xed86a2350c08d13dull,
                                    0x2e30401d8ce181a2ull, 0x09fbdf7f3d640320ull};
  for (std::size_t i = 0; i < std::size(kFaultCases); ++i) {
    EXPECT_EQ(hex(repair_digest(kFaultCases[i])), hex(expected[i])) << kFaultCases[i].schedule;
  }
}

TEST(Determinism, PinnedSentinelDigests) {
  const std::uint64_t expected[] = {0x909f0e8edb1d6673ull, 0xa2e21fff06a2d7f3ull,
                                    0x6018827d1c9eec2bull, 0x0d62acac16faaadeull,
                                    0x19baee1e2e3c715full, 0xa8c7703042e4ce09ull};
  for (std::size_t i = 0; i < std::size(kFaultCases); ++i) {
    EXPECT_EQ(hex(sentinel_digest(kFaultCases[i])), hex(expected[i])) << kFaultCases[i].schedule;
    EXPECT_EQ(hex(adapter_digest(kFaultCases[i])), hex(expected[i]))
        << "SloSentinel: " << kFaultCases[i].schedule;
  }
}

TEST(Determinism, PinnedSpotRunDigests) {
  struct Case {
    core::FleetDurability durability;
    std::uint64_t market_seed;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {core::FleetDurability::kMixed, 11, 0x00dd91b65ea71cf5ull},
      {core::FleetDurability::kAllSpot, 11, 0xcb35c32e78160296ull},
      {core::FleetDurability::kMixed, 42, 0x1ac8ae008ca3a204ull},
      {core::FleetDurability::kAllSpot, 42, 0x37bf1816d1dfd0ecull},
  };
  for (const Case& c : cases) {
    cc::SpotMarket market(cc::Catalog::aws(), c.market_seed);
    ct::Telemetry tel;
    const auto r = run_spot(market, spot_answer(market, c.durability, 2, 600, 1.1), &tel);
    Fold f;
    f.add(r.training).add(r.provisioning.value()).add(r.actual_cost.value());
    f.add(r.time_goal_met).add(r.restore.value());
    const std::string label =
        std::string(core::to_string(c.durability)) + " @ seed " + std::to_string(c.market_seed);
    EXPECT_GT(r.training.faults.crashes, 0) << label;
    EXPECT_EQ(hex(f.add(tel.journal.digest()).value()), hex(c.digest)) << label;
  }
}

// --------------------------------------------------- pinned trainer digests
//
// The job digests above reach the trainer only through the orchestrator, and
// none of them runs SSP or the pipelined pushes that start the most flows per
// completion. These pin run_training itself: the paper's four workloads x
// {BSP, ASP, SSP} x three cluster shapes (one with two PS shards, one with
// stragglers), each fault-free and under one mixed fault schedule, plus one
// unpipelined run, one under an acting monitor and one with ingress tracing.

namespace {

constexpr long kPinnedIterations = 120;

/// Excludes the last worker (replaced 5 s later) at its 10th probe, and
/// cuts a BSP run with a downgrade to SSP at its 30th.
class ScriptedMonitor : public cd::TrainingMonitor {
 public:
  cd::MonitorAction observe(const cd::HealthProbe& probe) override {
    cd::MonitorAction action;
    ++probes_;
    if (probes_ == 10) {
      action.kind = cd::MonitorAction::Kind::kExcludeWorker;
      action.target = static_cast<int>(probe.worker_busy_seconds.size()) - 1;
      action.replacement_after_seconds = 5.0;
      action.reason = "scripted-exclude";
    } else if (probes_ == 30 && probe.mode == cd::SyncMode::BSP) {
      action.kind = cd::MonitorAction::Kind::kDowngradeSsp;
      action.staleness_bound = 2;
      action.reason = "scripted-downgrade";
    }
    return action;
  }

 private:
  int probes_ = 0;
};

/// One schedule mixing every fault kind, timed as fractions of the run's
/// fault-free length `t` so each event lands inside every run: a worker
/// slowdown, a PS NIC degradation, a replaced worker crash, a worker blip and
/// a replaced PS crash (which rolls back to the last checkpoint).
cf::FaultSchedule mixed_faults(double t) {
  std::vector<cf::FaultSpec> events(5);
  events[0].kind = cf::FaultKind::kSlowdown;
  events[0].target = 0;
  events[0].time_seconds = 0.15 * t;
  events[0].slowdown_factor = 3.0;
  events[0].recovery_seconds = 0.3 * t;
  events[1].kind = cf::FaultKind::kNicDegradation;
  events[1].on_ps = true;
  events[1].time_seconds = 0.25 * t;
  events[1].degraded_fraction = 0.25;
  events[1].recovery_seconds = 0.3 * t;
  events[2].kind = cf::FaultKind::kCrash;
  events[2].target = 1;
  events[2].time_seconds = 0.4 * t;
  events[2].recovery_seconds = 0.15 * t;
  events[3].kind = cf::FaultKind::kTransientBlip;
  events[3].target = 2;
  events[3].time_seconds = 0.55 * t;
  events[3].slowdown_factor = 50.0;
  events[3].recovery_seconds = 0.05 * t;
  events[4].kind = cf::FaultKind::kCrash;
  events[4].on_ps = true;
  events[4].time_seconds = 0.7 * t;
  events[4].recovery_seconds = 0.05 * t;
  return cf::FaultSchedule(std::move(events));
}

std::uint64_t train_digest(const cd::TrainResult& r) { return Fold().add(r).value(); }

}  // namespace

TEST(Determinism, PinnedTrainDigests) {
  // Grid order: workload, mode, shape; fault-free then faulted per cell.
  const std::uint64_t grid[] = {
      0x8a8b14fef93b7b99ull, 0x65af0abb748dd1baull, 0x6ae9d9bd6611faebull, 0x5ec111365f6be1ceull,
      0x5ee41ec2dbaa5230ull, 0x9ee378c0d6b09c39ull, 0x0cf9665a10340a51ull, 0xad0e255716a53ec0ull,
      0xf30491245fab6e3cull, 0xfbf61b63c348145cull, 0x2686e48e00789cbbull, 0x8bcbb56001fd077full,
      0x847830e59f3ad84cull, 0x86deb5eae5c26145ull, 0x5980b94b7f777f03ull, 0x60bc8eed50b4c88bull,
      0x445d87503ff6084eull, 0xc7ff5039b2479df0ull, 0xb7db7c53bf849f5bull, 0x269788528b309c8full,
      0xd4f79560e69fa01full, 0xd37325768b633636ull, 0x3183b50696c801fbull, 0xb7a9198dbc72bf96ull,
      0x7785ce4a13dbb6ebull, 0x6809b4fa07f41f13ull, 0x32c00b0c7c89b274ull, 0x22040a2e70c31b0cull,
      0xa0db2bcafa3ce687ull, 0xc7ea3cf7bb91be89ull, 0xf9728f6c2500c338ull, 0x60565f97b0206ee4ull,
      0x85df6759897c75f7ull, 0x03e7a97f4004db0aull, 0x6455188fb526003cull, 0x9ad09268bcbbc0f5ull,
      0xe5f49a8a19e78ae2ull, 0x2f67dbb50b22c973ull, 0xbe3be5ef60669a18ull, 0xd629b3f2e4a3a423ull,
      0x56242060c9115b64ull, 0xe367d78eebdea139ull, 0x22ce02f37d103054ull, 0x24a5630450305e37ull,
      0xa25d17a390f7b629ull, 0xe14135f6e796521bull, 0x33606c883c422ce0ull, 0x39b3fdd23229efd7ull,
      0x8a1b9f2bccda9fe8ull, 0x442cce4e8aa5fe35ull, 0x3a6f1325bc3bc492ull, 0xd9c2eac4736a07bbull,
      0xad92ed7fd5a412e5ull, 0x23c3c5ed7d776f90ull, 0x88944d94bca23384ull, 0x64e9b8418260d7f1ull,
      0x9174c21cb385ae74ull, 0x595b1f663510af88ull, 0x0f3c0bf1a4556216ull, 0xdb6b99d2f77826a1ull,
      0xcb92d9566e90cf7full, 0xc571683c555d37e2ull, 0xfa7fda1a49820e20ull, 0x66d4094cd01cedddull,
      0xeb9587c979a8c9b1ull, 0x95343dac8fdf0ff1ull, 0xa82fc3b38cc23540ull, 0x14a680d9b4006944ull,
      0x06eed98cadd8716bull, 0xe3abc5f8a8b69e35ull, 0x1649412391c6db0eull, 0xb201264175e605d9ull,
  };
  const cc::InstanceType& m1 = cc::Catalog::aws().at("m1.xlarge");
  const cd::ClusterSpec shapes[] = {cd::ClusterSpec::homogeneous(m4(), 4, 1),
                                    cd::ClusterSpec::homogeneous(m4(), 6, 2),
                                    cd::ClusterSpec::with_stragglers(m4(), m1, 6, 1)};
  const char* shape_names[] = {"m4 4+1", "m4 6+2", "stragglers 6+1"};
  std::size_t i = 0;
  for (const char* workload : {"mnist", "cifar10", "resnet32", "vgg19"}) {
    for (const cd::SyncMode mode : {cd::SyncMode::BSP, cd::SyncMode::ASP, cd::SyncMode::SSP}) {
      cd::WorkloadSpec w = cd::workload_by_name(workload);
      w.sync = mode;
      for (std::size_t s = 0; s < std::size(shapes); ++s) {
        const std::string label =
            std::string(workload) + " " + cd::to_string(mode) + " " + shape_names[s];
        cd::TrainOptions o;
        o.iterations = kPinnedIterations;
        const auto clean = cd::run_training(shapes[s], w, o);
        const cf::FaultSchedule schedule = mixed_faults(clean.total_time);
        o.faults = &schedule;
        const auto faulted = cd::run_training(shapes[s], w, o);
        ASSERT_GT(faulted.faults.injected, 0) << label;
        EXPECT_EQ(hex(train_digest(clean)), hex(grid[i++])) << label;
        EXPECT_EQ(hex(train_digest(faulted)), hex(grid[i++])) << label << " + faults";
      }
    }
  }
  ASSERT_EQ(i, std::size(grid));

  const auto& cifar10 = cd::workload_by_name("cifar10");
  cd::TrainOptions unpipelined;
  unpipelined.iterations = kPinnedIterations;
  unpipelined.comm_pipeline_blocks = 1;
  EXPECT_EQ(hex(train_digest(cd::run_training(shapes[1], cifar10, unpipelined))),
            hex(0xe39effe8366d053aull))
      << "comm_pipeline_blocks = 1";

  ScriptedMonitor monitor;
  cd::TrainOptions monitored;
  monitored.iterations = kPinnedIterations;
  monitored.monitor = &monitor;
  const auto acted = cd::run_training(shapes[2], cifar10, monitored);
  ASSERT_FALSE(acted.monitor.exclusions.empty());
  ASSERT_TRUE(acted.monitor.downgraded);
  ASSERT_TRUE(acted.stopped_early);  // the downgrade cuts; the executor continues
  EXPECT_EQ(hex(train_digest(acted)), hex(0x6fce4b83136ec685ull)) << "acting monitor";

  cd::TrainOptions traced;
  traced.iterations = kPinnedIterations;
  traced.trace_bucket_seconds = 0.5;
  const auto ingress = cd::run_training(shapes[1], cd::workload_by_name("vgg19"), traced);
  ASSERT_FALSE(ingress.ps_ingress_trace.empty());
  Fold f;
  f.add(ingress);
  for (const cu::TimeBucket& b : ingress.ps_ingress_trace) f.add(b.start).add(b.width).add(b.value);
  EXPECT_EQ(hex(f.value()), hex(0xd5e440b4a65ce218ull)) << "trace_bucket_seconds = 0.5";
}
