// Tests for the Kubernetes-like control plane: node lifecycle, join-failure
// repair, and deployment + billing.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <vector>

#include "cloud/instance.hpp"
#include "cloud/pricing.hpp"
#include "core/predictor.hpp"
#include "core/provisioner.hpp"
#include "ddnn/workload.hpp"
#include "orchestrator/cluster_manager.hpp"
#include "orchestrator/executor.hpp"
#include "orchestrator/node.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "util/units.hpp"

namespace orch = cynthia::orch;
namespace cc = cynthia::cloud;
namespace co = cynthia::core;
namespace cu = cynthia::util;

namespace {
const cc::InstanceType& m4() { return cc::Catalog::aws().at("m4.xlarge"); }

std::size_t running_records(const cc::BillingMeter& billing) {
  const auto& records = billing.records();
  return static_cast<std::size_t>(
      std::count_if(records.begin(), records.end(), [](const auto& r) { return r.running(); }));
}

co::ProvisionPlan simple_plan(int workers, int ps) {
  co::ProvisionPlan p;
  p.feasible = true;
  p.type = m4();
  p.n_workers = workers;
  p.n_ps = ps;
  p.iterations = 100;
  p.total_iterations = 100;
  return p;
}
}  // namespace

// ---------------------------------------------------------- cluster manager

TEST(ClusterManager, NodesWalkLifecycleToReady) {
  cynthia::sim::Simulator sim;
  cc::BillingMeter billing;
  orch::ClusterManager mgr(sim, billing, 5);
  const auto ids = mgr.launch(m4(), 3);
  EXPECT_EQ(ids.size(), 3u);
  EXPECT_TRUE(mgr.wait_all_ready());
  for (auto id : ids) {
    const auto& n = mgr.node(id);
    EXPECT_EQ(n.state, orch::NodeState::Ready);
    EXPECT_GT(n.ready_at, n.requested_at);
  }
  EXPECT_EQ(running_records(billing), 3u);
}

TEST(ClusterManager, DeployLaunchesNodesForAllDockersAndBuildsSpec) {
  cynthia::sim::Simulator sim;
  cc::BillingMeter billing;
  orch::ClusterManager mgr(sim, billing, 5);
  auto d = mgr.deploy(simple_plan(5, 2));
  for (auto id : d.nodes) EXPECT_EQ(mgr.node(id).state, orch::NodeState::Ready);
  EXPECT_EQ(d.spec.n_workers(), 5);
  EXPECT_EQ(d.spec.n_ps(), 2);
  // 7 dockers at 2 per m4.xlarge -> 4 instances.
  EXPECT_EQ(d.nodes.size(), 4u);
  EXPECT_GT(d.provisioning_seconds(), 0.0);
  // Provisioning takes boot+install+join ~ tens of seconds, not hours.
  EXPECT_LT(d.provisioning_seconds(), 300.0);
  mgr.teardown(d);
  EXPECT_EQ(running_records(billing), 0u);
  EXPECT_FALSE(d.active);
  // Idempotent teardown.
  EXPECT_NO_THROW(mgr.teardown(d));
}

TEST(ClusterManager, DeployInfeasiblePlanThrows) {
  cynthia::sim::Simulator sim;
  cc::BillingMeter billing;
  orch::ClusterManager mgr(sim, billing);
  co::ProvisionPlan bad;
  bad.feasible = false;
  EXPECT_THROW(mgr.deploy(bad), std::invalid_argument);
  EXPECT_THROW(mgr.launch(m4(), 0), std::invalid_argument);
  // A type with no cores holds no docker: rejected before anything launches.
  co::ProvisionPlan coreless = simple_plan(2, 1);
  coreless.type.physical_cores = 0;
  EXPECT_THROW(mgr.deploy(coreless), std::invalid_argument);
  EXPECT_TRUE(billing.records().empty());
  EXPECT_EQ(sim.now(), 0.0);
}

TEST(ClusterManager, BillingCoversProvisioningWindow) {
  cynthia::sim::Simulator sim;
  cc::BillingMeter billing;
  orch::ClusterManager mgr(sim, billing, 5);
  auto d = mgr.deploy(simple_plan(2, 1));
  const double ready = sim.now();
  sim.run_until(ready + 3600.0);
  mgr.teardown(d);
  // 2 instances for (provisioning + 1h) each.
  const double expect = 2 * m4().price.value() * (ready + 3600.0) / 3600.0;
  EXPECT_NEAR(billing.total(cu::Seconds{sim.now()}).value(), expect, expect * 0.01);
}

TEST(Executor, InfeasibleGoalIsRejectedBeforeAnyDeploy) {
  // No plan meets a 20 s goal for vgg19: Algorithm 1 says so, and the
  // executor refuses to deploy an infeasible plan.
  const auto& w = cynthia::ddnn::workload_by_name("vgg19");
  const auto pred = co::Predictor::build(w, m4());
  const co::Provisioner provisioner(pred.model(), pred.loss(),
                                    cc::Catalog::aws().provisionable());
  const co::ProvisionGoal goal{cu::Seconds{20.0}, 0.8};
  const co::ProvisionPlan plan = provisioner.plan(w.sync, goal);
  EXPECT_FALSE(plan.feasible);
  EXPECT_THROW(orch::execute_job({w, plan, goal}), std::invalid_argument);
}

// A reused meter restarts its clock, clears its bill and resets its manager
// per walk, so it returns what a new control plane returns, bit for bit. That
// holds after a walk that threw too: an infeasible plan, or a type with no
// cores, is rejected before its first node launches.
TEST(DeployMeter, ReusedMeterMatchesAFreshControlPlane) {
  const auto fresh = [](const co::ProvisionPlan& plan, std::uint64_t seed) {
    cynthia::sim::Simulator sim;
    cc::BillingMeter billing;
    orch::ClusterManager manager(sim, billing, seed);
    return manager.deploy(plan).provisioning_seconds();
  };
  co::ProvisionPlan infeasible;
  co::ProvisionPlan coreless = simple_plan(2, 1);
  coreless.type.physical_cores = 0;
  orch::DeployMeter meter;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    if (seed % 10 == 3) {
      EXPECT_THROW((void)meter.measure(infeasible, seed), std::invalid_argument);
    }
    if (seed % 10 == 7) {
      EXPECT_THROW((void)meter.measure(coreless, seed), std::invalid_argument);
    }
    const co::ProvisionPlan plan =
        simple_plan(1 + static_cast<int>(seed % 9), static_cast<int>(seed % 4));
    EXPECT_EQ(meter.measure(plan, seed).value(), fresh(plan, seed)) << "seed " << seed;
  }
}

TEST(NodeStateNames, AllDistinct) {
  EXPECT_EQ(orch::to_string(orch::NodeState::Booting), "Booting");
  EXPECT_EQ(orch::to_string(orch::NodeState::Ready), "Ready");
  EXPECT_EQ(orch::to_string(orch::NodeState::Failed), "Failed");
}

// ------------------------------------------------------ failure injection

TEST(ClusterManagerFaults, ReplacesFailedJoins) {
  cynthia::sim::Simulator sim;
  cc::BillingMeter billing;
  orch::ClusterManager mgr(sim, billing, 7, /*join_failure_probability=*/0.6);
  auto d = mgr.deploy(simple_plan(4, 1));
  EXPECT_GT(d.replaced_nodes, 0) << "with 60% join failures, replacements are expected";
  for (auto id : d.nodes) EXPECT_EQ(mgr.node(id).state, orch::NodeState::Ready);
  // Replaced (terminated) instances must have stopped billing; only the
  // live ones keep running.
  EXPECT_EQ(running_records(billing), d.nodes.size());
  // Replacement cycles lengthen provisioning.
  cynthia::sim::Simulator sim2;
  cc::BillingMeter billing2;
  orch::ClusterManager healthy(sim2, billing2, 7);
  auto d2 = healthy.deploy(simple_plan(4, 1));
  EXPECT_GT(d.provisioning_seconds(), d2.provisioning_seconds());
}

TEST(ClusterManagerFaults, GivesUpAfterReplacementBudget) {
  cynthia::sim::Simulator sim;
  cc::BillingMeter billing;
  orch::ClusterManager mgr(sim, billing, 7, /*join_failure_probability=*/1.0);
  EXPECT_THROW(mgr.deploy(simple_plan(4, 1)), std::runtime_error);
}

TEST(ClusterManagerFaults, ZeroProbabilityNeverReplaces) {
  cynthia::sim::Simulator sim;
  cc::BillingMeter billing;
  orch::ClusterManager mgr(sim, billing, 7);
  auto d = mgr.deploy(simple_plan(6, 2));
  EXPECT_EQ(d.replaced_nodes, 0);
}

// Every other pin deploys with a join-failure probability of 0; this one pins
// the failed-join branch. Each walk runs on a new traced control plane: plans of
// 1-9 workers and 1-3 PS on two types, seeds 1-200, three probabilities. Its
// provisioning seconds (or the time it gave up), replacements, whether it
// threw, the bill 100 s later and the journal digest fold into one value.
TEST(ClusterManagerFaults, PinnedJoinFailureWalks) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  long walks = 0, thrown = 0, replaced = 0;
  for (const char* type : {"m4.xlarge", "c3.xlarge"}) {
    for (int seed = 1; seed <= 200; ++seed) {
      co::ProvisionPlan plan = simple_plan(1 + seed % 9, 1 + (seed / 9) % 3);
      plan.type = cc::Catalog::aws().at(type);
      for (const double p : {0.3, 0.6, 1.0}) {
        cynthia::sim::Simulator sim;
        cc::BillingMeter billing;
        orch::ClusterManager mgr(sim, billing, static_cast<std::uint64_t>(seed), p);
        cynthia::telemetry::Telemetry tel;
        mgr.set_telemetry(&tel);
        bool threw = false;
        double provisioning = 0.0;
        int replaced_nodes = 0;
        try {
          const orch::Deployment d = mgr.deploy(plan);
          provisioning = d.provisioning_seconds();
          replaced_nodes = d.replaced_nodes;
        } catch (const std::runtime_error&) {
          threw = true;
          provisioning = sim.now();
        }
        sim.run_until(sim.now() + 100.0);
        mix(std::bit_cast<std::uint64_t>(provisioning));
        mix(static_cast<std::uint64_t>(replaced_nodes));
        mix(threw ? 1u : 0u);
        mix(std::bit_cast<std::uint64_t>(billing.total(cu::Seconds{sim.now()}).value()));
        mix(tel.journal.digest());
        ++walks;
        thrown += threw ? 1 : 0;
        replaced += replaced_nodes;
      }
    }
  }
  EXPECT_EQ(walks, 1200);
  EXPECT_GT(thrown, 400) << "every walk at probability 1 gives up";
  EXPECT_LT(thrown, walks);
  EXPECT_GT(replaced, 0);
  char hex[19];
  std::snprintf(hex, sizeof hex, "0x%016llx", static_cast<unsigned long long>(h));
  EXPECT_EQ(h, 0xc0a54680fcb5b0d1ull) << "join-failure walk digest " << hex;
}
