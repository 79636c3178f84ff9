// Tests for the Kubernetes-like control plane: master/join handshake, node
// lifecycle, pod scheduling, and deployment + billing.
#include <gtest/gtest.h>

#include <algorithm>
#include <regex>
#include <vector>

#include "cloud/instance.hpp"
#include "cloud/pricing.hpp"
#include "core/predictor.hpp"
#include "core/provisioner.hpp"
#include "ddnn/workload.hpp"
#include "orchestrator/cluster_manager.hpp"
#include "orchestrator/executor.hpp"
#include "orchestrator/master.hpp"
#include "orchestrator/node.hpp"
#include "orchestrator/scheduler.hpp"
#include "sim/simulator.hpp"
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

// ------------------------------------------------------------------ master

TEST(Master, IssueAndJoin) {
  orch::Master m(7);
  const auto creds = m.issue_credentials(0.0);
  EXPECT_FALSE(creds.token.empty());
  EXPECT_EQ(creds.discovery_hash.rfind("sha256:", 0), 0u);
  EXPECT_TRUE(m.join(1, creds, 10.0));
  EXPECT_TRUE(m.is_member(1));
  EXPECT_EQ(m.member_count(), 1u);
}

TEST(Master, CredentialsHaveKubeadmShape) {
  const std::regex token("[0-9a-f]{6}\\.[0-9a-f]{16}");
  const std::regex hash("sha256:[0-9a-f]{64}");
  orch::Master a(42), b(42), c(43);
  const auto creds = a.issue_credentials(0.0);
  EXPECT_TRUE(std::regex_match(creds.token, token)) << creds.token;
  EXPECT_TRUE(std::regex_match(creds.discovery_hash, hash)) << creds.discovery_hash;
  const auto same = b.issue_credentials(0.0);
  EXPECT_EQ(same.token, creds.token);
  EXPECT_EQ(same.discovery_hash, creds.discovery_hash);
  const auto other = c.issue_credentials(0.0);
  EXPECT_NE(other.token, creds.token);
  EXPECT_NE(other.discovery_hash, creds.discovery_hash);
}

TEST(Master, RejectsWrongToken) {
  orch::Master m(7);
  auto creds = m.issue_credentials(0.0);
  auto forged = creds;
  forged.token = "deadbe.ef0000000000000000";
  EXPECT_FALSE(m.join(1, forged, 1.0));
  auto bad_hash = creds;
  bad_hash.discovery_hash = "sha256:0";
  EXPECT_FALSE(m.join(1, bad_hash, 1.0));
}

TEST(Master, RejectsExpiredToken) {
  orch::Master m(7);
  const auto creds = m.issue_credentials(0.0);
  const double ttl = orch::Master::kJoinTokenTtl.value();
  EXPECT_FALSE(m.join(1, creds, ttl + 1.0));
  EXPECT_TRUE(m.join(1, creds, ttl - 1.0));
}

TEST(Master, RejectsDuplicateJoinAndJoinBeforeIssue) {
  orch::Master fresh(7);
  orch::JoinCredentials none;
  EXPECT_FALSE(fresh.join(1, none, 0.0));
  orch::Master m(7);
  const auto creds = m.issue_credentials(0.0);
  EXPECT_TRUE(m.join(1, creds, 1.0));
  EXPECT_FALSE(m.join(1, creds, 2.0));
  m.remove(1);
  EXPECT_TRUE(m.join(1, creds, 3.0));
}

// --------------------------------------------------------------- scheduler

TEST(Scheduler, BindsWhenCapacitySuffices) {
  std::vector<orch::Node> nodes(2);
  for (int i = 0; i < 2; ++i) {
    nodes[i].id = i + 1;
    nodes[i].state = orch::NodeState::Ready;
    nodes[i].docker_slots = 2;
  }
  std::vector<orch::Pod> pods{{1, orch::PodRole::ParameterServer, 0},
                              {2, orch::PodRole::Worker, 0},
                              {3, orch::PodRole::Worker, 0}};
  ASSERT_TRUE(orch::Scheduler::bind(pods, nodes));
  for (const auto& p : pods) EXPECT_TRUE(p.bound());
  EXPECT_EQ(orch::Scheduler::free_capacity(nodes), 1);
}

TEST(Scheduler, RefusesWhenOverCapacityWithoutPartialBind) {
  std::vector<orch::Node> nodes(1);
  nodes[0].id = 1;
  nodes[0].state = orch::NodeState::Ready;
  nodes[0].docker_slots = 2;
  std::vector<orch::Pod> pods{{1, orch::PodRole::Worker, 0},
                              {2, orch::PodRole::Worker, 0},
                              {3, orch::PodRole::Worker, 0}};
  EXPECT_FALSE(orch::Scheduler::bind(pods, nodes));
  for (const auto& p : pods) EXPECT_FALSE(p.bound());
  EXPECT_EQ(nodes[0].used_slots, 0);
}

TEST(Scheduler, SpreadsPsAcrossNodes) {
  std::vector<orch::Node> nodes(2);
  for (int i = 0; i < 2; ++i) {
    nodes[i].id = i + 1;
    nodes[i].state = orch::NodeState::Ready;
    nodes[i].docker_slots = 2;
  }
  std::vector<orch::Pod> pods{{1, orch::PodRole::ParameterServer, 0},
                              {2, orch::PodRole::ParameterServer, 0}};
  ASSERT_TRUE(orch::Scheduler::bind(pods, nodes));
  EXPECT_NE(pods[0].node, pods[1].node);
}

TEST(Scheduler, IgnoresNotReadyNodes) {
  std::vector<orch::Node> nodes(1);
  nodes[0].id = 1;
  nodes[0].state = orch::NodeState::Booting;
  nodes[0].docker_slots = 4;
  std::vector<orch::Pod> pods{{1, orch::PodRole::Worker, 0}};
  EXPECT_FALSE(orch::Scheduler::bind(pods, nodes));
  EXPECT_EQ(orch::Scheduler::free_capacity(nodes), 0);
}

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
    EXPECT_TRUE(mgr.master().is_member(id));
  }
  EXPECT_EQ(running_records(billing), 3u);
}

TEST(ClusterManager, DeploySchedulesAllPodsAndBuildsSpec) {
  cynthia::sim::Simulator sim;
  cc::BillingMeter billing;
  orch::ClusterManager mgr(sim, billing, 5);
  auto d = mgr.deploy(simple_plan(5, 2));
  EXPECT_EQ(d.pods.size(), 7u);
  for (const auto& p : d.pods) EXPECT_TRUE(p.bound());
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
// holds after a walk that threw too: before its first node launched (an
// infeasible plan), or with every node Ready and billed (no docker slots).
TEST(DeployMeter, ReusedMeterMatchesAFreshControlPlane) {
  const auto fresh = [](const co::ProvisionPlan& plan, std::uint64_t seed) {
    cynthia::sim::Simulator sim;
    cc::BillingMeter billing;
    orch::ClusterManager manager(sim, billing, seed);
    return manager.deploy(plan).provisioning_seconds();
  };
  co::ProvisionPlan infeasible;
  co::ProvisionPlan slotless = simple_plan(2, 1);
  slotless.type.physical_cores = 0;
  orch::DeployMeter meter;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    if (seed % 10 == 3) {
      EXPECT_THROW((void)meter.measure(infeasible, seed), std::invalid_argument);
    }
    if (seed % 10 == 7) {
      EXPECT_THROW((void)meter.measure(slotless, seed), std::runtime_error);
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
  EXPECT_EQ(orch::to_string(orch::PodRole::ParameterServer), "ps");
  EXPECT_EQ(orch::to_string(orch::PodRole::Worker), "worker");
}

// ------------------------------------------------------ failure injection

TEST(ClusterManagerFaults, ReplacesFailedJoins) {
  cynthia::sim::Simulator sim;
  cc::BillingMeter billing;
  orch::NodeTimings flaky;
  flaky.join_failure_probability = 0.6;
  orch::ClusterManager mgr(sim, billing, 7, flaky);
  auto d = mgr.deploy(simple_plan(4, 1));
  EXPECT_GT(d.replaced_nodes, 0) << "with 60% join failures, replacements are expected";
  for (const auto& p : d.pods) EXPECT_TRUE(p.bound());
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
  orch::NodeTimings hopeless;
  hopeless.join_failure_probability = 1.0;
  orch::ClusterManager mgr(sim, billing, 7, hopeless);
  EXPECT_THROW(mgr.deploy(simple_plan(4, 1)), std::runtime_error);
}

TEST(ClusterManagerFaults, ZeroProbabilityNeverReplaces) {
  cynthia::sim::Simulator sim;
  cc::BillingMeter billing;
  orch::ClusterManager mgr(sim, billing, 7);
  auto d = mgr.deploy(simple_plan(6, 2));
  EXPECT_EQ(d.replaced_nodes, 0);
}
