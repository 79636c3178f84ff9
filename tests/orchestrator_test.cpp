// Tests for the Kubernetes-like control plane: master/join handshake, node
// lifecycle, pod scheduling, deployment + billing, and the end-to-end
// training service.
#include <gtest/gtest.h>

#include <cmath>
#include <regex>
#include <vector>

#include "cloud/instance.hpp"
#include "cloud/pricing.hpp"
#include "core/provisioner.hpp"
#include "orchestrator/cluster_manager.hpp"
#include "orchestrator/master.hpp"
#include "orchestrator/node.hpp"
#include "orchestrator/scheduler.hpp"
#include "orchestrator/service.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace orch = cynthia::orch;
namespace cc = cynthia::cloud;
namespace co = cynthia::core;
namespace cd = cynthia::ddnn;
namespace cu = cynthia::util;

namespace {
const cc::InstanceType& m4() { return cc::Catalog::aws().at("m4.xlarge"); }

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
  const auto creds = m.issue_credentials(0.0, /*ttl=*/100.0);
  EXPECT_FALSE(m.join(1, creds, 101.0));
  EXPECT_TRUE(m.join(1, creds, 99.0));
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
  EXPECT_EQ(billing.running_count(), 3u);
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
  EXPECT_EQ(billing.running_count(), 0u);
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

// ----------------------------------------------------------------- service

TEST(TrainingService, EndToEndMeetsGoal) {
  orch::TrainingService service;
  const auto& w = cd::workload_by_name("cifar10");
  co::ProvisionGoal goal{cu::minutes(120), 0.8};
  const auto report = service.submit(w, goal);
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->plan.feasible);
  EXPECT_GT(report->profiling_seconds, 0.0);
  EXPECT_GT(report->provisioning_seconds, 0.0);
  EXPECT_LT(report->planning_seconds, 1.0) << "Alg. 1 must stay in the ms range (Sec. 5.3)";
  EXPECT_TRUE(report->time_goal_met) << report->training.total_time;
  EXPECT_TRUE(report->loss_goal_met) << report->achieved_loss;
  EXPECT_GT(report->actual_cost.value(), 0.0);
  // Billed cost must exceed the plan's pure-training estimate (provisioning
  // overhead + whole instances) but stay in its ballpark.
  EXPECT_GT(report->actual_cost.value(), report->plan.predicted_cost.value() * 0.5);
  EXPECT_LT(report->actual_cost.value(), report->plan.predicted_cost.value() * 4.0);
}

TEST(TrainingService, InfeasibleGoalReturnsNullopt) {
  orch::TrainingService service;
  const auto& w = cd::workload_by_name("vgg19");
  const auto report = service.submit(w, {cu::Seconds{20.0}, 0.8});
  EXPECT_FALSE(report.has_value());
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
  EXPECT_EQ(billing.running_count(), d.nodes.size());
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

TEST(JoinRetryPolicy, DefaultPolicyNeverDelaysAndNeverDrawsFromRng) {
  orch::JoinRetryPolicy policy;  // base 0: the historical immediate retry
  cu::Rng rng(42), untouched(42);
  for (int round = 0; round < 6; ++round) {
    EXPECT_EQ(policy.delay_seconds(round, rng), 0.0);
  }
  // A zero-delay policy must not perturb the shared random stream (deploy
  // timelines are pinned by the determinism suite).
  EXPECT_DOUBLE_EQ(rng.jitter(0.25), untouched.jitter(0.25));
}

TEST(JoinRetryPolicy, ScheduleGrowsExponentiallyAndCaps) {
  orch::JoinRetryPolicy policy;
  policy.base_seconds = 5.0;
  policy.growth = 2.0;
  policy.max_seconds = 30.0;
  cu::Rng rng(1);
  EXPECT_DOUBLE_EQ(policy.delay_seconds(0, rng), 5.0);
  EXPECT_DOUBLE_EQ(policy.delay_seconds(1, rng), 10.0);
  EXPECT_DOUBLE_EQ(policy.delay_seconds(2, rng), 20.0);
  EXPECT_DOUBLE_EQ(policy.delay_seconds(3, rng), 30.0);  // capped
  EXPECT_DOUBLE_EQ(policy.delay_seconds(9, rng), 30.0);
  EXPECT_THROW(policy.delay_seconds(-1, rng), std::invalid_argument);
}

TEST(JoinRetryPolicy, JitterIsSeededAndBounded) {
  orch::JoinRetryPolicy policy;
  policy.base_seconds = 10.0;
  policy.jitter = 0.25;
  cu::Rng a(7), b(7), c(8);
  std::vector<double> from_a, from_b;
  bool differs_across_seeds = false;
  for (int round = 0; round < 4; ++round) {
    from_a.push_back(policy.delay_seconds(round, a));
    from_b.push_back(policy.delay_seconds(round, b));
    const double other = policy.delay_seconds(round, c);
    if (other != from_a.back()) differs_across_seeds = true;
    const double nominal = std::min(10.0 * std::pow(2.0, round), policy.max_seconds);
    EXPECT_GE(from_a.back(), nominal * 0.75);
    EXPECT_LE(from_a.back(), nominal * 1.25);
  }
  EXPECT_EQ(from_a, from_b);  // same seed, same schedule
  EXPECT_TRUE(differs_across_seeds);
}

TEST(JoinRetryPolicy, BackoffLengthensFlakyDeployments) {
  orch::NodeTimings flaky;
  flaky.join_failure_probability = 0.6;
  cynthia::sim::Simulator sim;
  cc::BillingMeter billing;
  orch::ClusterManager immediate(sim, billing, 7, flaky);
  auto d = immediate.deploy(simple_plan(4, 1));

  cynthia::sim::Simulator sim2;
  cc::BillingMeter billing2;
  orch::ClusterManager patient(sim2, billing2, 7, flaky);
  orch::JoinRetryPolicy policy;
  policy.base_seconds = 20.0;
  patient.set_join_retry(policy);
  auto d2 = patient.deploy(simple_plan(4, 1));

  // Same seed, same failures; the backoff only adds waiting time.
  EXPECT_EQ(d2.replaced_nodes, d.replaced_nodes);
  EXPECT_GT(d2.provisioning_seconds(), d.provisioning_seconds());
}
