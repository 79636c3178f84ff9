// Cluster manager: turns a ProvisionPlan into a ready, billed cluster.
//
// Drives the AWS-CLI-style instance launch and the node lifecycle state
// machine up to the kubeadm join on one simulation clock, and accounts every
// instance-second against a BillingMeter — the resource-provisioner half of
// the paper's prototype.
#pragma once

#include <vector>

#include "cloud/instance.hpp"
#include "cloud/pricing.hpp"
#include "core/provisioner.hpp"
#include "ddnn/cluster.hpp"
#include "orchestrator/node.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace cynthia::telemetry {
struct Telemetry;
}

namespace cynthia::orch {

/// A provisioned training cluster.
struct Deployment {
  std::vector<NodeId> nodes;
  ddnn::ClusterSpec spec;       ///< what ddnn::run_training consumes
  double requested_at = 0.0;
  double ready_at = 0.0;        ///< every node joined
  bool active = false;
  int replaced_nodes = 0;       ///< join failures repaired during deploy

  [[nodiscard]] double provisioning_seconds() const { return ready_at - requested_at; }
};

class ClusterManager {
 public:
  /// `join_failure_probability` is the chance that a node's kubeadm join
  /// fails (an injected fault: stale token cache, API-server trouble).
  ClusterManager(sim::Simulator& sim, cloud::BillingMeter& billing, std::uint64_t seed = 99,
                 double join_failure_probability = 0.0);

  /// Join-failure repair budget for deploy(): total node replacements
  /// tolerated before the deployment is abandoned.
  static constexpr int kMaxNodeReplacements = 8;

  /// Launches enough instances of plan.type for all dockers (one docker per
  /// physical core), walks every node to Ready (advancing the simulation
  /// clock), replaces nodes whose join fails (up to kMaxNodeReplacements) and
  /// returns the deployment. Throws std::invalid_argument before anything
  /// launches if the plan is infeasible or its type has no cores, and
  /// std::runtime_error if the replacement budget is exhausted.
  Deployment deploy(const core::ProvisionPlan& plan);

  /// Launches `count` instances of `type`; nodes progress asynchronously.
  std::vector<NodeId> launch(const cloud::InstanceType& type, int count);

  /// Blocks (advances the clock) until every launched node left the
  /// transient states; returns false if any node Failed.
  bool wait_all_ready();

  /// Terminates the deployment's instances and stops their billing.
  void teardown(Deployment& deployment);

  [[nodiscard]] const Node& node(NodeId id) const;

  /// Attaches a per-run telemetry sink (not owned; nullptr detaches). Node
  /// lifecycle states become spans on track "i-<id>", join failures instant
  /// events + a retry counter, deploy() a "provision" span, and the billing
  /// total a gauge.
  void set_telemetry(telemetry::Telemetry* telemetry) { tel_ = telemetry; }

 private:
  friend class DeployMeter;

  sim::Simulator* sim_;
  cloud::BillingMeter* billing_;
  util::Rng rng_;
  double join_failure_probability_;
  std::vector<Node> nodes_;  ///< node `id` at index id - 1
  NodeId next_id_ = 1;
  telemetry::Telemetry* tel_ = nullptr;

  /// Forgets every node and reseeds the lifecycle stream.
  void reset(std::uint64_t seed);
  Node& node_mut(NodeId id);
  void record_state_span(const Node& node) const;
  void advance(NodeId id, NodeState next);
  [[nodiscard]] ddnn::ClusterSpec build_spec(const core::ProvisionPlan& plan) const;
};

/// Provisioning time of a plan on a throwaway control plane that is reused:
/// each measure() restarts one clock at 0, clears one billing meter and
/// resets one ClusterManager, so it returns what deploy() on a new
/// simulator, meter and manager returns, bit for bit, without building them.
class DeployMeter {
 public:
  DeployMeter() : manager_(sim_, billing_) {}
  DeployMeter(const DeployMeter&) = delete;  // the manager points at sim_ and billing_
  DeployMeter& operator=(const DeployMeter&) = delete;

  /// One deploy() of `plan` by a manager seeded with `seed`, then teardown.
  /// Deterministic in (plan, seed); throws as deploy() does, and a walk that
  /// threw leaves the meter usable.
  [[nodiscard]] util::Seconds measure(const core::ProvisionPlan& plan, std::uint64_t seed);

 private:
  sim::Simulator sim_;
  cloud::BillingMeter billing_;
  ClusterManager manager_;
};

}  // namespace cynthia::orch
