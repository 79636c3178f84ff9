// Node lifecycle: EC2 launch -> boot -> component install -> kubeadm join.
//
// Reproduces the provisioning pipeline of the paper's prototype ("after the
// instances automatically install the docker, kubelet, and kubeadm
// components, the provisioned cloud instances can join the training
// cluster"). Transition latencies carry jitter so provisioning time is a
// distribution, not a constant.
#pragma once

#include <string>

#include "cloud/instance.hpp"
#include "orchestrator/master.hpp"
#include "util/rng.hpp"

namespace cynthia::orch {

enum class NodeState {
  Requested,   ///< API call accepted, capacity being allocated
  Booting,     ///< instance OS boot
  Installing,  ///< docker + kubelet + kubeadm
  Joining,     ///< kubeadm join handshake with the master
  Ready,       ///< schedulable
  Terminated,
  Failed,  ///< join rejected (bad/expired token)
};

std::string to_string(NodeState state);

/// Latency model for the lifecycle transitions (seconds).
struct NodeTimings {
  double boot_mean = 35.0, boot_jitter = 0.25;
  double install_mean = 28.0, install_jitter = 0.25;
  double join_mean = 4.0, join_jitter = 0.25;

  /// Probability that a node's kubeadm join fails (stale token cache,
  /// transient API-server trouble); the cluster manager replaces failed
  /// nodes up to its retry budget.
  double join_failure_probability = 0.0;

  [[nodiscard]] double sample_boot(util::Rng& rng) const {
    return boot_mean * rng.jitter(boot_jitter);
  }
  [[nodiscard]] double sample_install(util::Rng& rng) const {
    return install_mean * rng.jitter(install_jitter);
  }
  [[nodiscard]] double sample_join(util::Rng& rng) const {
    return join_mean * rng.jitter(join_jitter);
  }
};

/// One managed instance.
struct Node {
  NodeId id = 0;
  cloud::InstanceType type;
  NodeState state = NodeState::Requested;
  double requested_at = 0.0;
  double ready_at = -1.0;
  double state_since = 0.0;  ///< when the current state was entered (telemetry)
  int docker_slots = 0;  ///< one docker per physical core (paper's pinning)
  int used_slots = 0;
  std::size_t billing_record = 0;  ///< the instance's cloud::BillingMeter record

  [[nodiscard]] bool ready() const { return state == NodeState::Ready; }
  [[nodiscard]] int free_slots() const { return docker_slots - used_slots; }
};

}  // namespace cynthia::orch
