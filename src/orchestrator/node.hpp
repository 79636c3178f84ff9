// Node lifecycle: EC2 launch -> boot -> component install -> kubeadm join.
//
// Reproduces the provisioning pipeline of the paper's prototype ("after the
// instances automatically install the docker, kubelet, and kubeadm
// components, the provisioned cloud instances can join the training
// cluster"). Transition latencies carry jitter so provisioning time is a
// distribution, not a constant.
#pragma once

#include <cstdint>
#include <string>

#include "cloud/instance.hpp"
#include "util/units.hpp"

namespace cynthia::orch {

using NodeId = std::uint64_t;

enum class NodeState {
  Requested,   ///< API call accepted, capacity being allocated
  Booting,     ///< instance OS boot
  Installing,  ///< docker + kubelet + kubeadm
  Joining,     ///< kubeadm join handshake with the cluster
  Ready,       ///< schedulable
  Terminated,
  Failed,  ///< join failed (an injected fault); the manager replaces the node
};

std::string to_string(NodeState state);

/// Mean latency of each lifecycle transition. Every sample is the mean times
/// a uniform factor in [1 - kLatencyJitter, 1 + kLatencyJitter].
inline constexpr util::Seconds kBootMean{35.0};
inline constexpr util::Seconds kInstallMean{28.0};
inline constexpr util::Seconds kJoinMean{4.0};
inline constexpr double kLatencyJitter = 0.25;

/// One managed instance.
struct Node {
  NodeId id = 0;
  cloud::InstanceType type;
  NodeState state = NodeState::Requested;
  double requested_at = 0.0;
  double ready_at = -1.0;
  double state_since = 0.0;  ///< when the current state was entered (telemetry)
  std::size_t billing_record = 0;  ///< the instance's cloud::BillingMeter record
};

}  // namespace cynthia::orch
