#include "orchestrator/cluster_manager.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/telemetry.hpp"
#include "util/check.hpp"

namespace cynthia::orch {

namespace {
std::string node_track(NodeId id) { return "i-" + std::to_string(id); }

/// One transition's latency: its mean times a uniform jitter factor.
double sample_latency(util::Seconds mean, util::Rng& rng) {
  return (mean * rng.jitter(kLatencyJitter)).value();
}
}  // namespace

/// Emits the span for the state the node is currently leaving, plus the
/// matching node-lifecycle journal record.
void ClusterManager::record_state_span(const Node& node) const {
  const double now = sim_->now();
  if (now > node.state_since) {
    tel_->tracer.span(node_track(node.id), to_string(node.state), "node", node.state_since, now);
    tel_->journal.event(node.state_since, telemetry::JournalKind::kNodeLifecycle,
                        node_track(node.id), to_string(node.state), now - node.state_since);
  }
}

ClusterManager::ClusterManager(sim::Simulator& sim, cloud::BillingMeter& billing,
                               std::uint64_t seed, double join_failure_probability)
    : sim_(&sim),
      billing_(&billing),
      rng_(seed),
      join_failure_probability_(join_failure_probability) {}

void ClusterManager::reset(std::uint64_t seed) {
  rng_.seed(seed);
  nodes_.clear();
  next_id_ = 1;
}

const Node& ClusterManager::node(NodeId id) const {
  if (id == 0 || id > nodes_.size()) throw std::out_of_range("ClusterManager: unknown node");
  return nodes_[id - 1];
}

Node& ClusterManager::node_mut(NodeId id) { return const_cast<Node&>(node(id)); }

std::vector<NodeId> ClusterManager::launch(const cloud::InstanceType& type, int count) {
  if (count <= 0) throw std::invalid_argument("ClusterManager::launch: count must be > 0");
  std::vector<NodeId> ids;
  ids.reserve(count);
  for (int i = 0; i < count; ++i) {
    const NodeId id = next_id_++;
    Node& n = nodes_.emplace_back();
    n.id = id;
    n.type = type;
    n.requested_at = sim_->now();
    n.state_since = sim_->now();
    n.billing_record = billing_->start(node_track(id), type, util::Seconds{sim_->now()});
    ids.push_back(id);
    advance(id, NodeState::Booting);
  }
  return ids;
}

void ClusterManager::advance(NodeId id, NodeState next) {
  Node& n = node_mut(id);
  if (tel_) record_state_span(n);
  n.state = next;
  n.state_since = sim_->now();
  switch (next) {
    case NodeState::Booting:
      sim_->after(sample_latency(kBootMean, rng_),
                  [this, id] { advance(id, NodeState::Installing); });
      break;
    case NodeState::Installing:
      sim_->after(sample_latency(kInstallMean, rng_),
                  [this, id] { advance(id, NodeState::Joining); });
      break;
    case NodeState::Joining:
      sim_->after(sample_latency(kJoinMean, rng_), [this, id] {
        // kubeadm join. A fraction of joins fail transiently (an injected
        // fault); a failed node lands in Failed for deploy() to replace.
        Node& node = node_mut(id);
        if (!rng_.chance(join_failure_probability_)) {
          node.ready_at = sim_->now();
          advance(id, NodeState::Ready);
        } else {
          if (tel_) {
            record_state_span(node);
            tel_->tracer.instant(node_track(id), "join_failed", "node", sim_->now());
            tel_->metrics.counter(telemetry::metric::kJoinRetries).inc();
            tel_->journal.event(sim_->now(), telemetry::JournalKind::kNodeLifecycle,
                                node_track(id), "join_failed");
          }
          node.state = NodeState::Failed;
          node.state_since = sim_->now();
        }
      });
      break;
    case NodeState::Ready:
    case NodeState::Requested:
    case NodeState::Terminated:
    case NodeState::Failed:
      break;
  }
}

bool ClusterManager::wait_all_ready() {
  auto transient = [](NodeState s) {
    return s == NodeState::Requested || s == NodeState::Booting ||
           s == NodeState::Installing || s == NodeState::Joining;
  };
  // The lifecycle is fully event-driven; drain events until no node is in a
  // transient state.
  while (std::any_of(nodes_.begin(), nodes_.end(),
                     [&](const Node& n) { return transient(n.state); })) {
    if (!sim_->step()) break;
  }
  return std::all_of(nodes_.begin(), nodes_.end(), [&](const Node& n) {
    return n.state == NodeState::Ready || n.state == NodeState::Terminated;
  });
}

ddnn::ClusterSpec ClusterManager::build_spec(const core::ProvisionPlan& plan) const {
  ddnn::ClusterSpec spec;
  spec.workers.assign(plan.n_workers, ddnn::DockerSpec::from(plan.type));
  spec.ps.assign(plan.n_ps, ddnn::DockerSpec::from(plan.type));
  return spec;
}

Deployment ClusterManager::deploy(const core::ProvisionPlan& plan) {
  if (!plan.feasible) throw std::invalid_argument("ClusterManager::deploy: infeasible plan");
  const int per_instance = plan.type.physical_cores;
  if (per_instance < 1) {
    throw std::invalid_argument("ClusterManager::deploy: " + plan.type.name + " has no cores");
  }
  Deployment d;
  d.requested_at = sim_->now();

  const int dockers = plan.n_workers + plan.n_ps;
  const int instances = (dockers + per_instance - 1) / per_instance;
  d.nodes = launch(plan.type, instances);
  // Walk everything to Ready, replacing nodes whose join failed.
  while (true) {
    wait_all_ready();
    std::vector<NodeId> failed;
    for (NodeId id : d.nodes) {
      if (node(id).state == NodeState::Failed) failed.push_back(id);
    }
    if (failed.empty()) break;
    if (d.replaced_nodes + static_cast<int>(failed.size()) > kMaxNodeReplacements) {
      throw std::runtime_error("ClusterManager::deploy: join-failure budget exhausted");
    }
    for (NodeId id : failed) {
      // Terminate the broken instance (stop its meter) and buy a new one.
      Node& broken = node_mut(id);
      broken.state = NodeState::Terminated;
      billing_->stop(broken.billing_record, util::Seconds{sim_->now()});
      d.nodes.erase(std::find(d.nodes.begin(), d.nodes.end(), id));
      const auto replacement = launch(plan.type, 1);
      d.nodes.push_back(replacement.front());
      ++d.replaced_nodes;
    }
  }

  d.spec = build_spec(plan);
  d.ready_at = sim_->now();
  d.active = true;
  CYNTHIA_CHECK(d.ready_at >= d.requested_at, "deployment ready before it was requested");
  // Every surviving node must have walked the full lifecycle to Ready, and
  // its ready timestamp must fall inside the provisioning window.
  for (NodeId id : d.nodes) {
    const Node& n = node(id);
    CYNTHIA_CHECK(n.state == NodeState::Ready, "deployed node i-", id, " not Ready");
    CYNTHIA_CHECK(n.ready_at >= n.requested_at && n.ready_at <= d.ready_at,
                  "node i-", id, " ready outside the provisioning window");
  }
  if (tel_) {
    tel_->tracer.span("orchestrator", "provision", "orch", d.requested_at, d.ready_at);
    tel_->metrics.counter(telemetry::metric::kProvisionSeconds).inc(d.provisioning_seconds());
    tel_->metrics.gauge(telemetry::metric::kBillingDollars)
        .set(billing_->total(util::Seconds{sim_->now()}).value());
    tel_->journal.event(d.ready_at, telemetry::JournalKind::kNodeLifecycle, "orchestrator",
                        "provision-ready: " + std::to_string(d.nodes.size()) + " node(s), " +
                            std::to_string(d.replaced_nodes) + " replaced",
                        d.provisioning_seconds());
  }
  return d;
}

void ClusterManager::teardown(Deployment& deployment) {
  if (!deployment.active) return;
  for (NodeId id : deployment.nodes) {
    Node& n = node_mut(id);
    if (n.state == NodeState::Terminated) continue;
    if (tel_) record_state_span(n);  // typically the node's "Ready" span
    n.state = NodeState::Terminated;
    n.state_since = sim_->now();
    billing_->stop(n.billing_record, util::Seconds{sim_->now()});
  }
  deployment.active = false;
  if (tel_) {
    tel_->metrics.gauge(telemetry::metric::kBillingDollars)
        .set(billing_->total(util::Seconds{sim_->now()}).value());
  }
}

util::Seconds DeployMeter::measure(const core::ProvisionPlan& plan, std::uint64_t seed) {
  sim_.restart();
  billing_.clear();
  manager_.reset(seed);
  Deployment deployment = manager_.deploy(plan);
  const util::Seconds seconds{deployment.provisioning_seconds()};
  manager_.teardown(deployment);
  return seconds;
}

}  // namespace cynthia::orch
