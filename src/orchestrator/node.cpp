#include "orchestrator/node.hpp"

namespace cynthia::orch {

std::string to_string(NodeState state) {
  switch (state) {
    case NodeState::Requested:
      return "Requested";
    case NodeState::Booting:
      return "Booting";
    case NodeState::Installing:
      return "Installing";
    case NodeState::Joining:
      return "Joining";
    case NodeState::Ready:
      return "Ready";
    case NodeState::Terminated:
      return "Terminated";
    case NodeState::Failed:
      return "Failed";
  }
  return "?";
}

}  // namespace cynthia::orch
