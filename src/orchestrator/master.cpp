#include "orchestrator/master.hpp"

namespace cynthia::orch {

std::string Master::random_hex(int chars) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(chars);
  // One raw draw yields 16 hex digits, low nibble first.
  std::uint64_t bits = 0;
  for (int i = 0; i < chars; ++i) {
    if (i % 16 == 0) bits = rng_.bits();
    out.push_back(kDigits[bits & 0xf]);
    bits >>= 4;
  }
  return out;
}

const JoinCredentials& Master::issue_credentials(double now) {
  creds_.token = random_hex(6) + "." + random_hex(16);
  creds_.discovery_hash = "sha256:" + random_hex(64);
  creds_.expires_at = now + kJoinTokenTtl.value();
  issued_ = true;
  return creds_;
}

bool Master::join(NodeId node, const JoinCredentials& presented, double now) {
  if (!issued_) return false;
  if (now > creds_.expires_at) return false;
  if (presented.token != creds_.token || presented.discovery_hash != creds_.discovery_hash) {
    return false;
  }
  if (is_member(node)) return false;
  members_.push_back(node);
  return true;
}

}  // namespace cynthia::orch
