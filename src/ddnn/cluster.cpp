#include "ddnn/cluster.hpp"

#include <algorithm>
#include <stdexcept>

namespace cynthia::ddnn {

util::GFlopsRate ClusterSpec::min_worker_cpu() const {
  if (workers.empty()) throw std::logic_error("ClusterSpec: no workers");
  auto it = std::min_element(workers.begin(), workers.end(),
                             [](const auto& a, const auto& b) { return a.cpu < b.cpu; });
  return it->cpu;
}

util::GFlopsRate ClusterSpec::total_ps_cpu() const {
  util::GFlopsRate total{};
  for (const auto& p : ps) total += p.cpu;
  return total;
}

ClusterSpec ClusterSpec::homogeneous(const cloud::InstanceType& type, int n_workers, int n_ps) {
  if (n_workers <= 0 || n_ps <= 0) {
    throw std::invalid_argument("ClusterSpec: need at least one worker and one PS");
  }
  ClusterSpec spec;
  spec.workers.assign(n_workers, DockerSpec::from(type));
  spec.ps.assign(n_ps, DockerSpec::from(type));
  return spec;
}

ClusterSpec ClusterSpec::with_stragglers(const cloud::InstanceType& fast,
                                         const cloud::InstanceType& slow, int n_workers,
                                         int n_ps) {
  if (n_workers <= 0 || n_ps <= 0) {
    throw std::invalid_argument("ClusterSpec: need at least one worker and one PS");
  }
  ClusterSpec spec;
  const int n_slow = n_workers / 2;  // paper: floor(n/2) m1.xlarge stragglers
  const int n_fast = n_workers - n_slow;
  spec.workers.assign(n_fast, DockerSpec::from(fast));
  spec.workers.insert(spec.workers.end(), n_slow, DockerSpec::from(slow));
  spec.ps.assign(n_ps, DockerSpec::from(fast));
  return spec;
}

}  // namespace cynthia::ddnn
