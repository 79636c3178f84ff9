// Training-cluster composition: which dockers act as workers and PS nodes.
#pragma once

#include <string>
#include <vector>

#include "cloud/instance.hpp"
#include "util/units.hpp"

namespace cynthia::ddnn {

/// One docker (the paper pins one docker per physical core; GPU types pin
/// one docker per GPU).
struct DockerSpec {
  std::string instance_type;
  util::GFlopsRate cpu;  ///< effective compute capability (GPU when present)
  util::MBps nic;        ///< per-docker NIC share

  static DockerSpec from(const cloud::InstanceType& t) {
    return {t.name, t.compute_gflops(), t.nic_mbps};
  }
};

/// Workers + PS nodes for one training run.
struct ClusterSpec {
  std::vector<DockerSpec> workers;
  std::vector<DockerSpec> ps;

  [[nodiscard]] int n_workers() const { return static_cast<int>(workers.size()); }
  [[nodiscard]] int n_ps() const { return static_cast<int>(ps.size()); }

  /// Slowest worker capability (drives BSP per Eq. 4).
  [[nodiscard]] util::GFlopsRate min_worker_cpu() const;
  /// Aggregate PS CPU supply (c_supply in Sec. 3).
  [[nodiscard]] util::GFlopsRate total_ps_cpu() const;

  /// n workers + n_ps PS nodes, all of one type.
  static ClusterSpec homogeneous(const cloud::InstanceType& type, int n_workers, int n_ps = 1);

  /// The paper's heterogeneous setup (Figs. 1 and 9): ceil(n/2) fast workers
  /// and floor(n/2) stragglers; PS on the fast type.
  static ClusterSpec with_stragglers(const cloud::InstanceType& fast,
                                     const cloud::InstanceType& slow, int n_workers,
                                     int n_ps = 1);
};

}  // namespace cynthia::ddnn
