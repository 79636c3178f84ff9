// EC2-style instance catalog.
//
// The paper provisions dockers on four EC2 instance families (m4.xlarge,
// m1.xlarge, r3.xlarge, c3.xlarge) and hosts one docker per physical core to
// avoid hyper-threading contention. This catalog is the static substrate the
// paper reads from EC2 documentation: per-core CPU capability (the
// "CPU processing capability table [3]"), NIC bandwidth and hourly price.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace cynthia::cloud {

/// Static description of one instance type.
struct InstanceType {
  std::string name;       ///< e.g. "m4.xlarge"
  std::string cpu_model;  ///< e.g. "Intel Xeon E5-2686 v4"
  int vcpus = 0;
  int physical_cores = 0;  ///< docker slots: one docker per physical core
  util::GFlopsRate core_gflops;   ///< sustained per-core training throughput
  util::MBps nic_mbps;            ///< per-docker share of instance NIC
  util::DollarsPerHour price;     ///< on-demand instance price
  bool previous_generation = false;  ///< m1-style legacy hardware

  /// Accelerator attached to each docker slot (GPU-cluster extension, the
  /// paper's future work). Empty name / zero rate on CPU-only types.
  std::string accelerator{};          ///< e.g. "NVIDIA K80"
  util::GFlopsRate accel_gflops{};    ///< per-docker accelerator throughput

  [[nodiscard]] bool has_accelerator() const { return accel_gflops.value() > 0.0; }

  /// Effective training throughput of one docker: the accelerator does the
  /// tensor math when present, the CPU otherwise.
  [[nodiscard]] util::GFlopsRate compute_gflops() const {
    return has_accelerator() ? accel_gflops : core_gflops;
  }

  /// Price attributable to one docker (instance price split across slots).
  [[nodiscard]] util::DollarsPerHour docker_price() const {
    return util::DollarsPerHour{price.value() / std::max(1, physical_cores)};
  }
};

/// Immutable set of instance types with name lookup.
class Catalog {
 public:
  Catalog() = default;
  explicit Catalog(std::vector<InstanceType> types);

  /// The catalog used throughout the reproduction; see DESIGN.md for the
  /// calibration of capabilities/bandwidths/prices against the paper.
  static const Catalog& aws();

  [[nodiscard]] const InstanceType& at(std::string_view name) const;
  [[nodiscard]] std::optional<InstanceType> find(std::string_view name) const;
  [[nodiscard]] bool contains(std::string_view name) const;
  [[nodiscard]] const std::vector<InstanceType>& types() const { return types_; }

  /// Current-generation CPU types — the search space of the paper's
  /// Algorithm 1 (legacy m1-class hardware is modeled but never *chosen*;
  /// the paper uses it solely to inject stragglers; GPU types belong to the
  /// future-work extension and must be requested explicitly).
  [[nodiscard]] std::vector<InstanceType> provisionable() const;

  /// Accelerator-equipped types (GPU-cluster extension).
  [[nodiscard]] std::vector<InstanceType> accelerated() const;

  /// provisionable() + accelerated(): the widened Algorithm 1 search space.
  [[nodiscard]] std::vector<InstanceType> provisionable_with_accelerators() const;

 private:
  std::vector<InstanceType> types_;
};

}  // namespace cynthia::cloud
