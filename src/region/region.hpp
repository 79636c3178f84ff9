// Finite-capacity cloud region model.
//
// The paper (and every layer built on it so far) assumes one job owns an
// unbounded cloud: any plan Algorithm 1 emits can be launched. A real
// region is a finite pool of docker slots per instance type that thousands
// of tenants contend for. Region is that pool: per-type capacity with
// reserve/release accounting, conservation invariants checked by
// CYNTHIA_CHECK in the flow-solver style (reserved + available == capacity,
// the busy-slot time integral is monotone), and a time-weighted busy-slot
// integral so fleet utilization is an exact integral, not a sampled gauge.
//
// Region is purely an accountant on the caller's simulation clock: it never
// schedules events and draws no randomness, so it composes with any driver
// (the ProvisioningService event loop, tests, benches) deterministically.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "cloud/instance.hpp"
#include "util/units.hpp"

namespace cynthia::region {

/// Capacity of one instance type, in docker slots (the provisioning unit
/// everywhere in Cynthia: one docker per physical core).
struct TypeCapacity {
  std::string type;
  int docker_slots = 0;  ///< Region::kUnbounded = no limit for this type
};

/// A finite pool of docker slots per instance type. Every type has an index,
/// its position in capacities() (name order), and the accounting calls take
/// it; an index past the last type throws std::out_of_range.
class Region {
 public:
  /// Sentinel capacity: the type is not capacity-limited.
  static constexpr int kUnbounded = -1;

  Region() = default;

  /// Capacity for exactly the listed types. Throws std::invalid_argument on
  /// duplicates or negative capacities (other than kUnbounded).
  explicit Region(std::vector<TypeCapacity> capacities);

  /// Every provisionable + accelerated type of `catalog`, unbounded — the
  /// pre-PR single-tenant behaviour (fits() always true).
  static Region unbounded(const cloud::Catalog& catalog = cloud::Catalog::aws());

  /// Every provisionable type of `catalog` capped at `docker_slots` each.
  static Region uniform(int docker_slots, const cloud::Catalog& catalog = cloud::Catalog::aws());

  /// Region grammar (docs/SERVICE.md): a comma-separated list of
  /// `<type>=<slots>` entries; `*=<slots>` caps every provisionable type;
  /// the single word `inf` is the unbounded region. Examples:
  ///   "m4.xlarge=256,c3.xlarge=128"     two bounded types
  ///   "*=512"                           every current-generation type, 512
  ///   "inf"                             the unbounded pre-PR cloud
  /// Types must exist in `catalog`; throws std::invalid_argument otherwise.
  static Region parse(const std::string& spec, const cloud::Catalog& catalog = cloud::Catalog::aws());

  /// True when every known type is unbounded (the single-tenant cloud).
  [[nodiscard]] bool is_unbounded() const;

  /// True when `docker_slots` more dockers of the type at `index` fit now.
  [[nodiscard]] bool fits(std::size_t index, int docker_slots) const;

  /// Takes `docker_slots` dockers of the type at `index` at simulation time
  /// `now`. Throws std::logic_error when they do not fit — callers must
  /// check fits() first; admission control is the caller's job, not the
  /// pool's.
  void reserve(std::size_t index, int docker_slots, util::Seconds now);

  /// Returns dockers previously taken with reserve(). Throws
  /// std::logic_error on over-release (returning what was never taken).
  void release(std::size_t index, int docker_slots, util::Seconds now);

  /// Folds the busy-slot integral forward to `now` without changing any
  /// reservation (call at end of run so utilization covers the tail).
  void advance_to(util::Seconds now);

  /// kUnbounded when unlimited.
  [[nodiscard]] int capacity(std::size_t index) const;
  [[nodiscard]] int reserved(std::size_t index) const;
  /// Free slots; kUnbounded when the type is not limited.
  [[nodiscard]] int available(std::size_t index) const;

  /// Dockers currently reserved across all types.
  [[nodiscard]] int reserved_total() const { return reserved_total_; }
  /// Total finite capacity across types (unbounded types contribute 0).
  [[nodiscard]] long capacity_total() const { return capacity_total_; }

  /// Exact integral of reserved slots over time, in docker-seconds.
  [[nodiscard]] double busy_docker_seconds() const { return busy_docker_seconds_; }

  /// busy_docker_seconds / (capacity_total * horizon): the fleet-utilization
  /// numerator and denominator are both exact integrals. 0 for an unbounded
  /// or never-used region.
  [[nodiscard]] double utilization(util::Seconds horizon) const;

  /// "m4.xlarge 37/256, c3.xlarge 0/128" — for tables and journal records.
  [[nodiscard]] std::string describe() const;

  /// Capacities in deterministic (name-sorted) order.
  [[nodiscard]] std::vector<TypeCapacity> capacities() const;

 private:
  struct Slot {
    std::string type;
    int capacity = 0;  ///< kUnbounded or >= 0
    int reserved = 0;
  };

  std::vector<Slot> slots_;  ///< name order: the index order
  [[nodiscard]] const Slot& slot(std::size_t index) const;
  int reserved_total_ = 0;
  long capacity_total_ = 0;
  double busy_docker_seconds_ = 0.0;
  util::Seconds last_event_time_{0.0};

  void accrue(util::Seconds now);
  void check_conservation() const;
};

}  // namespace cynthia::region
