// Memoized perf-model evaluations for the provisioning hot path.
//
// Algorithm 1, Provisioner::replan, and the SLO sentinel's online
// re-planning all evaluate CynthiaModel::predict_iteration over homogeneous
// (instance type, n_workers, n_ps) candidates. Each Provisioner owns one
// cache for its fixed model, so a key is the packed candidate shape alone,
// and a hit skips both the ClusterSpec materialization (O(n_workers) vector
// builds) and the model arithmetic. Like its Provisioner, the cache is
// single-owner: one thread uses it, so it holds no locks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/perf_model.hpp"

namespace cynthia::core {

class PredictionCache {
 public:
  /// pack() of (type index, n_wk, n_ps, mode).
  using Key = std::uint64_t;

  /// Packs a candidate shape; `type_index` is the owner's stable index into
  /// its instance-type list.
  static constexpr Key pack(std::uint32_t type_index, std::uint32_t n_workers, std::uint32_t n_ps,
                            std::uint32_t mode) {
    return (static_cast<std::uint64_t>(type_index) << 40) |
           (static_cast<std::uint64_t>(n_workers & 0xFFFFF) << 20) |
           (static_cast<std::uint64_t>(n_ps & 0x3FFFF) << 2) |
           static_cast<std::uint64_t>(mode & 0x3);
  }

  /// Sizes the flat table for `type_count` instance types.
  explicit PredictionCache(std::size_t type_count)
      : flat_(type_count * (kFlatWorkers + 1) * (kFlatPs + 1) * kModes) {}

  /// Returns the cached prediction or computes, stores, and returns it. A
  /// miss is counted before `compute` runs.
  template <class Fn>
  IterationPrediction get_or_compute(Key key, Fn&& compute) {
    if (const std::size_t i = flat_index(key); i < flat_.size()) {
      std::optional<IterationPrediction>& slot = flat_[i];
      if (slot) {
        ++hits_;
        return *slot;
      }
      ++misses_;
      slot = compute();
      return *slot;
    }
    if (const auto it = map_.find(key); it != map_.end()) {
      ++hits_;
      return it->second;
    }
    ++misses_;
    return map_.emplace(key, compute()).first->second;
  }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  /// The flat table covers every shape within the quotas (kMaxWorkersQuota
  /// 64, n_ps + kMaxExtraPs well under 8); the map holds
  /// larger shapes. replan's 768-point grid scan is lookup-bound and lives
  /// or dies on the flat table.
  static constexpr std::size_t kFlatWorkers = 128, kFlatPs = 8, kModes = 3;

  /// Flat index of a packed shape; flat_.size() or more when it lies
  /// outside the table (a type index past type_count lands there too).
  /// Field layout mirrors pack().
  [[nodiscard]] static std::size_t flat_index(Key key) {
    const auto type = static_cast<std::size_t>(key >> 40);
    const auto n = static_cast<std::size_t>((key >> 20) & 0xFFFFF);
    const auto ps = static_cast<std::size_t>((key >> 2) & 0x3FFFF);
    const auto mode = static_cast<std::size_t>(key & 0x3);
    if (n > kFlatWorkers || ps > kFlatPs || mode >= kModes) return static_cast<std::size_t>(-1);
    return ((type * (kFlatWorkers + 1) + n) * (kFlatPs + 1) + ps) * kModes + mode;
  }

  std::vector<std::optional<IterationPrediction>> flat_;
  std::map<Key, IterationPrediction> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace cynthia::core
