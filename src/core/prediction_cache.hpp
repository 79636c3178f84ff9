// Memoized perf-model evaluations for the provisioning hot path.
//
// Algorithm 1, Provisioner::replan, and the SLO sentinel's online
// re-planning all evaluate CynthiaModel::predict_iteration over homogeneous
// (instance type, n_workers, n_ps) candidates. Each Provisioner owns one
// cache for its fixed model, so a key is the packed candidate shape alone,
// and a hit skips both the ClusterSpec materialization (O(n_workers) vector
// builds) and the model arithmetic. The cache is thread-safe because
// concurrent callers may share one Provisioner. Entries are immutable once
// inserted — racing computations of the same key produce bit-identical
// values, so last-writer-wins insertion is benign and results never depend
// on thread interleaving.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

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

  PredictionCache() = default;

  /// Moving transfers the memoized entries and counters. Only valid while
  /// no other thread is using either cache (construction-time plumbing,
  /// e.g. moving a Provisioner into a harness aggregate).
  PredictionCache(PredictionCache&& other) noexcept;
  PredictionCache& operator=(PredictionCache&&) = delete;
  PredictionCache(const PredictionCache&) = delete;
  PredictionCache& operator=(const PredictionCache&) = delete;

  /// Arms the dense direct-mapped fast path: shapes within (max_type,
  /// max_n, max_ps, 3 modes) hit a flat slot array (~2 ns) instead of the
  /// sharded map (~25 ns — which still serves everything else). replan's
  /// 768-point grid scan is lookup-bound and lives or dies on this.
  void enable_dense(std::uint32_t max_type, std::uint32_t max_n, std::uint32_t max_ps);

  [[nodiscard]] std::optional<IterationPrediction> find(Key key) const;
  void insert(Key key, const IterationPrediction& prediction);

  /// Returns the cached prediction or computes, inserts, and returns it.
  template <class Fn>
  IterationPrediction get_or_compute(Key key, Fn&& compute) {
    if (dense_) {
      const std::size_t idx = dense_index(key);
      if (idx != kNoSlot) {
        DenseSlot& slot = dense_[idx];
        if (slot.state.load(std::memory_order_acquire) == kReady) {
          hits_.fetch_add(1, std::memory_order_relaxed);
          return slot.value;
        }
        misses_.fetch_add(1, std::memory_order_relaxed);
        IterationPrediction p = compute();
        // One writer claims the slot; racing computers return their own
        // (bit-identical) result without touching the slot, so no thread
        // ever reads a half-written value.
        std::uint32_t expected = kEmpty;
        if (slot.state.compare_exchange_strong(expected, kWriting,
                                               std::memory_order_acq_rel)) {
          slot.value = p;
          slot.state.store(kReady, std::memory_order_release);
        }
        return p;
      }
    }
    if (auto hit = find(key)) return *hit;
    IterationPrediction p = compute();
    insert(key, p);
    return p;
  }

  [[nodiscard]] std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::size_t size() const;

  /// Drops every entry and zeroes the counters. Requires quiescence: a
  /// clear concurrent with get_or_compute would let a fresh writer reclaim
  /// a dense slot while a pre-clear reader is still copying it. Lookups and
  /// inserts among themselves are freely concurrent.
  void clear();

 private:
  struct KeyHash {
    std::size_t operator()(Key k) const {
      // splitmix64-style finalizer, so shard choice spreads over every field.
      std::uint64_t x = k * 0x9E3779B97F4A7C15ULL;
      x ^= x >> 30;
      x *= 0xBF58476D1CE4E5B9ULL;
      x ^= x >> 27;
      x *= 0x94D049BB133111EBULL;
      x ^= x >> 31;
      return static_cast<std::size_t>(x);
    }
  };

  /// Sharded by key hash so concurrent planners (the multi-tenant service,
  /// TSan stress) rarely contend on one mutex.
  static constexpr std::size_t kShards = 16;
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<Key, IterationPrediction, KeyHash> map;
  };

  [[nodiscard]] Shard& shard_for(Key key) const {
    return shards_[KeyHash{}(key) % kShards];
  }

  /// Dense slot lifecycle: empty -> writing (claimed) -> ready (published).
  static constexpr std::uint32_t kEmpty = 0, kWriting = 1, kReady = 2;
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  struct DenseSlot {
    std::atomic<std::uint32_t> state{kEmpty};
    IterationPrediction value;
  };

  /// Flat index for an in-range packed shape, kNoSlot otherwise (falls back
  /// to the sharded map). Field layout mirrors pack().
  [[nodiscard]] std::size_t dense_index(Key shape) const {
    const auto type = static_cast<std::uint32_t>(shape >> 40);
    const auto n = static_cast<std::uint32_t>((shape >> 20) & 0xFFFFF);
    const auto ps = static_cast<std::uint32_t>((shape >> 2) & 0x3FFFF);
    const auto mode = static_cast<std::uint32_t>(shape & 0x3);
    if (type >= dense_types_ || n > dense_n_ || ps > dense_ps_ || mode > 2) return kNoSlot;
    return ((static_cast<std::size_t>(type) * (dense_n_ + 1) + n) * (dense_ps_ + 1) + ps) * 3 +
           mode;
  }

  mutable Shard shards_[kShards];
  std::uint32_t dense_types_ = 0;
  std::uint32_t dense_n_ = 0;
  std::uint32_t dense_ps_ = 0;
  mutable std::unique_ptr<DenseSlot[]> dense_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
};

}  // namespace cynthia::core
