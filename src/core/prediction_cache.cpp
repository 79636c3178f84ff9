#include "core/prediction_cache.hpp"

namespace cynthia::core {

PredictionCache::PredictionCache(PredictionCache&& other) noexcept {
  for (std::size_t i = 0; i < kShards; ++i) {
    shards_[i].map = std::move(other.shards_[i].map);
  }
  dense_types_ = other.dense_types_;
  dense_n_ = other.dense_n_;
  dense_ps_ = other.dense_ps_;
  dense_ = std::move(other.dense_);
  other.dense_types_ = other.dense_n_ = other.dense_ps_ = 0;
  hits_.store(other.hits_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  misses_.store(other.misses_.load(std::memory_order_relaxed), std::memory_order_relaxed);
}

void PredictionCache::enable_dense(std::uint32_t max_type, std::uint32_t max_n,
                                   std::uint32_t max_ps) {
  dense_types_ = max_type;
  dense_n_ = max_n;
  dense_ps_ = max_ps;
  const std::size_t slots = static_cast<std::size_t>(max_type) * (max_n + 1) * (max_ps + 1) * 3;
  dense_ = std::make_unique<DenseSlot[]>(slots);
}

std::optional<IterationPrediction> PredictionCache::find(Key key) const {
  Shard& s = shard_for(key);
  std::lock_guard lock(s.mutex);
  auto it = s.map.find(key);
  if (it == s.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

void PredictionCache::insert(Key key, const IterationPrediction& prediction) {
  Shard& s = shard_for(key);
  std::lock_guard lock(s.mutex);
  s.map.insert_or_assign(key, prediction);
}

std::size_t PredictionCache::size() const {
  std::size_t total = 0;
  for (const Shard& s : shards_) {
    std::lock_guard lock(s.mutex);
    total += s.map.size();
  }
  if (dense_) {
    const std::size_t slots =
        static_cast<std::size_t>(dense_types_) * (dense_n_ + 1) * (dense_ps_ + 1) * 3;
    for (std::size_t i = 0; i < slots; ++i) {
      if (dense_[i].state.load(std::memory_order_acquire) == kReady) ++total;
    }
  }
  return total;
}

void PredictionCache::clear() {
  for (Shard& s : shards_) {
    std::lock_guard lock(s.mutex);
    s.map.clear();
  }
  if (dense_) {
    const std::size_t slots =
        static_cast<std::size_t>(dense_types_) * (dense_n_ + 1) * (dense_ps_ + 1) * 3;
    for (std::size_t i = 0; i < slots; ++i) {
      dense_[i].state.store(kEmpty, std::memory_order_relaxed);
    }
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

}  // namespace cynthia::core
