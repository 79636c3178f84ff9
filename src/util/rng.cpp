#include "util/rng.hpp"

#include <algorithm>
#include <random>
#include <type_traits>

namespace cynthia::util {

namespace {

constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ull;
constexpr std::uint64_t kSeedMultiplier = 6364136223846793005ull;

/// The MT recurrence's new word from the old x[k] and x[k+1]; the caller
/// xors in x[k+m].
inline std::uint64_t twist(std::uint64_t hi, std::uint64_t lo) {
  const std::uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
  return (y >> 1) ^ ((y & 1u) ? kMatrixA : 0u);
}

/// Words of the first block twisted per refill: a short stream pays for
/// at most this many words it does not draw.
constexpr std::size_t kLazyWords = 8;

}  // namespace

void Rng::Engine::refill() {
  static_assert(std::is_same_v<result_type, std::mt19937_64::result_type>);
  static_assert(min() == std::mt19937_64::min() && max() == std::mt19937_64::max());
  if (ready_ == kN) {
    // Every block after the first: the standard in-place twist, in its
    // three loops (no modular indexing on the long-stream path).
    std::size_t k = 0;
    for (; k < kN - kM; ++k) x_[k] = x_[k + kM] ^ twist(x_[k], x_[k + 1]);
    for (; k < kN - 1; ++k) x_[k] = x_[k + kM - kN] ^ twist(x_[k], x_[k + 1]);
    x_[kN - 1] = x_[kM - 1] ^ twist(x_[kN - 1], x_[0]);
    next_ = 0;
    return;
  }
  // The first block, on demand. Twisting word k < kM reads the seed words
  // x[k + 1] and x[k + kM], so the seeding recurrence runs just that far.
  // (Locals, not members, carry the loops: a member of the words' type
  // would have to be reloaded after every store into x_.)
  const std::size_t begin = ready_;
  const std::size_t end = std::min(kN, begin + kLazyWords);
  const std::size_t seed_end = std::min(kN, end + kM);
  std::uint64_t prev = x_[seeded_ - 1];
  for (std::size_t i = seeded_; i < seed_end; ++i) {
    prev = kSeedMultiplier * (prev ^ (prev >> 62)) + i;
    x_[i] = prev;
  }
  seeded_ = std::max(seeded_, seed_end);
  // Words k >= kM read x[k - kM], twisted earlier in this block, and word
  // kN - 1 reads the twisted x[0], as the in-place twist does.
  for (std::size_t k = begin; k < end; ++k) {
    const std::uint64_t far = k < kN - kM ? x_[k + kM] : x_[k + kM - kN];
    const std::uint64_t next = k + 1 < kN ? x_[k + 1] : x_[0];
    x_[k] = far ^ twist(x_[k], next);
  }
  ready_ = end;
}

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  return d(gen_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> d(lo, hi);
  return d(gen_);
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> d(mean, stddev);
  return d(gen_);
}

double Rng::bounded_normal(double mean, double stddev, double bound) {
  return std::clamp(normal(mean, stddev), mean - bound, mean + bound);
}

double Rng::jitter(double eps) { return uniform(1.0 - eps, 1.0 + eps); }

bool Rng::chance(double p) {
  std::bernoulli_distribution d(p);
  return d(gen_);
}

}  // namespace cynthia::util
