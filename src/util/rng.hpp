// Deterministic random number generation.
//
// Every stochastic element of the simulator (loss noise, timing jitter,
// node lifecycle draws) draws from an explicitly-seeded Rng so that
// experiments and tests are reproducible run-to-run.
//
// The engine is MT19937-64, bit for bit: for every seed, every raw draw
// equals std::mt19937_64's, and the distributions are the standard
// library's, run over this engine. What differs is when the work happens.
// std::mt19937_64 runs its 311-step seeding recurrence at construction and
// twists the whole 312-word state on the first draw; this engine runs both
// on demand inside the first block, so a stream that draws a few numbers
// costs those draws, not a 312-word warm-up. Every later block is the
// standard in-place twist.
#pragma once

#include <cstddef>
#include <cstdint>

namespace cynthia::util {

/// Seeded pseudo-random source: a lazily seeded MT19937-64 with the
/// distributions the simulator needs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) { gen_.seed(seed); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Normal truncated to [mean - bound, mean + bound]; keeps noisy
  /// observables (loss, throughput) physically plausible.
  double bounded_normal(double mean, double stddev, double bound);

  /// Multiplicative jitter: returns a factor in [1-eps, 1+eps].
  double jitter(double eps);

  /// Bernoulli draw with probability p of true.
  bool chance(double p);

  /// The engine's next raw output: 64 uniformly distributed bits.
  std::uint64_t bits() { return gen_(); }

  /// Re-seed in place (used by tests to replay a sequence).
  void seed(std::uint64_t s) { gen_.seed(s); }

 private:
  /// MT19937-64 (w 64, n 312, m 156, r 31). The first block after seed()
  /// is produced on demand: word k < 156 of it reads the seed words x[k],
  /// x[k+1] and x[k+156], so the seeding recurrence only has to reach
  /// x[k+156]; words 156-311 read the already-twisted x[k-156] (and word
  /// 311 the twisted x[0]), exactly as the in-place twist does. Satisfies
  /// UniformRandomBitGenerator with std::mt19937_64's result_type, min()
  /// and max(), so the std distributions consume the same words.
  class Engine {
   public:
    using result_type = std::uint_fast64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    void seed(std::uint64_t s) {
      x_[0] = s;
      seeded_ = 1;
      ready_ = 0;
      next_ = 0;
    }

    result_type operator()() {
      if (next_ >= ready_) refill();
      std::uint64_t z = x_[next_++];
      z ^= (z >> 29) & 0x5555555555555555ull;
      z ^= (z << 17) & 0x71d67fffeda60000ull;
      z ^= (z << 37) & 0xfff7eee000000000ull;
      z ^= z >> 43;
      return z;
    }

   private:
    static constexpr std::size_t kN = 312;
    static constexpr std::size_t kM = 156;

    std::size_t next_ = 0;    ///< index of the next word to temper
    std::size_t ready_ = 0;   ///< words [0, ready_) are twisted
    std::size_t seeded_ = 0;  ///< seed words [0, seeded_) are computed
    /// Zeroed once at construction (a 2.5 KB store, not a 312-step
    /// recurrence), so copying a partly seeded engine reads no
    /// indeterminate word.
    std::uint64_t x_[kN] = {};

    /// Makes more words ready: the next few of the first block, or (once
    /// the first block is drawn) a whole new block.
    void refill();
  };

  Engine gen_;
};

}  // namespace cynthia::util
