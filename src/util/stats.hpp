// Small statistics toolkit used by the metrics pipeline and by benches to
// summarize repeated simulation runs (the paper reports mean +/- stdev over
// three repetitions of every training experiment).
#pragma once

#include <cstddef>
#include <span>

namespace cynthia::util {

/// Streaming accumulator (Welford) for mean/variance without storing samples.
class RunningStats {
 public:
  void add(double x);
  void reset();

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

double mean(std::span<const double> xs);

/// Mean absolute percentage error of predictions vs observations, in percent.
/// Observation entries equal to zero are skipped.
double mape_percent(std::span<const double> observed, std::span<const double> predicted);

/// Relative error |pred - obs| / obs in percent for a single pair.
double relative_error_percent(double observed_value, double predicted_value);

}  // namespace cynthia::util
