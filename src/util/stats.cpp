#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace cynthia::util {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::reset() { *this = RunningStats{}; }

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
}

double mape_percent(std::span<const double> observed, std::span<const double> predicted) {
  if (observed.size() != predicted.size()) {
    throw std::invalid_argument("mape_percent: size mismatch");
  }
  double total = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    if (observed[i] == 0.0) continue;  // cynthia-lint: allow(FLT-001) — exact-zero guard
    total += std::abs(predicted[i] - observed[i]) / std::abs(observed[i]);
    ++counted;
  }
  return counted ? total / static_cast<double>(counted) * 100.0 : 0.0;
}

double relative_error_percent(double observed_value, double predicted_value) {
  if (observed_value == 0.0) return 0.0;  // cynthia-lint: allow(FLT-001) — exact-zero guard
  return std::abs(predicted_value - observed_value) / std::abs(observed_value) * 100.0;
}

}  // namespace cynthia::util
