// Process-light metrics registry: counters, gauges, log-scale histograms.
//
// One MetricsRegistry per experiment run, mirroring the one-Simulator-per-run
// design. A registry is single-owner: it belongs to the thread that built it
// and holds no locks (the name lookups check the caller in CYNTHIA_INVARIANTS
// builds, see util::OwnerThread). The returned references stay valid for the
// registry's lifetime, so hot paths hoist the lookup. Metrics are exported in
// the repo's CSV table format (kind,name,field,value) for external tooling.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.hpp"

namespace cynthia::telemetry {

/// Monotonically increasing value (events fired, seconds accumulated).
class Counter {
 public:
  void inc(double amount = 1.0) {
    if (amount > 0.0) value_ += amount;
  }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Last-write-wins instantaneous value (utilization, staleness, dollars).
class Gauge {
 public:
  void set(double value) { value_ = value; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed log-scale bucket layout: upper bounds at lowest_bound * growth^i.
struct HistogramOptions {
  double lowest_bound = 1e-6;  ///< upper bound of the first bucket
  double growth = 10.0;        ///< ratio between consecutive bounds
  int bucket_count = 14;       ///< finite bounds; one overflow bucket on top
};

/// Histogram over fixed log-scale buckets (latencies span decades, so linear
/// buckets would waste resolution at one end; the layout is fixed up front
/// so merging/export never rebuckets).
class Histogram {
 public:
  explicit Histogram(HistogramOptions options = {});

  void observe(double value);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }

  /// Finite bucket upper bounds, ascending; size == options.bucket_count.
  [[nodiscard]] const std::vector<double>& upper_bounds() const { return bounds_; }
  /// Per-bucket counts; size == bucket_count + 1, last entry is overflow.
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }

  /// Approximate quantile (q in [0,1]) from the bucket layout: finds the
  /// bucket holding the q-th observation and interpolates linearly inside
  /// it, clamped to the observed [min, max]. Resolution is bounded by the
  /// bucket growth ratio; good enough for p50/p99 trend lines, not exact
  /// order statistics. An empty histogram returns exactly 0.0 for every
  /// quantile — deterministic, never NaN — so callers (report generation
  /// included) need no empty-run special case.
  [[nodiscard]] double approx_quantile(double quantile_frac) const;

  /// Computes the bound layout for the given options (also used by tests).
  static std::vector<double> make_bounds(const HistogramOptions& options);

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;  ///< bounds_.size() + 1 slots
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Name -> metric map with stable references (node-based storage) and
/// deterministic (sorted) export order. The returned metric objects remain
/// valid for the registry's lifetime.
class MetricsRegistry {
 public:
  /// Lookups take a string_view and compare it against the stored names
  /// directly, so finding an existing metric builds no key string; only the
  /// first insertion of a name copies it.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, HistogramOptions options = {});

  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;

  /// Value lookups with a fallback for absent metrics (summary convenience).
  [[nodiscard]] double counter_value(std::string_view name, double fallback_value = 0.0) const;
  [[nodiscard]] double gauge_value(std::string_view name, double fallback_value = 0.0) const;

  [[nodiscard]] std::size_t size() const;

  /// CSV export: header "kind,name,field,value"; histograms emit count/sum/
  /// min/max plus cumulative le_<bound> rows (Prometheus-style).
  void write_csv(std::ostream& os) const;
  void write_csv_file(const std::string& path) const;

 private:
  util::OwnerThread owner_;
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace cynthia::telemetry
