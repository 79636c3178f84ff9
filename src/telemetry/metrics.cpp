#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "util/csv.hpp"

namespace cynthia::telemetry {

namespace {

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

void csv_row(std::ostream& os, const std::string& kind, const std::string& name,
             const std::string& field, double value) {
  os << util::CsvWriter::escape(kind) << ',' << util::CsvWriter::escape(name) << ','
     << util::CsvWriter::escape(field) << ',' << fmt(value) << '\n';
}

}  // namespace

std::vector<double> Histogram::make_bounds(const HistogramOptions& options) {
  if (options.lowest_bound <= 0.0 || options.growth <= 1.0 || options.bucket_count <= 0) {
    throw std::invalid_argument("Histogram: need lowest_bound > 0, growth > 1, buckets > 0");
  }
  std::vector<double> bounds;
  bounds.reserve(options.bucket_count);
  double bound = options.lowest_bound;
  for (int i = 0; i < options.bucket_count; ++i) {
    bounds.push_back(bound);
    bound *= options.growth;
  }
  return bounds;
}

Histogram::Histogram(HistogramOptions options)
    : bounds_(make_bounds(options)), counts_(bounds_.size() + 1, 0) {}

void Histogram::observe(double value) {
  if (value < min_) min_ = value;
  if (value > max_) max_ = value;
  ++count_;
  sum_ += value;
  // First bucket whose upper bound admits the value; past the last bound the
  // observation lands in the overflow bucket.
  std::size_t idx = bounds_.size();
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      idx = i;
      break;
    }
  }
  ++counts_[idx];
}

double Histogram::approx_quantile(double quantile_frac) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  const double q = std::clamp(quantile_frac, 0.0, 1.0);
  // Rank of the target observation (1-based, ceil(q*total) clamped to >= 1).
  const auto target = static_cast<std::uint64_t>(
      std::max<double>(1.0, std::ceil(q * static_cast<double>(total))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const std::uint64_t before = cumulative;
    cumulative += counts_[i];
    if (cumulative < target) continue;
    const double lower = i == 0 ? 0.0 : bounds_[i - 1];
    // Overflow bucket has no finite upper bound; the observed max caps it.
    const double upper = i < bounds_.size() ? bounds_[i] : max();
    const double within =
        static_cast<double>(target - before) / static_cast<double>(counts_[i]);
    const double estimate = lower + (upper - lower) * within;
    return std::clamp(estimate, min(), max());
  }
  return max();
}

namespace {

/// The metric named `name`, inserted from `args` (with a copy of the name)
/// only when absent.
template <typename Map, typename... Args>
typename Map::mapped_type& find_or_insert(Map& map, std::string_view name, Args&&... args) {
  auto it = map.lower_bound(name);
  if (it == map.end() || it->first != name) {
    it = map.emplace_hint(it, std::piecewise_construct, std::forward_as_tuple(name),
                          std::forward_as_tuple(std::forward<Args>(args)...));
  }
  return it->second;
}

template <typename Map>
const typename Map::mapped_type* find_in(const Map& map, std::string_view name) {
  auto it = map.find(name);
  return it == map.end() ? nullptr : &it->second;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  owner_.check("MetricsRegistry");
  return find_or_insert(counters_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  owner_.check("MetricsRegistry");
  return find_or_insert(gauges_, name);
}

Histogram& MetricsRegistry::histogram(std::string_view name, HistogramOptions options) {
  owner_.check("MetricsRegistry");
  return find_or_insert(histograms_, name, options);
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  return find_in(counters_, name);
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  return find_in(gauges_, name);
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  return find_in(histograms_, name);
}

double MetricsRegistry::counter_value(std::string_view name, double fallback_value) const {
  const Counter* c = find_counter(name);
  return c ? c->value() : fallback_value;
}

double MetricsRegistry::gauge_value(std::string_view name, double fallback_value) const {
  const Gauge* g = find_gauge(name);
  return g ? g->value() : fallback_value;
}

std::size_t MetricsRegistry::size() const {
  return counters_.size() + gauges_.size() + histograms_.size();
}

void MetricsRegistry::write_csv(std::ostream& os) const {
  os << "kind,name,field,value\n";
  for (const auto& [name, c] : counters_) csv_row(os, "counter", name, "value", c.value());
  for (const auto& [name, g] : gauges_) csv_row(os, "gauge", name, "value", g.value());
  for (const auto& [name, h] : histograms_) {
    csv_row(os, "histogram", name, "count", static_cast<double>(h.count()));
    csv_row(os, "histogram", name, "sum", h.sum());
    csv_row(os, "histogram", name, "min", h.min());
    csv_row(os, "histogram", name, "max", h.max());
    std::uint64_t cumulative = 0;
    const auto& bounds = h.upper_bounds();
    const auto& counts = h.bucket_counts();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      cumulative += counts[i];
      csv_row(os, "histogram", name, "le_" + fmt(bounds[i]), static_cast<double>(cumulative));
    }
    cumulative += counts.back();
    csv_row(os, "histogram", name, "le_inf", static_cast<double>(cumulative));
  }
}

void MetricsRegistry::write_csv_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("MetricsRegistry: cannot open " + path);
  write_csv(out);
}

}  // namespace cynthia::telemetry
