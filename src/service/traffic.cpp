#include "service/traffic.hpp"

#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "util/rng.hpp"

namespace cynthia::service {

namespace {

constexpr double kTwoPi = 6.283185307179586;

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const std::string& why) {
  throw std::invalid_argument("traffic: bad " + key + " '" + value + "': " + why);
}

/// All of `value` as a T: no sign on an unsigned T, no fraction, no
/// trailing text, in range.
template <class T>
T parse_integer(const std::string& key, const std::string& value) {
  T out{};
  const auto [end, ec] = std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec == std::errc::result_out_of_range) bad_value(key, value, "out of range");
  if (ec != std::errc() || end != value.data() + value.size()) {
    bad_value(key, value, std::is_unsigned_v<T> ? "expected a non-negative integer"
                                                : "expected an integer");
  }
  return out;
}

/// All of `token` as a finite real; `value` is the text reported on failure.
double parse_real(const std::string& key, const std::string& value, std::string_view token) {
  double out = 0.0;
  const auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), out);
  if (ec != std::errc() || end != token.data() + token.size()) {
    bad_value(key, value, "expected a number");
  }
  if (!std::isfinite(out)) bad_value(key, value, "must be finite");
  return out;
}

double parse_real(const std::string& key, const std::string& value) {
  return parse_real(key, value, value);
}

/// "30s" / "45m" / "24h" / plain seconds.
util::Seconds parse_duration(const std::string& key, const std::string& value) {
  const char suffix = value.empty() ? '\0' : value.back();
  const bool has_suffix = suffix == 's' || suffix == 'm' || suffix == 'h';
  const std::string_view number(value.data(), has_suffix ? value.size() - 1 : value.size());
  const double amount = parse_real(key, value, number);
  switch (suffix) {
    case 'm':
      return util::minutes(amount);
    case 'h':
      return util::hours(amount);
    default:
      return util::Seconds{amount};
  }
}

std::vector<WorkloadShare> parse_mix(const std::string& text) {
  std::vector<WorkloadShare> mix;
  const auto& defaults = default_workload_mix();
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, '+')) {
    if (item.empty()) continue;
    const auto colon = item.find(':');
    WorkloadShare share;
    share.workload = colon == std::string::npos ? item : item.substr(0, colon);
    share.weight = colon == std::string::npos
                       ? 1.0
                       : parse_real("mix weight", item, std::string_view(item).substr(colon + 1));
    // Inherit the calibrated goal menu for known workloads; unknown names
    // fail later at service submit with a per-job rejection, not here.
    for (const auto& d : defaults) {
      if (d.workload == share.workload) {
        share.loss_choices = d.loss_choices;
        share.tg_minutes_lo = d.tg_minutes_lo;
        share.tg_minutes_hi = d.tg_minutes_hi;
      }
    }
    if (share.loss_choices.empty()) share.loss_choices = {0.5};
    mix.push_back(std::move(share));
  }
  if (mix.empty()) throw std::invalid_argument("traffic: empty mix '" + text + "'");
  return mix;
}

}  // namespace

const std::vector<WorkloadShare>& default_workload_mix() {
  // Calibrated against `cynthiactl plan` on the stock catalog: every
  // (workload, loss, Tg) this menu can draw has a feasible Algorithm 1 plan;
  // the tight ends (cifar10 at 40 min, vgg19 at 35 min) force 30-60-docker
  // fleets, the loose ends run on 2-7 dockers. Every Tg floor leaves room
  // for the ~70 s boot/install/join provisioning walk, so an uncontended
  // admission can still meet its SLO (mnist trains in seconds; its goal is
  // dominated by provisioning, not compute).
  static const std::vector<WorkloadShare> kMix = {
      {"mnist", 0.55, {0.3, 0.4, 0.5}, 3.0, 12.0},
      {"cifar10", 0.25, {0.5}, 40.0, 240.0},
      {"vgg19", 0.15, {0.5}, 35.0, 240.0},
      {"resnet32", 0.05, {0.5}, 130.0, 360.0},
  };
  return kMix;
}

TrafficOptions TrafficOptions::parse(const std::string& spec) {
  TrafficOptions options;
  std::string body = spec;
  if (body.rfind("poisson:", 0) == 0) body = body.substr(8);
  if (body.empty()) return options;
  std::istringstream in(body);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("traffic: expected key=value in '" + item + "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "jobs") {
      options.jobs = parse_integer<long>(key, value);
    } else if (key == "horizon") {
      options.horizon = parse_duration(key, value);
    } else if (key == "diurnal") {
      options.diurnal_amplitude = parse_real(key, value);
    } else if (key == "peak") {
      options.peak_hour = parse_real(key, value);
    } else if (key == "seed") {
      options.seed = parse_integer<std::uint64_t>(key, value);
    } else if (key == "tenants") {
      options.tenants = parse_integer<int>(key, value);
    } else if (key == "patience") {
      options.patience = parse_duration(key, value);
    } else if (key == "production") {
      options.production_fraction = parse_real(key, value);
    } else if (key == "batch") {
      options.batch_fraction = parse_real(key, value);
    } else if (key == "mix") {
      options.mix = parse_mix(value);
    } else {
      throw std::invalid_argument("traffic: unknown key '" + key + "'");
    }
  }
  options.validate();
  return options;
}

void TrafficOptions::validate() const {
  // Written so that NaN fails every check: it makes each comparison false.
  if (jobs <= 0) throw std::invalid_argument("traffic: jobs must be positive");
  if (!(horizon.value() > 0.0 && std::isfinite(horizon.value()))) {
    throw std::invalid_argument("traffic: horizon must be finite and positive");
  }
  if (!(diurnal_amplitude >= 0.0 && diurnal_amplitude < 1.0)) {
    throw std::invalid_argument("traffic: diurnal amplitude must be in [0, 1)");
  }
  if (!std::isfinite(peak_hour)) throw std::invalid_argument("traffic: peak hour must be finite");
  if (tenants < 1) throw std::invalid_argument("traffic: tenants must be at least 1");
  if (!(patience.value() >= 0.0 && std::isfinite(patience.value()))) {
    throw std::invalid_argument("traffic: patience must be finite and >= 0 (0 waits forever)");
  }
  if (!(production_fraction >= 0.0 && batch_fraction >= 0.0 &&
        production_fraction + batch_fraction <= 1.0)) {
    throw std::invalid_argument("traffic: class fractions must be >= 0 and sum <= 1");
  }
  for (const WorkloadShare& share : mix) {
    if (!(share.weight > 0.0 && std::isfinite(share.weight))) {
      throw std::invalid_argument("traffic: mix weight of '" + share.workload +
                                  "' must be finite and positive");
    }
  }
}

TrafficGenerator::TrafficGenerator(TrafficOptions options) : options_(std::move(options)) {}

std::vector<JobRequest> TrafficGenerator::generate() const {
  const auto& mix = options_.mix.empty() ? default_workload_mix() : options_.mix;
  double weight_total = 0.0;
  for (const auto& share : mix) weight_total += share.weight;

  util::Rng rng(options_.seed);
  std::vector<JobRequest> out;
  out.reserve(static_cast<std::size_t>(options_.jobs));

  // Inhomogeneous Poisson by thinning: candidates from a homogeneous
  // process at the peak rate, accepted with probability rate(t)/rate_max.
  const double base_rate = static_cast<double>(options_.jobs) / options_.horizon.value();
  const double amplitude = options_.diurnal_amplitude;
  const double rate_max = base_rate * (1.0 + amplitude);
  const double peak_seconds = options_.peak_hour * util::kSecondsPerHour;
  double t = 0.0;
  while (out.size() < static_cast<std::size_t>(options_.jobs)) {
    t += -std::log(1.0 - rng.uniform(0.0, 1.0)) / rate_max;
    const double phase = kTwoPi * (t - peak_seconds) / util::kSecondsPerDay;
    const double rate = base_rate * (1.0 + amplitude * std::cos(phase));
    if (rng.uniform(0.0, 1.0) * rate_max > rate) continue;  // thinned out

    JobRequest job;
    job.id = static_cast<long>(out.size());
    job.arrival = util::Seconds{t};
    job.tenant = "t";
    job.tenant += std::to_string(rng.uniform_int(0, options_.tenants - 1));
    job.max_queue_wait = options_.patience;

    double pick = rng.uniform(0.0, weight_total);
    const WorkloadShare* share = &mix.back();
    for (const auto& candidate : mix) {
      pick -= candidate.weight;
      if (pick < 0.0) {
        share = &candidate;
        break;
      }
    }
    job.workload = share->workload;
    job.goal.time_goal =
        util::minutes(rng.uniform(share->tg_minutes_lo, share->tg_minutes_hi));
    job.goal.target_loss = share->loss_choices[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(share->loss_choices.size()) - 1))];

    const double klass = rng.uniform(0.0, 1.0);
    if (klass < options_.production_fraction) {
      job.priority = Priority::kProduction;
    } else if (klass < options_.production_fraction + options_.batch_fraction) {
      job.priority = Priority::kBatch;
    } else {
      job.priority = Priority::kStandard;
    }
    out.push_back(std::move(job));
  }
  return out;
}

}  // namespace cynthia::service
