#include "orchestrator/sentinel.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "util/check.hpp"

namespace cynthia::orch {

namespace {

/// Median of `values` (n >= 1), sorted in `scratch`, which keeps its
/// capacity across calls. Even n averages the middle pair.
double median_of(const std::vector<double>& values, std::vector<double>& scratch) {
  scratch.assign(values.begin(), values.end());
  std::sort(scratch.begin(), scratch.end());
  const std::size_t mid = scratch.size() / 2;
  if (scratch.size() % 2 == 1) return scratch[mid];
  return 0.5 * (scratch[mid - 1] + scratch[mid]);
}

}  // namespace

// ----------------------------------------------------------- detector

StragglerDetector::StragglerDetector(Config config, std::vector<DetectionEvent>* detections,
                                     std::vector<MitigationRecord>* mitigations)
    : cfg_(config), detections_(detections), mitigations_(mitigations) {}

ddnn::MonitorAction StragglerDetector::observe(const ddnn::HealthProbe& probe) {
  // One detector watches one segment, whose simulator clock never rewinds.
  CYNTHIA_DCHECK(probe.now >= last_now_, "StragglerDetector: probe clock moved back from ",
                 last_now_, " to ", probe.now);
  ++probes_;
  const int n = static_cast<int>(probe.worker_busy_seconds.size());
  if (static_cast<int>(ewma_.size()) != n) ewma_.assign(n, -1.0);
  for (int j = 0; j < n; ++j) {
    const double x = probe.worker_busy_seconds[j];
    if (x < 0.0) continue;
    ewma_[j] = ewma_[j] < 0.0 ? x : kEwmaAlpha * x + (1.0 - kEwmaAlpha) * ewma_[j];
  }
  if (probe.iteration > last_iteration_) {
    const double per_iter =
        (probe.now - last_now_) / static_cast<double>(probe.iteration - last_iteration_);
    iter_ewma_ = iter_ewma_ < 0.0 ? per_iter
                                  : kEwmaAlpha * per_iter + (1.0 - kEwmaAlpha) * iter_ewma_;
  }
  last_now_ = probe.now;
  last_iteration_ = probe.iteration;

  if (probes_ <= kWarmupProbes) return {};
  if (probe.now < cooldown_until_) return {};

  // --- straggler: robust z-score of the slowest baseline vs the cluster ---
  panel_.clear();
  int worst = -1;
  double worst_val = -1.0;
  for (int j = 0; j < n; ++j) {
    if (ewma_[j] < 0.0 || probe.worker_busy_seconds[j] < 0.0) continue;
    panel_.push_back(ewma_[j]);
    if (ewma_[j] > worst_val) {
      worst_val = ewma_[j];
      worst = j;
    }
  }
  bool straggler = false;
  double z = 0.0;
  if (panel_.size() >= 3) {
    const double med = median_of(panel_, sorted_);
    dev_.clear();
    for (double x : panel_) dev_.push_back(std::abs(x - med));
    const double mad = std::max(median_of(dev_, sorted_), 1e-12);
    z = 0.6745 * (worst_val - med) / mad;
    // Both gates: the z-score alone explodes on a healthy near-uniform
    // cluster (tiny MAD), the ratio alone misses subtle-but-systematic
    // stragglers on a noisy one.
    straggler = worst_val >= med * kMinRatio && z >= kMadZ;
  }
  if (straggler && worst == straggler_worker_) {
    ++straggler_streak_;
  } else if (straggler) {
    straggler_worker_ = worst;
    straggler_streak_ = 1;
  } else {
    straggler_worker_ = -1;
    straggler_streak_ = 0;
  }

  // --- PS bottleneck: the fluid model's binding-constraint fractions ---
  const double sat =
      std::max(probe.ps_nic_saturated_fraction, probe.ps_cpu_saturated_fraction);
  if (sat >= kPsSaturationFraction) {
    ++ps_streak_;
  } else {
    ps_streak_ = 0;
  }

  // --- Tg forecast: measured rate projected over the remaining budget ---
  bool forecast_miss = false;
  double overrun = 0.0;
  if (cfg_.time_goal_seconds.value() > 0.0 && iter_ewma_ > 0.0) {
    const long remaining =
        cfg_.total_iterations - (cfg_.iteration_offset + probe.iteration);
    const double projected = cfg_.elapsed_offset_seconds.value() + probe.now +
                             iter_ewma_ * static_cast<double>(std::max<long>(0, remaining));
    const double budget = cfg_.time_goal_seconds.value() * (1.0 - kForecastMargin);
    overrun = projected / std::max(1e-12, budget);
    forecast_miss = projected > budget;
  }
  if (forecast_miss) {
    ++forecast_streak_;
  } else {
    forecast_streak_ = 0;
  }

  // Priority: a named straggler explains the symptom best; the PS bottleneck
  // explains a uniformly slow cluster; the forecast is the catch-all.
  const int h = kHysteresisProbes;
  DetectionEvent event;
  event.at = util::Seconds{cfg_.elapsed_offset_seconds.value() + probe.now};
  if (straggler_streak_ >= h) {
    event.kind = "straggler";
    event.worker = straggler_worker_;
    event.severity = z;
  } else if (ps_streak_ >= h) {
    event.kind = "ps-bottleneck";
    event.severity = sat;
  } else if (forecast_streak_ >= h) {
    event.kind = "slo-forecast";
    event.severity = overrun;
  } else {
    return {};
  }
  return act(event, probe);
}

ddnn::MonitorAction StragglerDetector::act(const DetectionEvent& event,
                                           const ddnn::HealthProbe& probe) {
  if (detections_ != nullptr) detections_->push_back(event);
  // Every detection starts a cooldown — even an unactionable one — so a
  // persistent condition is reported once per window, not every probe.
  cooldown_until_ = probe.now + kCooldown.value();
  straggler_streak_ = 0;
  straggler_worker_ = -1;
  ps_streak_ = 0;
  forecast_streak_ = 0;
  if (cfg_.policy == MitigationPolicy::kNone || cfg_.actions_remaining <= 0) return {};

  const bool is_auto = cfg_.policy == MitigationPolicy::kAuto;
  ddnn::MonitorAction action;
  MitigationRecord record;
  record.at = event.at;

  if (event.kind == "straggler") {
    if (is_auto || cfg_.policy == MitigationPolicy::kReplace) {
      if (event.worker < 0) return {};
      action.kind = ddnn::MonitorAction::Kind::kExcludeWorker;
      action.target = event.worker;
      action.replacement_after_seconds = cfg_.replacement_after_seconds;
      action.reason = "straggler:wk" + std::to_string(event.worker);
      record.action = "replace:wk" + std::to_string(event.worker);
      // The replacement is fresh hardware; its baseline starts over.
      if (event.worker < static_cast<int>(ewma_.size())) ewma_[event.worker] = -1.0;
    } else if (cfg_.policy == MitigationPolicy::kSsp) {
      if (probe.mode != ddnn::SyncMode::BSP || !cfg_.allow_ssp_downgrade || !cfg_.allow_stop) {
        return {};
      }
      action.kind = ddnn::MonitorAction::Kind::kDowngradeSsp;
      action.staleness_bound = kSspStalenessBound;
      action.reason = "straggler:wk" + std::to_string(event.worker);
      record.action = "ssp-downgrade";
    } else {
      return {};  // a forced add-ps/replan policy cannot address a straggler
    }
  } else if (event.kind == "ps-bottleneck") {
    if (is_auto || cfg_.policy == MitigationPolicy::kAddPs) {
      if (!cfg_.allow_stop) return {};
      action.kind = ddnn::MonitorAction::Kind::kStop;
      action.reason = "ps-bottleneck";
      record.action = "add-ps";
    } else {
      return {};
    }
  } else {  // slo-forecast
    const bool can_ssp =
        probe.mode == ddnn::SyncMode::BSP && cfg_.allow_ssp_downgrade && cfg_.allow_stop;
    if ((cfg_.policy == MitigationPolicy::kSsp || is_auto) && can_ssp) {
      action.kind = ddnn::MonitorAction::Kind::kDowngradeSsp;
      action.staleness_bound = kSspStalenessBound;
      action.reason = "slo-forecast";
      record.action = "ssp-downgrade";
    } else if (cfg_.policy == MitigationPolicy::kSsp) {
      return {};  // forced ssp, but the downgrade is unavailable here
    } else if (is_auto || cfg_.policy == MitigationPolicy::kReplan) {
      if (!cfg_.allow_stop) return {};
      action.kind = ddnn::MonitorAction::Kind::kStop;
      action.reason = "replan";
      record.action = "replan";
    } else {
      return {};
    }
  }

  --cfg_.actions_remaining;
  record.detail = event.kind + " severity " + std::to_string(event.severity);
  if (mitigations_ != nullptr) mitigations_->push_back(std::move(record));
  return action;
}

// ----------------------------------------------------------- adapter

SloSentinel::SloSentinel(SentinelOptions options) : options_(std::move(options)) {}

SentinelReport SloSentinel::run(const ddnn::WorkloadSpec& workload,
                                const core::ProvisionPlan& plan,
                                const faults::FaultSchedule& schedule,
                                const core::ProvisionGoal& goal) const {
  return execute_job({workload, plan, goal, schedule, Sentinel{options_.policy}, options_.seed,
                      options_.training});
}

}  // namespace cynthia::orch
