#include "core/loss_model.hpp"

#include <stdexcept>

#include "ddnn/loss.hpp"
#include "util/least_squares.hpp"

namespace cynthia::core {

LossModel::LossModel(ddnn::SyncMode mode, double beta0, double beta1, int ssp_bound)
    : mode_(mode), beta0_(beta0), beta1_(beta1), ssp_bound_(ssp_bound) {
  if (beta0 <= 0.0) throw std::invalid_argument("LossModel: beta0 must be > 0");
}

LossModel LossModel::fit(ddnn::SyncMode mode, std::span<const TaggedLossSample> samples) {
  if (samples.size() < 2) throw std::invalid_argument("LossModel::fit: need >= 2 samples");
  util::Matrix x(samples.size(), 2);
  std::vector<double> y(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto& s = samples[i];
    if (s.iteration <= 0 || s.n_workers <= 0) {
      throw std::invalid_argument("LossModel::fit: non-positive iteration/worker count");
    }
    const double staleness = ddnn::staleness_factor(mode, s.n_workers, /*ssp_bound=*/3);
    x(i, 0) = staleness / static_cast<double>(s.iteration);
    x(i, 1) = 1.0;
    y[i] = s.loss;
  }
  const auto beta = util::least_squares(x, y);
  if (beta[0] <= 0.0) {
    throw std::runtime_error("LossModel::fit: non-decreasing loss curve (beta0 <= 0)");
  }
  return LossModel(mode, beta[0], beta[1]);
}

LossModel LossModel::fit_curve(ddnn::SyncMode mode, std::span<const ddnn::LossSample> curve,
                               int n_workers) {
  std::vector<TaggedLossSample> samples;
  samples.reserve(curve.size());
  for (const auto& p : curve) samples.push_back({p.iteration, n_workers, p.loss});
  return fit(mode, samples);
}

LossModel LossModel::fit_run(ddnn::SyncMode mode, const ddnn::TrainResult& run, int n_workers) {
  return fit_curve(mode, run.loss_curve, n_workers);
}

double LossModel::loss_at(double steps, int n_workers) const {
  if (steps <= 0.0 || n_workers <= 0) throw std::invalid_argument("LossModel::loss_at: bad inputs");
  return beta0_ * ddnn::staleness_factor(mode_, n_workers, ssp_bound_) / steps + beta1_;
}

long LossModel::iterations_for(double target_loss, int n_workers) const {
  if (n_workers <= 0) throw std::invalid_argument("LossModel: workers must be > 0");
  if (target_loss <= beta1_) {
    throw std::invalid_argument("LossModel: target loss below asymptote beta1");
  }
  if (mode_ == ddnn::SyncMode::BSP) {
    // Eq. 15: s = ceil(beta0 / (l_g - beta1)).
    return ddnn::whole_steps(beta0_ / (target_loss - beta1_));
  }
  // ASP/SSP: exact inversion of l = beta0 * phi(n) / s_total + beta1 with
  // the total split evenly across workers (see header for the Eq. 20 note).
  // phi is the staleness factor (sqrt(n) for ASP).
  const double phi = ddnn::staleness_factor(mode_, n_workers, ssp_bound_);
  return ddnn::whole_steps(beta0_ * phi /
                           ((target_loss - beta1_) * static_cast<double>(n_workers)));
}

}  // namespace cynthia::core
