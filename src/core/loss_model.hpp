// Fitted DDNN training-loss model (Sec. 2, Eq. 1).
//
//   BSP: l(s)   = beta0 / s + beta1
//   ASP: l(s,n) = beta0 * sqrt(n) / s + beta1
//
// Cynthia obtains the coefficients by polynomial (here: linear) regression
// over loss observations from one prior execution of the job — DDNN jobs
// recur in production clusters, so the curve is available "for free".
#pragma once

#include <span>
#include <vector>

#include "ddnn/trainer.hpp"
#include "ddnn/workload.hpp"

namespace cynthia::core {

/// One loss observation tagged with the cluster size it was observed under
/// (the ASP curve depends on the worker count).
struct TaggedLossSample {
  long iteration = 0;
  int n_workers = 1;
  double loss = 0.0;
};

class LossModel {
 public:
  LossModel(ddnn::SyncMode mode, double beta0, double beta1, int ssp_bound = 3);

  /// Least-squares fit of (beta0, beta1). The model is linear in the
  /// coefficients with regressor x = 1/s (BSP) or sqrt(n)/s (ASP).
  /// Requires >= 2 samples at distinct regressor values.
  static LossModel fit(ddnn::SyncMode mode, std::span<const TaggedLossSample> samples);

  /// Convenience: tag one run's loss curve with its worker count.
  static LossModel fit_curve(ddnn::SyncMode mode, std::span<const ddnn::LossSample> curve,
                             int n_workers);
  static LossModel fit_run(ddnn::SyncMode mode, const ddnn::TrainResult& run, int n_workers);

  [[nodiscard]] double beta0() const { return beta0_; }
  [[nodiscard]] double beta1() const { return beta1_; }
  [[nodiscard]] ddnn::SyncMode mode() const { return mode_; }
  [[nodiscard]] int ssp_bound() const { return ssp_bound_; }

  /// Predicted loss after `steps` iterations with `n` workers.
  [[nodiscard]] double loss_at(double steps, int n_workers) const;

  /// Iterations required to reach `target_loss` (Eq. 15 for BSP). For ASP
  /// this returns the *per-worker* iteration count; the paper's printed
  /// Eq. 20 under-provisions by construction (it divides by l_g instead of
  /// l_g - beta1 and so misses the target by ~beta1), so we invert the
  /// model exactly, matching the BSP treatment. Clamped to [1, LONG_MAX]
  /// (ddnn::whole_steps).
  [[nodiscard]] long iterations_for(double target_loss, int n_workers) const;

 private:
  ddnn::SyncMode mode_;
  double beta0_;
  double beta1_;
  int ssp_bound_;
};

}  // namespace cynthia::core
