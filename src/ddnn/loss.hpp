// Ground-truth training-loss process (Sec. 2, Eq. 1 of the paper).
//
// The paper's measurements (Fig. 4) show SGD loss decaying as
//   BSP: l(s)   = beta0 / s + beta1
//   ASP: l(s,n) = beta0 * sqrt(n) / s + beta1   (staleness slows convergence)
// with SSP (extension) interpolating via the bounded-staleness factor of
// ddnn::staleness_factor(). The simulator treats these fitted forms (plus
// bounded observation noise) as the ground truth the training runs emit;
// Cynthia then *re-fits* the coefficients from noisy observations exactly
// as the paper does.
//
// The sampling rule of a run's loss curve lives here too, so the trainer
// (which observes the process as updates complete) and the predictor (which
// samples a prior execution's curve directly) share one definition.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ddnn/workload.hpp"
#include "util/rng.hpp"

namespace cynthia::ddnn {

/// Evaluates the noiseless loss model at iteration `steps` with n workers.
/// `ssp_bound` only matters for SyncMode::SSP.
double loss_model(const LossCoefficients& c, SyncMode mode, double steps, int n_workers,
                  int ssp_bound = 3);

/// Minimum iterations to reach `target_loss` (inverts Eq. 1 exactly);
/// throws std::invalid_argument if the target is unreachable (<= beta1).
long iterations_to_reach(const LossCoefficients& c, SyncMode mode, double target_loss,
                         int n_workers, int ssp_bound = 3);

/// Emits noisy loss observations for a training run.
class LossProcess {
 public:
  LossProcess(const WorkloadSpec& workload, int n_workers, std::uint64_t seed);

  /// Observed (noisy) loss after `iteration` completed iterations.
  double observe(long iteration);

  /// Noiseless model value.
  [[nodiscard]] double expected(long iteration) const;

 private:
  LossCoefficients coeff_;
  SyncMode mode_;
  int n_workers_;
  int ssp_bound_;
  double noise_rel_;
  util::Rng rng_;
};

/// One point of a run's loss curve: the observed loss after `iteration`
/// globally applied updates.
struct LossSample {
  long iteration = 0;
  double loss = 0.0;
};

/// Seed of a run's loss process. It is derived from the run seed alone, so
/// the loss process draws from its own stream and no other random draw of
/// the run shifts the curve.
std::uint64_t loss_seed(std::uint64_t run_seed);

/// Which completed updates a run's loss curve samples: every `stride`-th one
/// and the last, each tagged with the run's iteration offset (a resumed
/// segment continues its job's curve).
class LossSampling {
 public:
  LossSampling() = default;
  /// `stride` <= 0 = auto (~200 samples per run).
  LossSampling(long total_iterations, long stride, long offset);

  [[nodiscard]] bool samples(long completed_updates) const {
    return completed_updates > 0 &&
           (completed_updates % stride_ == 0 || completed_updates == total_);
  }
  /// The first sample point after `completed_updates`, which must be < total.
  [[nodiscard]] long next_after(long completed_updates) const {
    return std::min((completed_updates / stride_ + 1) * stride_, total_);
  }
  /// Iteration a sample taken after `completed_updates` is tagged with.
  [[nodiscard]] long global(long completed_updates) const { return offset_ + completed_updates; }
  [[nodiscard]] long total() const { return total_; }

 private:
  long total_ = 0;
  long stride_ = 1;
  long offset_ = 0;
};

/// The loss curve that a fault-free, unmonitored run_training of `workload`
/// on `n_workers` workers with run seed `seed` emits, computed without
/// simulating the run. In such a run the sample points fire at completed
/// updates 1, 2, ..., total in order, and the loss process is seeded by the
/// run seed alone, so the curve depends on nothing else: not the instance
/// type, the PS count or any timing. The result equals the simulated
/// TrainResult::loss_curve bit for bit; the cost grows with the number of
/// samples, not of iterations. `iterations` 0 = the workload's default.
/// Throws std::invalid_argument for no workers, negative iterations or an
/// empty run.
std::vector<LossSample> sample_loss_curve(const WorkloadSpec& workload, int n_workers,
                                          std::uint64_t seed, long iterations, long stride = 0,
                                          long offset = 0);

}  // namespace cynthia::ddnn
