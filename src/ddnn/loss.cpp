#include "ddnn/loss.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/saturating.hpp"

namespace cynthia::ddnn {

double loss_model(const LossCoefficients& c, SyncMode mode, double steps, int n_workers,
                  int ssp_bound) {
  if (steps <= 0.0) throw std::invalid_argument("loss_model: iterations must be > 0");
  const double staleness = staleness_factor(mode, n_workers, ssp_bound);
  return c.beta0 * staleness / steps + c.beta1;
}

long whole_steps(double steps) {
  return std::max(1L, util::saturating_ceil<long>(steps - 1e-9));
}

long iterations_to_reach(const LossCoefficients& c, SyncMode mode, double target_loss, int n_workers,
                         int ssp_bound) {
  if (target_loss <= c.beta1) {
    throw std::invalid_argument("iterations_to_reach: target loss below asymptote beta1");
  }
  const double staleness = staleness_factor(mode, n_workers, ssp_bound);
  return whole_steps(c.beta0 * staleness / (target_loss - c.beta1));
}

LossProcess::LossProcess(const WorkloadSpec& workload, int n_workers, std::uint64_t seed)
    : coeff_(workload.loss()),
      mode_(workload.sync),
      n_workers_(n_workers),
      ssp_bound_(workload.ssp_staleness_bound),
      noise_rel_(workload.loss_noise_rel),
      rng_(seed) {}

double LossProcess::expected(long iteration) const {
  return loss_model(coeff_, mode_, static_cast<double>(std::max(1L, iteration)), n_workers_,
                    ssp_bound_);
}

double LossProcess::observe(long iteration) {
  const double base = expected(iteration);
  // Multiplicative bounded noise keeps observations positive and the curve
  // monotone enough for a plain least-squares fit, as in the paper.
  const double factor = rng_.bounded_normal(1.0, noise_rel_, 3.0 * noise_rel_);
  return base * factor;
}

std::uint64_t loss_seed(std::uint64_t run_seed) { return run_seed ^ 0xA5A55A5A12345678ULL; }

LossSampling::LossSampling(long total_iterations, long stride, long offset)
    : total_(total_iterations),
      stride_(stride > 0 ? stride : std::max<long>(1, total_iterations / 200)),
      offset_(offset) {}

std::vector<LossSample> sample_loss_curve(const WorkloadSpec& workload, int n_workers,
                                          std::uint64_t seed, long iterations, long stride,
                                          long offset) {
  if (n_workers <= 0) throw std::invalid_argument("sample_loss_curve: need at least one worker");
  if (iterations < 0) throw std::invalid_argument("sample_loss_curve: negative iterations");
  const LossSampling rule(iterations > 0 ? iterations : workload.default_iterations, stride,
                          offset);
  if (rule.total() <= 0) throw std::invalid_argument("sample_loss_curve: no iterations");
  LossProcess process(workload, n_workers, loss_seed(seed));
  std::vector<LossSample> curve;
  for (long done = 0; done < rule.total();) {
    done = rule.next_after(done);
    const long global = rule.global(done);
    curve.push_back({global, process.observe(global)});
  }
  return curve;
}

}  // namespace cynthia::ddnn
