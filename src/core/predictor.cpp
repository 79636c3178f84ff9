#include "core/predictor.hpp"

#include "ddnn/loss.hpp"

namespace cynthia::core {

Predictor::Predictor(profiler::ProfileResult profile, LossModel loss)
    : model_(std::move(profile)), loss_(std::move(loss)) {}

Predictor Predictor::build(const ddnn::WorkloadSpec& workload, const cloud::InstanceType& baseline,
                           const PredictorOptions& options) {
  profiler::ProfileResult profile = profiler::profile_workload(workload, baseline, options.profile);

  // Fit the loss curve of a prior execution of the job. Only that run's loss
  // curve is read, and it depends on neither the cluster's timing nor its
  // instance type, so it is sampled from the loss process directly.
  const std::vector<ddnn::LossSample> history =
      ddnn::sample_loss_curve(workload, options.loss_history_workers, options.loss_history_seed,
                              options.loss_history_iterations);
  LossModel loss = LossModel::fit_curve(workload.sync, history, options.loss_history_workers);

  return Predictor(std::move(profile), std::move(loss));
}

util::Seconds Predictor::predict_time(const ddnn::ClusterSpec& cluster,
                                      const ddnn::WorkloadSpec& workload, long iterations) const {
  const long iters = iterations > 0 ? iterations : workload.default_iterations;
  return model_.predict_total(cluster, workload.sync, iters);
}

}  // namespace cynthia::core
