// Cynthia's "performance predictor" facade (Sec. 5, prototype description).
//
// Bundles the three artifacts a submitted job needs — the one-shot baseline
// profile, the loss curve fitted on a prior execution's loss history, and
// the analytical performance model — behind one constructor, mirroring the
// module that lives on the paper's Kubernetes master node.
#pragma once

#include <cstdint>

#include "cloud/instance.hpp"
#include "core/loss_model.hpp"
#include "core/perf_model.hpp"
#include "ddnn/workload.hpp"
#include "profiler/profiler.hpp"

namespace cynthia::core {

struct PredictorOptions {
  profiler::ProfileOptions profile;  ///< 30-iteration baseline profiling
  /// Cluster size of the "previous execution" whose loss curve we fit
  /// (the paper assumes recurring jobs; any prior run works). Its curve is
  /// sampled from the loss process (ddnn::sample_loss_curve), not simulated:
  /// it equals the simulated run's curve bit for bit.
  int loss_history_workers = 4;
  /// Run seed of that prior execution.
  std::uint64_t loss_history_seed = 11;
  /// Iterations of that prior execution; 0 = the workload's Table 1 default.
  long loss_history_iterations = 0;
};

class Predictor {
 public:
  /// Profiles `workload` on `baseline` and fits the loss model on the
  /// sampled loss history of a prior execution.
  static Predictor build(const ddnn::WorkloadSpec& workload, const cloud::InstanceType& baseline,
                         const PredictorOptions& options = {});

  Predictor(profiler::ProfileResult profile, LossModel loss);

  [[nodiscard]] const profiler::ProfileResult& profile() const { return model_.profile(); }
  [[nodiscard]] const CynthiaModel& model() const { return model_; }
  [[nodiscard]] const LossModel& loss() const { return loss_; }

  /// Predicted wall time for `iterations` on `cluster` (0 = Table 1 default
  /// for the workload, interpreted as a global count for both modes).
  [[nodiscard]] util::Seconds predict_time(const ddnn::ClusterSpec& cluster,
                                           const ddnn::WorkloadSpec& workload,
                                           long iterations = 0) const;

 private:
  CynthiaModel model_;
  LossModel loss_;
};

}  // namespace cynthia::core
