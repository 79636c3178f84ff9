#include "profiler/profiler.hpp"

#include <stdexcept>

namespace cynthia::profiler {

ProfileResult profile_workload(const ddnn::WorkloadSpec& workload,
                               const cloud::InstanceType& baseline,
                               const ProfileOptions& options) {
  if (options.iterations <= 0) {
    throw std::invalid_argument("profile_workload: iterations must be > 0");
  }
  const auto cluster = ddnn::ClusterSpec::homogeneous(baseline, /*n_workers=*/1, /*n_ps=*/1);

  ddnn::TrainOptions train;
  train.iterations = options.iterations;
  train.seed = options.seed;
  const ddnn::TrainResult run = ddnn::run_training(cluster, workload, train);

  ProfileResult out;
  out.workload = workload.name;
  out.baseline_type = baseline.name;
  out.cbase = baseline.compute_gflops();
  out.iterations = options.iterations;
  out.profiling_time = util::Seconds{run.total_time};

  // t_base is the *computation* time of an iteration; the trainer already
  // separates the computation phase from the communication chain.
  out.tbase_iter = util::Seconds{run.computation_time / options.iterations};
  out.witer = util::GFlops{out.tbase_iter.value() * out.cbase.value()};

  // g_param: bytes that crossed the PS NIC inbound, per iteration (the
  // paper's "network communication data on the PS divided by iterations").
  // The ingress direction carries exactly one gradient payload per
  // iteration, so this also absorbs the wire/framing overhead into the
  // measured quantity — predictions stay consistent with the testbed.
  const double ingress_mb = run.ps_ingress_avg_mbps * run.total_time;
  out.gparam = util::MegaBytes{ingress_mb / options.iterations};

  // c_prof: PS CPU consumption rate = utilization x capability (Sec. 3).
  out.cprof = util::GFlopsRate{run.avg_ps_cpu_util * cluster.ps.front().cpu.value()};

  // b_prof: PS network throughput during profiling. Push and pull payloads
  // are symmetric, so the bidirectional rate is twice the ingress rate.
  out.bprof = util::MBps{2.0 * run.ps_ingress_avg_mbps};
  return out;
}

}  // namespace cynthia::profiler
