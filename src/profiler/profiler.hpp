// One-shot baseline-worker profiling (Sec. 3, "Obtaining model parameters").
//
// Cynthia's entire lightweight-profiling story: run the DDNN workload for a
// small, fixed number of iterations (30 by default) on ONE baseline worker
// with one PS node, and extract
//   w_iter  = t_base * c_base      (FLOPs per iteration)
//   g_param = PS ingress volume / iterations
//   c_prof  = PS CPU consumption rate (GFLOPS) during the profiling run
//   b_prof  = PS network throughput (in + out, MB/s) during the run
// No other measurement is ever taken; predictions for any cluster size,
// any PS count, and any *other* instance type (Fig. 8) derive from these
// four numbers plus static catalog data.
#pragma once

#include "cloud/instance.hpp"
#include "ddnn/trainer.hpp"
#include "ddnn/workload.hpp"
#include "util/units.hpp"

namespace cynthia::profiler {

struct ProfileResult {
  std::string workload;
  std::string baseline_type;  ///< instance type profiled on
  util::GFlopsRate cbase;     ///< baseline worker CPU capability

  util::Seconds tbase_iter;   ///< mean computation time of one iteration
  util::GFlops witer;         ///< t_base * c_base
  util::MegaBytes gparam;     ///< parameter payload observed on the wire
  util::GFlopsRate cprof;     ///< PS CPU consumption rate
  util::MBps bprof;           ///< PS throughput, both directions summed

  int iterations = 0;              ///< profiling iterations (default 30)
  util::Seconds profiling_time;    ///< wall-clock cost of the profiling run
};

struct ProfileOptions {
  int iterations = 30;
  std::uint64_t seed = 7;
};

/// Profiles `workload` on a 1 PS + 1 worker cluster of `baseline` dockers.
ProfileResult profile_workload(const ddnn::WorkloadSpec& workload,
                               const cloud::InstanceType& baseline,
                               const ProfileOptions& options = {});

}  // namespace cynthia::profiler
