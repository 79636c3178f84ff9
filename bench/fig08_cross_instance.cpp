// Figure 8: cross-instance-type prediction. Cynthia profiles VGG-19 once on
// an m4.xlarge baseline and predicts the training time on r3.xlarge
// clusters of 7/9/12 workers using only the catalog's r3 entry (its per-core
// GFLOPS, the paper's CPU-capability table [3], and its NIC share) — no
// re-profiling. Paper: 4.0-5.2% error.
#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "core/perf_model.hpp"
#include "profiler/profiler.hpp"

using namespace cynthia;

int main() {
  std::puts("=== Fig. 8: predict r3.xlarge from an m4.xlarge profile (VGG-19, ASP) ===");
  const auto& w = ddnn::workload_by_name("vgg19");
  const auto profile = profiler::profile_workload(w, bench::m4());
  core::CynthiaModel model(profile);

  util::Table t("VGG-19, ASP, 1000 iterations on r3.xlarge");
  t.header({"workers", "observed (s)", "Cynthia (s)", "error"});
  util::CsvWriter csv(bench::out_dir() + "/fig08_cross_instance.csv");
  csv.header({"workers", "observed_s", "cynthia_s"});
  for (int n : {7, 9, 12}) {
    const auto cluster = ddnn::ClusterSpec::homogeneous(bench::r3(), n, 1);
    const auto obs = bench::repeat_scaled(cluster, w, 1000, 1000);
    const double pred = model.predict_total(cluster, w.sync, 1000).value();
    t.row({std::to_string(n), bench::fmt_mean_std(obs), util::Table::num(pred, 0),
           util::Table::pct(util::relative_error_percent(obs.mean, pred))});
    csv.row_numeric({static_cast<double>(n), obs.mean, pred});
  }
  t.print(std::cout);
  std::puts("One baseline profile serves every instance type (paper: 4.0-5.2% error).");
  std::printf("[csv] %s/fig08_cross_instance.csv\n\n", bench::out_dir().c_str());
  return 0;
}
