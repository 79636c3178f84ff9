#include "core/bounds.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/perf_model.hpp"

namespace cynthia::core {

namespace {

/// ceil(x) as an int, saturating at INT_MAX: a tiny budget asks for more
/// nodes than an int holds, which must read as "too many" (converting the
/// out-of-range double is undefined; x86 yields INT_MIN).
int ceil_int(double x) {
  constexpr int kMax = std::numeric_limits<int>::max();
  const double c = std::ceil(x);
  return c < static_cast<double>(kMax) ? static_cast<int>(c) : kMax;
}

}  // namespace

double max_provisioning_ratio(const profiler::ProfileResult& profile,
                              const cloud::InstanceType& type, double supply_headroom) {
  const double cbase = profile.cbase.value();
  const double cwk = type.compute_gflops().value();
  // The PS folds updates in on its CPU even on accelerator instances.
  const double cps = supply_headroom * type.core_gflops.value();
  const double bps = supply_headroom * effective_ps_bandwidth(type).value();
  // Eq. 12; a profiling run that exerted no measurable PS pressure puts no
  // constraint on that dimension.
  const double cpu_term = profile.cprof.value() > 0.0
                              ? cbase * cps / (profile.cprof.value() * cwk)
                              : std::numeric_limits<double>::infinity();
  const double bw_term = profile.bprof.value() > 0.0
                             ? bps * cbase / (profile.bprof.value() * cwk)
                             : std::numeric_limits<double>::infinity();
  return std::min(cpu_term, bw_term);
}

BoundTerms bound_terms(const profiler::ProfileResult& profile, const LossModel& loss,
                       const cloud::InstanceType& type, double supply_headroom) {
  BoundTerms t;
  t.witer = profile.witer.value();
  t.gparam = profile.gparam.value();
  t.cwk = type.compute_gflops().value();
  t.bps = supply_headroom * effective_ps_bandwidth(type).value();
  t.r = max_provisioning_ratio(profile, type, supply_headroom);
  t.balance_den = 2.0 * t.gparam * t.cwk;
  t.ssp_phi = ddnn::staleness_factor(ddnn::SyncMode::SSP, loss.ssp_bound() + 1, loss.ssp_bound());
  return t;
}

int row_upper_bound(const BoundTerms& terms, const WorkerBounds& bounds, ddnn::SyncMode mode,
                    int n_ps) {
  if (n_ps <= 0) throw std::invalid_argument("row_upper_bound: n_ps must be > 0");
  if (mode == ddnn::SyncMode::ASP) {
    // Eq. 23 with the larger PS count.
    return std::max(bounds.n_lower, ceil_int(bounds.r * static_cast<double>(n_ps)));
  }
  // Eq. 19.
  const double balance = std::sqrt(terms.witer * n_ps * terms.bps / terms.balance_den);
  const int upper = ceil_int(std::min(bounds.u * static_cast<double>(n_ps), balance));
  return std::max(bounds.n_lower, upper);
}

WorkerBounds bounds_for_goal(const BoundTerms& terms, const LossModel& loss, ddnn::SyncMode mode,
                             util::Seconds t_goal, double target_loss) {
  if (t_goal.value() <= 0.0) throw std::invalid_argument("bounds_for_goal: time goal must be > 0");
  if (target_loss <= loss.beta1()) {
    throw std::invalid_argument("bounds_for_goal: target loss below loss asymptote");
  }

  WorkerBounds b;
  b.r = terms.r;
  const double tg = t_goal.value();

  if (mode == ddnn::SyncMode::BSP) {
    // Eq. 15 then Eq. 16.
    const long s = loss.iterations_for(target_loss, /*n_workers=*/1);
    b.iterations = s;
    b.n_lower = ceil_int(terms.witer * static_cast<double>(s) / (tg * terms.cwk));
    b.n_lower = std::max(1, b.n_lower);
    // Eq. 17: the comm constraint tightens the worker:PS ratio.
    b.u = std::min(b.r, tg * terms.bps / (2.0 * static_cast<double>(s) * terms.gparam));
    if (b.u <= 0.0) return b;  // cannot move the payload within the goal at all
    // Eq. 18: minimum PS count.
    b.n_ps = ceil_int(static_cast<double>(b.n_lower) / b.u);
    b.n_ps = std::max(1, b.n_ps);
  } else {
    // ASP/SSP. Lower bound from the per-worker compute constraint
    // t_comp <= Tg / s(n) with s(n) = beta0 * phi(n) / ((l_g - beta1) n):
    //   ASP (phi = sqrt(n)):   n >= ratio^2
    //   SSP (phi capped):      n >= ratio * phi
    // (the exact-inversion analogue of the paper's Eq. 21).
    b.u = b.r;
    const double ratio =
        terms.witer * loss.beta0() / (terms.cwk * tg * (target_loss - loss.beta1()));
    if (mode == ddnn::SyncMode::SSP) {
      b.n_lower = ceil_int(ratio * terms.ssp_phi);
    } else {
      b.n_lower = ceil_int(ratio * ratio);
    }
    b.n_lower = std::max(1, b.n_lower);
    if (b.r <= 0.0) return b;
    // Eq. 22.
    b.n_ps = ceil_int(static_cast<double>(b.n_lower) / b.r);
    b.n_ps = std::max(1, b.n_ps);
    b.iterations = loss.iterations_for(target_loss, b.n_lower);
  }

  // Eqs. 19/23 at the minimum PS count.
  b.n_upper = row_upper_bound(terms, b, mode, b.n_ps);
  b.feasible = b.n_lower >= 1 && b.n_ps >= 1;
  return b;
}

}  // namespace cynthia::core
