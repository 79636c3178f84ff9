#include "core/revocation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace cynthia::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Margin kept below the divergence point of the renewal denominator: an
/// estimate whose expected loss per revocation recovers less than 5% of
/// each held second is treated as non-finite rather than trusted.
constexpr double kRenewalMargin = 0.95;

}  // namespace

std::string InterruptionModel::describe() const {
  std::ostringstream os;
  os << type << " bid $" << bid.value() << "/h: ";
  if (always_available()) {
    os << "no revocations over " << horizon.value() / util::hours(1.0).value() << " h";
  } else {
    os << revocations << " revocations, mean uptime " << mean_uptime.value()
       << " s, mean outage " << mean_outage.value() << " s";
  }
  os << ", held price " << held_price_ratio << " x on-demand";
  return os.str();
}

InterruptionModel fit_interruption_model(const cloud::SpotMarket& market,
                                         const cloud::InstanceType& type,
                                         util::DollarsPerHour bid) {
  if (bid.value() <= 0.0) {
    throw std::invalid_argument("fit_interruption_model: bid must be positive");
  }
  InterruptionModel m;
  m.type = type.name;
  m.bid = bid;
  m.on_demand = type.price;
  m.horizon = kInterruptionFitHorizon;
  m.mean_uptime = util::Seconds{kInf};

  const double horizon = kInterruptionFitHorizon.value();
  double held = 0.0;
  double outage = 0.0;
  util::Dollars held_cost{0.0};

  // Every revocation inside the window is followed by an outage that runs to
  // the next held window, or is censored at the horizon.
  const std::vector<cloud::HeldWindow> windows =
      market.held_windows(type.name, bid.value(), 0.0, horizon);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const cloud::HeldWindow& w = windows[i];
    held += w.end - w.start;
    held_cost += market.cost(type.name, w.start, w.end);
    if (!w.revoked) break;  // censored tail
    m.revocations += 1;
    outage += (i + 1 < windows.size() ? windows[i + 1].start : horizon) - w.end;
  }

  m.held = util::Seconds{held};
  if (held > 0.0) {
    const util::Dollars durable = type.price * util::Seconds{held};
    m.held_price_ratio = durable.value() > 0.0 ? held_cost.value() / durable.value() : 1.0;
  }
  if (m.revocations > 0 && held > 0.0) {
    m.hazard = static_cast<double>(m.revocations) / held;
    m.mean_uptime = util::Seconds{held / static_cast<double>(m.revocations)};
  }
  if (m.revocations > 0) {
    m.mean_outage = util::Seconds{outage / static_cast<double>(m.revocations)};
  }
  return m;
}

ExpectedRun expected_run(const InterruptionModel& model, const RevocationRunShape& shape,
                         util::Seconds checkpoint_interval) {
  ExpectedRun est;
  est.checkpoint_interval = shape.state_survives ? util::Seconds{0.0} : checkpoint_interval;
  const double work = shape.work.value();
  if (work <= 0.0) {
    est.finite = true;
    return est;
  }

  const double hazard = model.hazard;
  double overhead = 0.0;
  double loss_per_revocation = 0.0;
  if (shape.state_survives) {
    // The PS tier keeps the parameters: a worker revocation costs the
    // in-flight iteration plus the replacement boot, nothing else.
    loss_per_revocation = 0.5 * shape.t_iter.value() + kRestartDelay.value();
  } else {
    const double tau = checkpoint_interval.value();
    if (tau <= 0.0) {
      if (hazard > 0.0) return est;  // unbounded rollback: expectation diverges
    } else {
      const double chunks = std::ceil(work / tau);
      overhead = std::max(0.0, chunks - 1.0) * shape.checkpoint_write.value();
      // Expected rollback: half a cadence (plus half the in-progress write),
      // then a checkpoint read and the re-provisioning delay, all while
      // holding (and paying for) the replacement capacity.
      loss_per_revocation = 0.5 * (tau + shape.checkpoint_write.value()) +
                            shape.restore_read.value() + kRestartDelay.value();
    }
  }

  const double base = work + overhead;
  const double drain = hazard * loss_per_revocation;
  if (drain >= kRenewalMargin) return est;  // the bid can never finish the job

  est.finite = true;
  const double busy = base / (1.0 - drain);
  est.expected_busy = util::Seconds{busy};
  est.expected_revocations = hazard * busy;
  est.expected_wall = util::Seconds{busy + est.expected_revocations * model.mean_outage.value()};
  est.checkpoint_overhead = util::Seconds{overhead};
  est.expected_lost = util::Seconds{busy - base};
  return est;
}

ExpectedRun optimize_checkpoint_cadence(const InterruptionModel& model,
                                        const RevocationRunShape& shape) {
  // No rollback exposure: checkpoints buy nothing, skip them entirely.
  if (shape.state_survives || model.hazard <= 0.0) {
    return expected_run(model, shape, util::Seconds{0.0});
  }
  const double t_iter = std::max(1e-9, shape.t_iter.value());
  const double work = std::max(t_iter, shape.work.value());
  const long max_mult = std::max<long>(1, static_cast<long>(work / t_iter));

  // Candidate cadences as iteration multiples: a geometric ladder from one
  // iteration up to the whole run (the memonger-style policy enumeration),
  // plus the Young/Daly point sqrt(2 x write x MTTR) snapped to the grid.
  std::set<long> multiples;
  for (double m = 1.0; static_cast<long>(m) <= max_mult; m *= 1.5) {
    multiples.insert(static_cast<long>(m));
  }
  multiples.insert(max_mult);
  if (shape.checkpoint_write.value() > 0.0 && std::isfinite(model.mean_uptime.value())) {
    const double daly =
        std::sqrt(2.0 * shape.checkpoint_write.value() * model.mean_uptime.value());
    const long snapped = std::clamp<long>(static_cast<long>(daly / t_iter + 0.5), 1, max_mult);
    multiples.insert(snapped);
  }

  ExpectedRun best;
  for (const long mult : multiples) {  // ascending: deterministic tie-break
    const ExpectedRun est =
        expected_run(model, shape, util::Seconds{static_cast<double>(mult) * t_iter});
    if (!est.finite) continue;
    if (!best.finite || est.expected_wall < best.expected_wall) best = est;
  }
  return best;  // !finite when no cadence survives the hazard
}

}  // namespace cynthia::core
