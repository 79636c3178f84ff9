// Revocation-aware planning: fitted interruption processes and expected-
// cost/expected-duration estimates for spot-backed training fleets.
//
// Li/Walls/Guo ("Characterizing and Modeling Distributed Training with
// Transient Cloud GPU Servers", PAPERS.md) shows transient capacity must be
// planned against a *fitted* interruption process, not a guess. This module
// fits that process per (instance type, bid) by replaying the deterministic
// `cloud::SpotMarket` price trace — empirical hazard rate, mean
// time-to-revocation, mean re-acquisition wait, and the mean price actually
// paid while holding capacity — then folds it into a renewal-style
// expected-run calculator (checkpoint-rollback loss, restore reads,
// restart delay, outage wall time) and a deterministic checkpoint-cadence
// optimizer (the memonger-style policy enumeration, SNIPPETS.md #1).
//
// Everything here is seeded-deterministic: the same market seed and bid
// produce bit-identical models, estimates and chosen cadences.
#pragma once

#include <string>

#include "cloud/instance.hpp"
#include "cloud/spot.hpp"
#include "util/units.hpp"

namespace cynthia::core {

/// Durable-storage bandwidth for checkpoint writes and restore reads. The
/// planner's model and the executed spot run read this one value, so
/// realized and expected costs price the same restore.
inline constexpr util::MBps kCheckpointBandwidth{200.0};
/// Re-provisioning delay once revoked capacity is re-acquirable; instances
/// are held (and billed) through it.
inline constexpr util::Seconds kRestartDelay{180.0};
/// Price-trace window fit_interruption_model replays.
inline constexpr util::Seconds kInterruptionFitHorizon = util::days(14.0);

/// Empirical interruption process for one (instance type, bid), fitted from
/// SpotMarket::held_windows over kInterruptionFitHorizon by integrating the
/// price across every held window.
struct InterruptionModel {
  std::string type;
  util::DollarsPerHour bid{0.0};        ///< per instance actually bid
  util::DollarsPerHour on_demand{0.0};  ///< the type's durable price
  /// Revocations per held second (0 = the bid held through the window).
  double hazard = 0.0;
  /// Mean held time between revocations; infinity when none were observed.
  util::Seconds mean_uptime{0.0};
  /// Mean revoked -> re-acquirable wait (0 when none were observed).
  util::Seconds mean_outage{0.0};
  /// Mean price paid while holding, as a fraction of on-demand.
  double held_price_ratio = 1.0;
  int revocations = 0;         ///< revocations observed in the window
  util::Seconds held{0.0};     ///< total held time over the window
  util::Seconds horizon{0.0};  ///< window the fit replayed

  [[nodiscard]] bool always_available() const { return revocations == 0; }
  [[nodiscard]] std::string describe() const;
};

/// Fits the interruption process by replaying the (seeded) market trace.
/// `bid` below the market forever yields held == 0 and hazard == 0 with
/// held_price_ratio == 1 — callers should treat an empty fit as unusable.
InterruptionModel fit_interruption_model(const cloud::SpotMarket& market,
                                         const cloud::InstanceType& type,
                                         util::DollarsPerHour bid);

/// The training run whose expected shape is being estimated, reduced to
/// what the renewal calculator needs.
struct RevocationRunShape {
  util::Seconds work{0.0};    ///< useful compute (iterations x t_iter)
  util::Seconds t_iter{0.0};  ///< iteration granularity (cadence snapping)
  /// One checkpoint write to durable storage (gparam / bandwidth).
  util::Seconds checkpoint_write{0.0};
  /// One checkpoint read on restart after a revocation (each restart also
  /// pays kRestartDelay).
  util::Seconds restore_read{0.0};
  /// Mixed fleet: the PS tier is on-demand and keeps the authoritative
  /// parameters, so worker revocations lose only the in-flight iteration —
  /// no rollback, no restore, no checkpoints needed against revocation.
  bool state_survives = false;
};

/// First-order renewal estimate of one run under the fitted process.
struct ExpectedRun {
  /// False when the hazard is so high that expected loss per revocation
  /// exceeds what a cycle recovers — the expectation diverges (the bid can
  /// never finish the job).
  bool finite = false;
  util::Seconds checkpoint_interval{0.0};  ///< cadence used (0 = none)
  /// Expected held instance-time: work + checkpoint writes + rollback /
  /// restore / restart losses.
  util::Seconds expected_busy{0.0};
  /// Expected submit->finish wall time: busy + re-acquisition outages.
  util::Seconds expected_wall{0.0};
  double expected_revocations = 0.0;
  util::Seconds checkpoint_overhead{0.0};  ///< expected write time total
  util::Seconds expected_lost{0.0};        ///< expected busy beyond work+writes
};

/// Expected busy/wall/revocations for the run at a fixed checkpoint
/// cadence. `checkpoint_interval <= 0` means no checkpoints: valid only
/// when the state survives revocations or the hazard is zero.
ExpectedRun expected_run(const InterruptionModel& model, const RevocationRunShape& shape,
                         util::Seconds checkpoint_interval);

/// Deterministic cadence enumeration (geometric grid over [t_iter, work]
/// snapped to iteration multiples, plus the Young/Daly point
/// sqrt(2 x write x mean_uptime)); returns the finite estimate minimizing
/// expected wall time — which, E[wall] being a fixed multiple of E[busy]
/// under this process, is also the held-cost minimizer.
ExpectedRun optimize_checkpoint_cadence(const InterruptionModel& model,
                                        const RevocationRunShape& shape);

}  // namespace cynthia::core
