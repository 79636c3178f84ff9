#include "orchestrator/executor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cloud/pricing.hpp"
#include "core/revocation.hpp"
#include "ddnn/loss.hpp"
#include "ddnn/trainer.hpp"
#include "orchestrator/cluster_manager.hpp"
#include "orchestrator/sentinel.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"

namespace cynthia::orch {

namespace metric = telemetry::metric;

MitigationPolicy parse_mitigation_policy(const std::string& name) {
  if (name == "none") return MitigationPolicy::kNone;
  if (name == "replace") return MitigationPolicy::kReplace;
  if (name == "add-ps") return MitigationPolicy::kAddPs;
  if (name == "ssp") return MitigationPolicy::kSsp;
  if (name == "replan") return MitigationPolicy::kReplan;
  if (name == "auto") return MitigationPolicy::kAuto;
  throw std::invalid_argument("unknown mitigation policy '" + name +
                              "' (none|replace|add-ps|ssp|replan|auto)");
}

const char* to_string(MitigationPolicy policy) {
  switch (policy) {
    case MitigationPolicy::kNone: return "none";
    case MitigationPolicy::kReplace: return "replace";
    case MitigationPolicy::kAddPs: return "add-ps";
    case MitigationPolicy::kSsp: return "ssp";
    case MitigationPolicy::kReplan: return "replan";
    case MitigationPolicy::kAuto: return "auto";
  }
  return "?";
}

namespace {

/// Deterministic seed of replacement deploy `index`: crashes use their
/// schedule index, sentinel actions disjoint offsets (97, 200+, 300+, 400+).
std::uint64_t replacement_seed(std::uint64_t seed, std::size_t index) {
  return seed * 1000003ull + 7919ull * (index + 1);
}

/// Measures how long one replacement node of the plan's type takes to walk
/// the launch -> boot -> install -> kubeadm-join lifecycle to Ready, on a
/// dedicated control-plane clock (join failures are repaired by deploy()'s
/// replacement loop, exactly as at initial provisioning time).
double measure_replacement(DeployMeter& deploys, const core::ProvisionPlan& plan,
                           std::uint64_t seed) {
  core::ProvisionPlan one = plan;
  one.n_workers = 1;
  one.n_ps = 0;
  return deploys.measure(one, seed).value();
}

/// Result of re-timing a fault schedule across a segment cut (see
/// carry_schedule): the continuation events are re-injections of faults
/// that were already counted in the first segment, so merged summaries
/// subtract them from the injected/crash totals.
struct CarriedSchedule {
  faults::FaultSchedule schedule;
  long continued_crashes = 0;  ///< still-dead nodes re-killed at t=0
  long continued_slowdowns = 0;
  long continued_nic = 0;
  long continued_blips = 0;

  [[nodiscard]] long continued_total() const {
    return continued_crashes + continued_slowdowns + continued_nic + continued_blips;
  }
};

/// Re-times `schedule` onto a continuation segment after a cut at `cut`
/// followed by a pause of `gap` during which the job runs nowhere
/// (reconfiguration / re-provisioning). `outcomes` is the first segment's
/// per-event record (same order as the schedule):
///   * events that fired and fully recovered before the cut are dropped;
///   * active degradations are re-injected at t=0 with their remaining
///     recovery (minus the pause; healed-during-pause events are dropped),
///     and still-dead nodes are re-killed at t=0 the same way — only when
///     `carry_active` is set, i.e. the continuation runs on the same
///     physical nodes (a re-planned cluster is fresh hardware);
///   * unfired events shift left by cut+gap; events that would land inside
///     the pause hit a cluster that is not training and are dropped;
///   * targets outside the (possibly reshaped) n_workers x n_ps are dropped.
CarriedSchedule carry_schedule(const faults::FaultSchedule& schedule,
                               const std::vector<ddnn::FaultEventOutcome>& outcomes,
                               util::Seconds cut, util::Seconds gap, int n_workers, int n_ps,
                               bool carry_active) {
  CarriedSchedule out;
  const auto& events = schedule.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const faults::FaultSpec& spec = events[i];
    const int limit = spec.on_ps ? n_ps : n_workers;
    if (spec.target >= limit) continue;  // reshaped out of the cluster
    const ddnn::FaultEventOutcome* outcome = i < outcomes.size() ? &outcomes[i] : nullptr;
    if (outcome != nullptr && outcome->fired) {
      if (outcome->recovered_at >= 0.0) continue;  // healed before the cut
      if (!carry_active) continue;  // the continuation runs on fresh hardware
      // Active at the cut: remaining recovery on the continuation clock.
      double remaining = -1.0;
      if (spec.recovery_seconds >= 0.0) {
        remaining = outcome->injected_at + spec.recovery_seconds - cut.value() - gap.value();
        if (remaining <= 0.0) continue;  // heals during the pause
      }
      faults::FaultSpec carried = spec;
      carried.time_seconds = 0.0;
      carried.recovery_seconds = remaining;
      out.schedule.add(carried);
      switch (spec.kind) {
        case faults::FaultKind::kCrash: ++out.continued_crashes; break;
        case faults::FaultKind::kSlowdown: ++out.continued_slowdowns; break;
        case faults::FaultKind::kNicDegradation: ++out.continued_nic; break;
        case faults::FaultKind::kTransientBlip: ++out.continued_blips; break;
      }
      continue;
    }
    // Not fired in segment one: shift onto the continuation clock; events
    // landing inside the pause hit a cluster that is not training.
    const double shifted = spec.time_seconds - cut.value() - gap.value();
    if (shifted <= 0.0) continue;
    faults::FaultSpec carried = spec;
    carried.time_seconds = shifted;
    out.schedule.add(carried);
  }
  return out;
}

/// Stitches two segments of one job into one result after a deliberate cut
/// (every closed update of segment one is durable — the PS was up when the
/// run was cut). `resume_at` is the job-clock time segment two started;
/// `gap_outage` (= resume_at - cut) is counted as outage. Cluster-shape-
/// dependent fields (utilization, ingress) describe segment two's cluster,
/// following the elastic-recovery convention. `carried`, when the
/// continuation re-injected still-active faults, deduplicates their counts.
ddnn::TrainResult merge_train_segments(const ddnn::TrainResult& seg1,
                                       const ddnn::TrainResult& seg2, util::Seconds resume_at,
                                       util::Seconds gap_outage,
                                       const CarriedSchedule* carried) {
  const double resume_at_seconds = resume_at.value();
  ddnn::TrainResult merged = seg2;  // cluster-shape fields describe segment two
  merged.iterations = seg1.iterations + seg2.iterations;
  merged.total_time = resume_at_seconds + seg2.total_time;
  merged.computation_time = seg1.computation_time + seg2.computation_time;
  merged.communication_time = seg1.communication_time + seg2.communication_time;
  merged.avg_iteration_time = merged.total_time / std::max<long>(1, merged.iterations);
  merged.stopped_early = seg2.stopped_early;

  // Loss curve: segment one's samples up to its durable count, then the
  // continuation (already on the global iteration axis via its offset).
  merged.loss_curve.clear();
  for (const ddnn::LossSample& s : seg1.loss_curve) {
    if (s.iteration <= seg1.iterations) merged.loss_curve.push_back(s);
  }
  for (const ddnn::LossSample& s : seg2.loss_curve) {
    if (merged.loss_curve.empty() || s.iteration > merged.loss_curve.back().iteration) {
      merged.loss_curve.push_back(s);
    }
  }

  // Fault accounting: sum the segments, subtracting the continuation's
  // re-injections (already counted when they first fired in segment one).
  ddnn::FaultSummary f;
  f.injected = seg1.faults.injected + seg2.faults.injected;
  f.crashes = seg1.faults.crashes + seg2.faults.crashes;
  f.slowdowns = seg1.faults.slowdowns + seg2.faults.slowdowns;
  f.nic_degradations = seg1.faults.nic_degradations + seg2.faults.nic_degradations;
  f.blips = seg1.faults.blips + seg2.faults.blips;
  if (carried != nullptr) {
    f.injected -= carried->continued_total();
    f.crashes -= carried->continued_crashes;
    f.slowdowns -= carried->continued_slowdowns;
    f.nic_degradations -= carried->continued_nic;
    f.blips -= carried->continued_blips;
  }
  f.lost_iterations = seg1.faults.lost_iterations + seg2.faults.lost_iterations;
  f.outage_seconds =
      seg1.faults.outage_seconds + seg2.faults.outage_seconds + gap_outage.value();
  f.degraded_node_seconds =
      seg1.faults.degraded_node_seconds + seg2.faults.degraded_node_seconds;
  for (const ddnn::FaultEventOutcome& e : seg1.faults.events) {
    if (e.fired) f.events.push_back(e);  // unfired ones carried into segment two
  }
  for (const ddnn::FaultEventOutcome& e : seg2.faults.events) {
    // carry_schedule re-injects still-active faults at exactly t = 0, and
    // shifts every unfired event to a strictly positive time — so with a
    // carried schedule, time 0 identifies a continuation of a fault already
    // listed above. Fold its recovery back into the original record.
    // Exact on purpose: re-injections are constructed with literal 0.0.
    if (carried != nullptr && e.spec.time_seconds == 0.0) {  // cynthia-lint: allow(FLT-001)
      if (e.fired && e.recovered_at >= 0.0) {
        for (ddnn::FaultEventOutcome& orig : f.events) {
          if (orig.spec.kind == e.spec.kind && orig.spec.target == e.spec.target &&
              orig.spec.on_ps == e.spec.on_ps && orig.fired && orig.recovered_at < 0.0) {
            orig.recovered_at = resume_at_seconds + e.recovered_at;
            break;
          }
        }
      }
      continue;
    }
    ddnn::FaultEventOutcome shifted = e;
    shifted.spec.time_seconds += resume_at_seconds;
    if (shifted.fired) shifted.injected_at += resume_at_seconds;
    if (shifted.recovered_at >= 0.0) shifted.recovered_at += resume_at_seconds;
    f.events.push_back(std::move(shifted));
  }
  merged.faults = std::move(f);

  // Monitor record: segment one's history plus the continuation's, with the
  // continuation's clock shifted onto the job clock.
  ddnn::MonitorOutcome mo = seg1.monitor;
  for (ddnn::MonitorExclusion e : seg2.monitor.exclusions) {
    e.at += resume_at_seconds;
    if (e.replaced_at >= 0.0) e.replaced_at += resume_at_seconds;
    mo.exclusions.push_back(e);
  }
  mo.stopped = seg2.monitor.stopped;
  mo.stop_reason = seg2.monitor.stop_reason;
  if (seg2.monitor.downgraded) {
    mo.downgraded = true;
    mo.downgraded_at = resume_at_seconds + seg2.monitor.downgraded_at;
    mo.downgraded_at_iteration = seg1.iterations + seg2.monitor.downgraded_at_iteration;
    mo.staleness_bound = seg2.monitor.staleness_bound;
  }
  merged.monitor = std::move(mo);
  return merged;
}

/// How far past its launch a spot run walks the price trace.
constexpr util::Seconds kSpotWalk = util::days(30.0);

/// The market's revocations of a spot tier as crash faults on the training
/// clock, which starts at market time `train_start`. Each revocation crashes
/// every spot node at once; the tier resumes `restart` seconds after the bid
/// holds again. A held window too short to finish the restart never resumes
/// training, so its outage runs on to the next re-acquisition. A revocation
/// whose re-acquisition lies past the walk is dropped, never made permanent,
/// and one whose restart ends before training starts changes nothing.
faults::FaultSchedule revocation_crashes(const std::vector<cloud::HeldWindow>& held,
                                         double train_start, double restart, int workers,
                                         int ps) {
  std::vector<faults::FaultSpec> crashes;
  for (std::size_t i = 0; i + 1 < held.size();) {
    std::size_t back = i + 1;
    while (held[back].revoked && held[back].end < held[back].start + restart) {
      if (++back == held.size()) return faults::FaultSchedule(std::move(crashes));
    }
    const double at = std::max(0.0, held[i].end - train_start);
    const double resume = held[back].start + restart - train_start;
    i = back;
    if (resume <= at) continue;
    faults::FaultSpec spec;  // kCrash
    spec.time_seconds = at;
    spec.recovery_seconds = resume - at;
    for (spec.target = 0; spec.target < workers; ++spec.target) crashes.push_back(spec);
    spec.on_ps = true;
    for (spec.target = 0; spec.target < ps; ++spec.target) crashes.push_back(spec);
  }
  return faults::FaultSchedule(std::move(crashes));
}

/// Price integral of `dockers` spot dockers over the held windows up to
/// market time `end`; a docker pays its slot's share of the instance price,
/// as plan_spot prices it.
util::Dollars spot_tier_cost(const cloud::SpotMarket& market, const cloud::InstanceType& type,
                             const std::vector<cloud::HeldWindow>& held, double end,
                             int dockers) {
  double instance_dollars = 0.0;
  for (const cloud::HeldWindow& w : held) {
    if (w.start >= end) break;
    instance_dollars += market.cost(type.name, w.start, std::min(w.end, end)).value();
  }
  return util::Dollars{instance_dollars / std::max(1, type.physical_cores) * dockers};
}

/// Master-side recovery timeline of a repair-in-place or elastic run:
/// detection, replacement Ready and training resume as instant events next
/// to the trainer's inject/recover pair, with one journal detection/
/// mitigation pair per fired crash.
void record_recovery(telemetry::Telemetry& tel, const JobRun& run) {
  std::size_t k = 0;
  double recovery_total = 0.0;
  for (const auto& outcome : run.training.faults.events) {
    if (outcome.spec.kind != faults::FaultKind::kCrash) continue;
    if (k >= run.replacement_provisioning.size()) break;
    const double provision = run.replacement_provisioning[k++];
    if (!outcome.fired) continue;
    // The first crash is the one an elastic re-plan answers: the job resumes
    // on the new cluster, not on a repaired node.
    const bool elastic_resume = k == 1 && run.replanned;
    const double detected = outcome.injected_at + kDetectionSeconds.value();
    const double resumed = elastic_resume ? run.resume_at : outcome.recovered_at;
    tel.tracer.instant("faults", "detect:" + outcome.spec.to_string(), "recovery", detected);
    tel.tracer.instant("faults", "replacement_ready", "recovery", detected + provision);
    tel.journal.event(detected, telemetry::JournalKind::kDetection, outcome.spec.to_string(),
                      "heartbeat timeout", kDetectionSeconds.value());
    if (resumed >= 0.0) {
      tel.tracer.instant("faults", "resume", "recovery", resumed);
      tel.journal.event(resumed, telemetry::JournalKind::kMitigation,
                        elastic_resume ? "elastic-replan" : "repair-in-place",
                        outcome.spec.to_string());
    }
    recovery_total += kDetectionSeconds.value() + provision + run.restore.value();
  }
  if (recovery_total > 0.0) {
    tel.metrics.counter(metric::kFaultRecoverySeconds).inc(recovery_total);
  }
}

}  // namespace

JobRun execute_job(const JobSpec& spec, const core::Provisioner* provisioner) {
  const ddnn::WorkloadSpec& workload = spec.workload;
  const core::ProvisionPlan& plan = spec.plan;
  const core::ProvisionGoal& goal = spec.goal;
  const faults::FaultSchedule& schedule = spec.faults;
  const Sentinel* sentinel = std::get_if<Sentinel>(&spec.policy);
  const bool elastic = std::holds_alternative<Elastic>(spec.policy);
  const Spot* spot = std::get_if<Spot>(&spec.policy);
  if (!plan.feasible || (spot != nullptr && !spot->answer.feasible)) {
    throw std::invalid_argument("execute_job: infeasible plan");
  }
  if (elastic && provisioner == nullptr) {
    throw std::invalid_argument("execute_job: elastic re-planning needs a Provisioner");
  }
  if (spot != nullptr && !schedule.empty()) {
    throw std::invalid_argument("execute_job: a spot run takes no fault schedule");
  }
  // A durable answer has no spot tier: it runs as repair-in-place.
  if (spot != nullptr && spot->answer.durability == core::FleetDurability::kDurable) {
    spot = nullptr;
  }
  schedule.validate(plan.n_workers, plan.n_ps);

  JobRun run;
  run.plan = plan;
  // Checkpoint restore: the parameter payload read back from durable storage.
  const double restore_seconds = (workload.gparam / core::kCheckpointBandwidth).value();
  run.restore = util::Seconds{restore_seconds};

  // Each crash is repaired in place unless a re-plan answers it: its
  // recovery is heartbeat detection + a measured replacement node +
  // checkpoint restore, and the trainer rides through the outage.
  faults::FaultSchedule enriched;
  double first_crash_at = -1.0;
  DeployMeter deploys;  // every replacement and re-plan deploy walk of this job
  for (faults::FaultSpec event : schedule.events()) {
    if (event.kind == faults::FaultKind::kCrash) {
      if (first_crash_at < 0.0) first_crash_at = event.time_seconds;
      const double provision = measure_replacement(
          deploys, plan, replacement_seed(spec.seed, run.replacement_provisioning.size()));
      run.replacement_provisioning.push_back(provision);
      event.recovery_seconds = kDetectionSeconds.value() + provision + restore_seconds;
    }
    enriched.add(event);
  }

  sim::Simulator control_plane;
  cloud::BillingMeter billing;
  ClusterManager manager(control_plane, billing, spec.seed);
  telemetry::Telemetry* tel = spec.training.telemetry;
  if (tel != nullptr) manager.set_telemetry(tel);
  Deployment deployment = manager.deploy(plan);
  run.provisioning = util::Seconds{deployment.provisioning_seconds()};

  // A spot run launches when the bid first holds and starts training once the
  // deployment is Ready; the market's revocations are its only faults.
  ddnn::TrainOptions training = spec.training;
  std::vector<cloud::HeldWindow> held;  // the spot tier's windows, market clock
  double launch = 0.0;
  int spot_ps = 0;  // PS shards on spot (all-spot) rather than on-demand
  if (spot != nullptr) {
    const core::SpotProvisionPlan& answer = spot->answer;
    const std::string& type = plan.type.name;
    const double bid = answer.bid.value();
    const std::vector<cloud::HeldWindow> first =
        spot->market.get().held_windows(type, bid, 0.0, kSpotWalk.value());
    if (first.empty()) throw std::invalid_argument("execute_job: the spot bid never holds");
    launch = first.front().start;
    held = spot->market.get().held_windows(type, bid, launch, launch + kSpotWalk.value());
    double restart = core::kRestartDelay.value();
    if (answer.durability == core::FleetDurability::kAllSpot) {
      // The PS tier is revoked too: every restart reads the checkpoint back,
      // and the trainer rolls back to the plan_spot cadence.
      const double seconds_per_update =
          plan.predicted_time.value() / static_cast<double>(plan.total_iterations);
      if (!(seconds_per_update > 0.0) || !std::isfinite(seconds_per_update)) {
        throw std::invalid_argument("execute_job: all-spot plan needs a positive predicted time");
      }
      spot_ps = plan.n_ps;
      restart += restore_seconds;
      training.checkpoint_interval_iterations = std::max<long>(
          1, std::lround(answer.checkpoint_interval.value() / seconds_per_update));
    }
    enriched = revocation_crashes(held, launch + run.provisioning.value(), restart,
                                  plan.n_workers, spot_ps);
  }

  // Blacklist-to-replacement-join delay for the replace mitigation, measured
  // once up front on a dedicated clock (a straggler replacement walks the
  // same kubeadm-join lifecycle as a crash replacement).
  const double replace_delay =
      sentinel != nullptr
          ? kDetectionSeconds.value() +
                measure_replacement(deploys, plan, replacement_seed(spec.seed, 97)) +
                restore_seconds
          : -1.0;

  const long total_iterations = plan.total_iterations;

  // The SSP downgrade is only on the table when the loss goal survives the
  // staleness penalty: the loss model scales the whole curve by
  // sqrt(1 + bound), so the projected SSP loss at the full budget must
  // still clear l_g (with the verdict's 5% tolerance).
  bool ssp_downgrade_allowed = workload.sync == ddnn::SyncMode::BSP;
  if (ssp_downgrade_allowed && goal.target_loss > 0.0) {
    const double ssp_final =
        ddnn::loss_model(workload.loss_for(ddnn::SyncMode::SSP), ddnn::SyncMode::SSP,
                         static_cast<double>(total_iterations), plan.n_workers,
                         kSspStalenessBound);
    ssp_downgrade_allowed = ssp_final <= goal.target_loss * 1.05;
  }

  // ---- segment loop ----
  ddnn::ClusterSpec cluster = deployment.spec;
  ddnn::WorkloadSpec current_workload = workload;
  core::ProvisionPlan current_plan = plan;
  std::vector<int> excluded;
  double elapsed = 0.0;  ///< job clock at the current segment's start
  double gap = 0.0;      ///< reconfiguration pause before the current segment
  long done = 0;
  int actions_remaining = kMaxActions;
  bool forecast_enabled = true;
  bool crash_replanned = false;  ///< a re-plan answered the first crash
  ddnn::TrainResult merged;
  CarriedSchedule carried;
  carried.schedule = enriched;
  const CarriedSchedule* carried_ptr = nullptr;  ///< dedup for the merge
  const ddnn::TrainResult no_history;
  // Every BSP -> SSP switch: the rest of the job trains on the same nodes
  // under SSP with staleness `bound`.
  auto switch_to_ssp = [&](int bound) {
    current_workload.sync = ddnn::SyncMode::SSP;
    current_workload.ssp_staleness_bound = std::max(1, bound);
  };

  /// Nodes leased on top of the original deployment, from `from_seconds`
  /// (job clock, includes their provisioning lead) to the end of the job.
  struct Lease {
    cloud::InstanceType type;
    int n_workers = 0;
    int n_ps = 0;
    double from_seconds = 0.0;
    bool for_crash = false;  ///< bought by crash recovery, not by the sentinel
  };
  std::vector<Lease> leases;
  double original_held_until = -1.0;  ///< < 0: until the job ends

  const int max_segments = kMaxActions + 2;
  for (int seg_i = 0; seg_i < max_segments; ++seg_i) {
    StragglerDetector::Config dcfg;
    dcfg.policy = sentinel != nullptr ? sentinel->mitigation : MitigationPolicy::kNone;
    dcfg.time_goal_seconds = forecast_enabled ? goal.time_goal.value() : 0.0;
    dcfg.elapsed_offset_seconds = elapsed;
    dcfg.iteration_offset = done;
    dcfg.total_iterations = total_iterations;
    dcfg.replacement_after_seconds = replace_delay;
    dcfg.allow_ssp_downgrade = ssp_downgrade_allowed;
    dcfg.actions_remaining = actions_remaining;
    dcfg.allow_stop = seg_i + 1 < max_segments;
    StragglerDetector detector(dcfg, &run.detections, &run.mitigations);

    ddnn::TrainOptions o = training;
    o.iterations = total_iterations - done;
    o.seed = seg_i == 0 ? spec.seed : replacement_seed(spec.seed, 400 + seg_i);
    o.faults = carried.schedule.empty() ? nullptr : &carried.schedule;
    o.loss_iteration_offset = done;
    o.monitor = sentinel != nullptr ? &detector : nullptr;
    o.excluded_workers = excluded;
    // Elastic recovery cuts the first segment when the first crash lands
    // (same-time events run in schedule order, so the crash fires first).
    const bool crash_cut = seg_i == 0 && elastic && first_crash_at >= 0.0;
    o.stop_after_seconds = crash_cut ? std::max(first_crash_at, 1e-9) : 0.0;

    double saved_offset = 0.0;
    const bool shift = tel != nullptr && elapsed > 0.0;
    if (shift) {
      saved_offset = tel->tracer.time_offset();
      tel->set_time_offset(saved_offset + elapsed);
    }
    ddnn::TrainResult seg;
    try {
      seg = ddnn::run_training(cluster, current_workload, o);
    } catch (...) {
      if (shift) tel->set_time_offset(saved_offset);
      throw;
    }
    if (shift) tel->set_time_offset(saved_offset);
    actions_remaining = detector.actions_remaining();

    const double cut = seg.total_time;  // segment clock
    merged = seg_i == 0 ? seg
                        : merge_train_segments(merged, seg, util::Seconds{elapsed},
                                               util::Seconds{gap}, carried_ptr);
    run.segments = seg_i + 1;
    done = merged.iterations;

    std::string reason = merged.monitor.stopped ? merged.monitor.stop_reason : "";
    if (crash_cut && seg.stopped_early) reason = "crash";
    if (seg.monitor.downgraded) reason = "ssp-downgrade";
    if (tel != nullptr) {
      const double actual_t_iter = cut / static_cast<double>(std::max<long>(1, seg.iterations));
      tel->journal.segment(elapsed, "segment-" + std::to_string(seg_i),
                           reason.empty() ? "completed" : reason, seg.iterations,
                           current_plan.t_iter, actual_t_iter, cut);
    }
    if (reason.empty()) break;  // the budget completed

    // ---- service the cut ----
    double next_gap = 0.0;
    bool carry_active = true;

    if (reason == "ssp-downgrade") {
      // Same nodes, no pause: only the synchronization discipline changes.
      switch_to_ssp(seg.monitor.staleness_bound);
    } else if (reason == "ps-bottleneck") {
      // Add one PS shard of the same type; resharding re-reads the
      // parameter payload onto the new shard before training resumes.
      const double provision = measure_replacement(
          deploys, current_plan, replacement_seed(spec.seed, 200 + seg_i));
      next_gap = kDetectionSeconds.value() + provision + restore_seconds;
      current_plan.n_ps += 1;
      cluster = ddnn::ClusterSpec::homogeneous(current_plan.type, current_plan.n_workers,
                                               current_plan.n_ps);
      leases.push_back({current_plan.type, 0, 1, elapsed + cut + kDetectionSeconds.value()});
      run.added_ps += 1;
      if (!run.mitigations.empty() && run.mitigations.back().action == "add-ps") {
        run.mitigations.back().detail +=
            "; now " + std::to_string(current_plan.n_ps) + " PS shards";
      }
    } else if (reason == "replan" || reason == "crash") {
      // The one re-plan step: Algorithm 1 over the remaining iterations and
      // time budget, derated by how much slower the cluster trained than
      // the model predicted, holding the forecast margin as slack.
      const bool for_crash = reason == "crash";
      core::ProvisionPlan next;
      next.feasible = false;
      if (provisioner != nullptr) {
        const double measured_t_iter = cut / static_cast<double>(std::max<long>(1, seg.iterations));
        double derate = 1.0;
        if (current_plan.t_iter > 0.0 && measured_t_iter > current_plan.t_iter) {
          derate = current_plan.t_iter / measured_t_iter;
        }
        derate = std::clamp(derate, 0.05, 1.0);
        const double budget = goal.time_goal.value() - (elapsed + cut) -
                              kDetectionSeconds.value() - restore_seconds;
        core::Provisioner::ReplanDegradation degradation;
        degradation.capability_derate = derate;
        degradation.slack_margin = kForecastMargin;
        next = provisioner->replan(current_workload.sync, total_iterations - done,
                                   util::Seconds{budget}, {}, degradation);
      }
      if (next.feasible) {
        run.replanned = true;
        run.replacement_plan = next;
        const double provision2 =
            deploys.measure(next, replacement_seed(spec.seed, 300 + seg_i)).value();
        cluster = ddnn::ClusterSpec::homogeneous(next.type, next.n_workers, next.n_ps);
        next_gap = kDetectionSeconds.value() + provision2 + restore_seconds;
        // Billing switches clusters: the original is released once the
        // master commits to the replan; the new one runs to the end.
        if (original_held_until < 0.0) {
          original_held_until = elapsed + cut + kDetectionSeconds.value();
        }
        leases.push_back({next.type, next.n_workers, next.n_ps,
                          elapsed + cut + kDetectionSeconds.value(), for_crash});
        current_plan = next;
        excluded.clear();      // the new cluster has no blacklist history
        carry_active = false;  // ... and fresh, undegraded hardware
        if (for_crash) {
          crash_replanned = true;
          run.replacement_provisioning.front() = provision2;
          run.resume_at = elapsed + cut + next_gap;
        } else if (!run.mitigations.empty() && run.mitigations.back().action == "replan") {
          run.mitigations.back().detail += "; -> " + next.type.name + " x" +
                                              std::to_string(next.n_workers) + "wk/" +
                                              std::to_string(next.n_ps) + "ps";
        }
      } else if (!for_crash) {
        // No feasible reshape: fall back to the SSP downgrade if still BSP
        // and the loss goal tolerates it, and stop forecasting either way
        // (nothing left to escalate to).
        forecast_enabled = false;
        if (ssp_downgrade_allowed && current_workload.sync == ddnn::SyncMode::BSP) {
          switch_to_ssp(kSspStalenessBound);
          merged.monitor.downgraded = true;
          merged.monitor.downgraded_at = elapsed + cut;
          merged.monitor.downgraded_at_iteration = done;
          merged.monitor.staleness_bound = current_workload.ssp_staleness_bound;
          if (!run.mitigations.empty() && run.mitigations.back().action == "replan") {
            run.mitigations.back().action = "ssp-downgrade";
            run.mitigations.back().detail += "; replan infeasible";
          }
        }
      }
      // A crash no re-plan answers resumes on the same nodes: the dead node
      // carries over and is repaired in place.
    }
    // Unknown reasons resume on the same cluster with no pause.

    // An add-ps or replan cut that ends the first segment carries neither
    // that segment's fired faults nor its blacklist: the continuation starts
    // on healed nodes. Later cuts, and crash cuts, carry both. The pinned
    // sentinel digests hold this asymmetry.
    // The downgrade is exempt: it keeps training on the same, unrepaired nodes.
    const bool healed = seg_i == 0 && !crash_cut && reason != "ssp-downgrade";
    const ddnn::TrainResult& history = healed ? no_history : seg;
    // Blacklisted workers whose replacement had not joined by the cut stay
    // out on a same-node continuation (the pending join died with the cut).
    if (carry_active) {
      for (const ddnn::MonitorExclusion& e : history.monitor.exclusions) {
        if (e.replaced_at >= 0.0 && e.replaced_at <= cut) continue;
        excluded.push_back(e.worker);
      }
      std::sort(excluded.begin(), excluded.end());
      excluded.erase(std::unique(excluded.begin(), excluded.end()), excluded.end());
    }

    carried = carry_schedule(carried.schedule, history.faults.events, util::Seconds{cut},
                             util::Seconds{next_gap}, cluster.n_workers(), cluster.n_ps(),
                             carry_active);
    carried_ptr = &carried;
    elapsed += cut + next_gap;
    gap = next_gap;
  }

  run.training = std::move(merged);
  run.achieved_loss = run.training.final_loss;
  const double job_end = run.training.total_time;

  // ---- billing ----
  // Original deployment: actual meter from launch until release (job end,
  // or the replan handoff).
  const double held_until = original_held_until >= 0.0 ? original_held_until : job_end;
  control_plane.run_until(deployment.ready_at + held_until);
  manager.teardown(deployment);
  // Each `+=` below is mirrored as one journal billing settlement, so the
  // cost ledger's grouped fold reproduces this chain bit-for-bit.
  auto journal_cost = [&](telemetry::CostPhase phase, telemetry::CostCause cause,
                          const std::string& node, double dollars, const std::string& what) {
    if (tel == nullptr) return;
    tel->journal.billing_delta(job_end, tel->journal.next_settlement(), phase, cause, node,
                               dollars, what);
  };
  if (spot == nullptr) {
    run.actual_cost = billing.total(util::Seconds{control_plane.now()});
    if (tel != nullptr) {
      cloud::journal_meter_settlement(tel->journal, billing, util::Seconds{control_plane.now()},
                                      telemetry::CostPhase::kTrain, telemetry::CostCause::kPlan,
                                      util::Seconds{deployment.ready_at}, "original");
    }
  } else {
    // The spot tier pays the market over its held windows from launch to the
    // end of the job, restart delays and restore reads included; a mixed
    // fleet's PS tier pays on-demand for the whole hold.
    const double market_end = launch + run.provisioning.value() + job_end;
    const int spot_dockers = plan.n_workers + spot_ps;
    run.actual_cost =
        spot_tier_cost(spot->market.get(), plan.type, held, market_end, spot_dockers);
    journal_cost(telemetry::CostPhase::kTrain, telemetry::CostCause::kPlan, "spot-tier",
                 run.actual_cost.value(),
                 plan.type.name + " x" + std::to_string(spot_dockers) + " spot");
    if (spot_ps == 0) {
      const util::Dollars ps_tier =
          core::plan_cost(plan.type, 0, plan.n_ps, util::Seconds{market_end - launch});
      run.actual_cost += ps_tier;
      journal_cost(telemetry::CostPhase::kTrain, telemetry::CostCause::kPlan, "ps-tier",
                   ps_tier.value(), plan.type.name + " x" + std::to_string(plan.n_ps));
    }
  }
  // Added shards / re-planned clusters: Eq. 8 over their lease windows.
  int lease_index = 0;
  for (const Lease& lease : leases) {
    const double window = std::max(0.0, job_end - lease.from_seconds);
    const util::Dollars dollars =
        core::plan_cost(lease.type, lease.n_workers, lease.n_ps, util::Seconds{window});
    run.actual_cost += dollars;
    journal_cost(lease.for_crash ? telemetry::CostPhase::kRecover
                                 : telemetry::CostPhase::kMitigate,
                 lease.for_crash ? telemetry::CostCause::kFault
                                 : telemetry::CostCause::kSentinelAction,
                 "extra-" + std::to_string(lease_index++), dollars.value(),
                 lease.type.name + " +" + std::to_string(lease.n_workers) + "wk/" +
                     std::to_string(lease.n_ps) + "ps");
  }
  // Straggler replacements: one node each from blacklist+detection to end.
  for (const ddnn::MonitorExclusion& e : run.training.monitor.exclusions) {
    if (e.replaced_at < 0.0) continue;  // permanent blacklist, no new node
    const double window = std::max(0.0, job_end - (e.at + kDetectionSeconds.value()));
    const util::Dollars dollars = core::plan_cost(plan.type, 1, 0, util::Seconds{window});
    run.actual_cost += dollars;
    journal_cost(telemetry::CostPhase::kMitigate, telemetry::CostCause::kSentinelAction,
                 "replace-wk" + std::to_string(e.worker), dollars.value(), plan.type.name);
  }
  // Crash replacements: one node each, metered from the moment the master
  // reacts until the end of training. The crash a re-plan answered is paid
  // for by the new cluster's lease.
  std::size_t k = 0;
  for (const ddnn::FaultEventOutcome& outcome : run.training.faults.events) {
    if (outcome.spec.kind != faults::FaultKind::kCrash) continue;
    if (k >= run.replacement_provisioning.size()) break;
    const double provision = run.replacement_provisioning[k++];
    if (!outcome.fired || (k == 1 && crash_replanned)) continue;
    const double tail = job_end - (outcome.injected_at + kDetectionSeconds.value() + provision);
    const double window = provision + std::max(0.0, tail);
    const util::Dollars dollars = core::plan_cost(plan.type, 1, 0, util::Seconds{window});
    run.actual_cost += dollars;
    journal_cost(telemetry::CostPhase::kRecover, telemetry::CostCause::kFault,
                 "crash-replacement-" + std::to_string(k - 1), dollars.value(), plan.type.name);
  }

  run.time_goal_met = job_end <= goal.time_goal.value();
  run.loss_goal_met = run.achieved_loss <= goal.target_loss * 1.05;

  if (tel != nullptr) {
    auto& mtr = tel->metrics;
    if (!run.detections.empty()) {
      mtr.counter(metric::kSentinelDetections)
          .inc(static_cast<double>(run.detections.size()));
    }
    if (!run.mitigations.empty()) {
      mtr.counter(metric::kSentinelMitigations)
          .inc(static_cast<double>(run.mitigations.size()));
    }
    if (run.training.monitor.downgraded) mtr.counter(metric::kSentinelSspDowngrades).inc();
    if (run.added_ps > 0) {
      mtr.counter(metric::kSentinelAddedPs).inc(static_cast<double>(run.added_ps));
    }
    if (run.replanned && !crash_replanned) mtr.counter(metric::kSentinelReplans).inc();
    if (spot_ps > 0 && run.training.faults.crashes > 0) {
      // One checkpoint read per all-spot revocation, which crashes every node.
      const long revocations = run.training.faults.crashes / (plan.n_workers + spot_ps);
      mtr.counter(metric::kRestoreSeconds).inc(restore_seconds * static_cast<double>(revocations));
    }
    // The gauge holds the fully-attributed job cost; the journal's cost
    // ledger sums to exactly this value.
    mtr.gauge(metric::kBillingDollars).set(run.actual_cost.value());

    for (const DetectionEvent& d : run.detections) {
      tel->journal.event(
          d.at.value(), telemetry::JournalKind::kDetection,
          d.worker >= 0 ? d.kind + ":wk" + std::to_string(d.worker) : d.kind,
          "severity " + std::to_string(d.severity), d.severity);
    }
    for (const MitigationRecord& m : run.mitigations) {
      tel->journal.event(m.at.value(), telemetry::JournalKind::kMitigation, m.action, m.detail);
    }
    if (run.replanned) {
      tel->journal.event(job_end, telemetry::JournalKind::kReplan,
                         crash_replanned ? "recovery" : "sentinel",
                         "replan -> " + run.replacement_plan.describe());
    }
    tel->journal.verdict(job_end, "time-goal", run.time_goal_met, goal.time_goal.value(),
                         job_end);
    if (goal.target_loss > 0.0) {
      tel->journal.verdict(job_end, "loss-goal", run.loss_goal_met, goal.target_loss,
                           run.achieved_loss);
    }
    // A spot run answers for plan_spot's expected cost, not the nominal one.
    const double expected_cost =
        spot != nullptr ? spot->answer.expected_cost.value() : plan.predicted_cost.value();
    if (expected_cost > 0.0) {
      tel->journal.verdict(job_end, "cost", run.actual_cost.value() <= expected_cost * 1.1,
                           expected_cost, run.actual_cost.value());
    }
    if (sentinel == nullptr && spot == nullptr) record_recovery(*tel, run);
  }
  return run;
}

}  // namespace cynthia::orch
