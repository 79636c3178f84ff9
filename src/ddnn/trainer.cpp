#include "ddnn/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "ddnn/loss.hpp"
#include "ddnn/monitor.hpp"
#include "faults/injector.hpp"
#include "sim/fluid.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace cynthia::ddnn {

namespace {

namespace metric = telemetry::metric;

/// What one of the trainer's fluid jobs continues with when it drains,
/// packed into its sim::JobTag so that a completion needs no per-job
/// closure. Field widths, low bits first: stage 2, worker 16, PS shard 16,
/// pipeline block 8, epoch 22. run_training rejects a cluster or pipeline
/// whose indices do not fit (kMaxWorkers, kMaxShards, kMaxBlocks) rather
/// than alias two continuations. The epoch is the worker's epoch modulo
/// 2^22. That is safe because void_worker cancels every in-flight fluid job
/// of the worker; only a zero-volume job, which completes through the event
/// queue at the instant it started, outlives a void, and it would take 2^22
/// voids of one worker within that instant to alias its epoch.
struct FlowTag {
  enum class Stage : std::uint8_t { kCompute, kPush, kApply, kPull };

  static constexpr int kStageBits = 2;
  static constexpr int kWorkerBits = 16;
  static constexpr int kShardBits = 16;
  static constexpr int kBlockBits = 8;
  static constexpr int kEpochBits = 22;
  static_assert(kStageBits + kWorkerBits + kShardBits + kBlockBits + kEpochBits == 64);
  static constexpr long kMaxWorkers = 1L << kWorkerBits;
  static constexpr long kMaxShards = 1L << kShardBits;
  static constexpr long kMaxBlocks = 1L << kBlockBits;

  Stage stage = Stage::kCompute;
  int worker = 0;
  int shard = 0;
  int block = 0;
  std::uint32_t epoch = 0;  ///< modulo 2^kEpochBits

  [[nodiscard]] static std::uint32_t epoch_bits(std::uint32_t epoch) {
    return epoch & ((1U << kEpochBits) - 1U);
  }

  [[nodiscard]] sim::JobTag pack() const {
    sim::JobTag tag = epoch_bits(epoch);
    tag = tag << kBlockBits | static_cast<sim::JobTag>(block);
    tag = tag << kShardBits | static_cast<sim::JobTag>(shard);
    tag = tag << kWorkerBits | static_cast<sim::JobTag>(worker);
    return tag << kStageBits | static_cast<sim::JobTag>(stage);
  }

  [[nodiscard]] static FlowTag unpack(sim::JobTag tag) {
    const auto field = [&tag](int bits) {
      const auto value = tag & ((sim::JobTag{1} << bits) - 1);
      tag >>= bits;
      return value;
    };
    FlowTag out;
    out.stage = static_cast<Stage>(field(kStageBits));
    out.worker = static_cast<int>(field(kWorkerBits));
    out.shard = static_cast<int>(field(kShardBits));
    out.block = static_cast<int>(field(kBlockBits));
    out.epoch = static_cast<std::uint32_t>(tag);
    return out;
  }
};

/// Shared plumbing for both sync engines: builds the per-docker resources
/// and provides the push -> apply -> pull communication chain.
class Session {
 public:
  Session(const ClusterSpec& cluster, const WorkloadSpec& workload, const TrainOptions& options)
      : cluster_(cluster),
        workload_(workload),
        opts_(options),
        fluid_(sim_, [this](sim::JobId id, sim::JobTag tag, double t) { on_job_done(id, tag, t); }),
        rng_(options.seed),
        loss_(workload, cluster.n_workers(), loss_seed(options.seed)),
        tel_(options.telemetry) {
    fluid_.set_incremental(options.fluid_incremental);
  }

  virtual ~Session() = default;

  TrainResult run();

 protected:
  const ClusterSpec& cluster_;
  const WorkloadSpec& workload_;
  TrainOptions opts_;
  sim::Simulator sim_;
  sim::FluidSystem fluid_;
  util::Rng rng_;
  LossProcess loss_;

  long total_iterations_ = 0;
  LossSampling loss_sampling_;  ///< fixed once per run, in run()

  // Per-docker resources.
  std::vector<sim::ResourceId> worker_cpu_, worker_eg_, worker_in_;
  std::vector<sim::ResourceId> ps_cpu_, ps_in_, ps_eg_;

  // Chain bookkeeping: PS sub-chains still open per worker, and pulls
  // landed per (worker, shard) sub-chain, at [w * n_ps + k].
  std::vector<int> pending_subchains_;
  std::vector<int> pulls_done_;

  // Fault machinery. Liveness flags and epochs exist on every run (they are
  // pure bookkeeping, adding no simulator events), so a null/empty schedule
  // is bit-identical to the pre-fault trainer. A worker's epoch is bumped
  // whenever its in-flight work is voided (its crash, or a PS crash); every
  // fluid job carries the epoch it was issued under in its tag, and its
  // completion is dropped on mismatch — this also covers zero-volume jobs,
  // which complete through the event queue and cannot be cancelled.
  std::vector<char> worker_alive_, ps_alive_;
  std::vector<std::uint32_t> worker_epoch_;
  std::vector<std::vector<sim::JobId>> worker_jobs_;  ///< cancellable in-flight jobs
  std::unique_ptr<faults::FaultInjector> injector_;
  bool finalized_ = false;
  bool stopped_early_ = false;
  bool ps_outage_ = false;        ///< some PS shard is down; training suspended
  double outage_started_ = 0.0;
  long closed_updates_ = 0;       ///< globally applied updates (engines maintain)

  TrainResult result_;

  // Telemetry (all instrumentation is a no-op when tel_ is null). tel_done_
  // closes the recording window at finalize so events from chains that are
  // still draining past the recorded end time don't skew the breakdown.
  telemetry::Telemetry* tel_;
  bool tel_done_ = false;
  std::vector<std::string> tracks_cpu_, tracks_comm_;  ///< "wk<j>.cpu"/".comm"
  struct ChainTel {
    double start = 0.0;
    double last_push_end = 0.0;
    double first_pull_start = -1.0;
  };
  std::vector<ChainTel> chain_tel_;  ///< per worker, reset by start_chain

  [[nodiscard]] bool tel_on() const { return tel_ != nullptr && !tel_done_; }

  /// Invariant checking, sampled once per run so the bookkeeping the checks
  /// depend on cannot appear or vanish mid-run. Checks are read-only: they
  /// must never perturb the simulated timeline (see util/check.hpp).
  const bool checks_ = util::invariants_enabled();

  // --- monitor plumbing (zero simulator events unless the monitor acts) ---
  [[nodiscard]] bool monitor_on() const { return opts_.monitor != nullptr && !finalized_; }
  /// Probe baselines: previous probe time and per-PS saturated-time marks,
  /// so each probe reports window-local saturation fractions.
  double last_probe_time_ = 0.0;
  std::vector<double> last_ps_in_sat_, last_ps_cpu_sat_;
  /// The probe handed to the monitor, refilled in place at every probe so
  /// its per-worker vector is allocated once per run.
  HealthProbe probe_;
  /// Engine hook: per-worker busy seconds for the probe (-1 = no sample).
  virtual void fill_worker_busy(HealthProbe& /*probe*/) {}
  /// Refills probe_ with everything but the per-worker busy seconds.
  void make_probe();
  /// Calls the monitor and executes its action. Returns true when the run
  /// was cut (the caller must not continue the engine loop).
  bool probe_and_act();
  bool apply_monitor_action(const MonitorAction& action);
  void exclude_worker(const MonitorAction& action);
  void restore_worker_capacity(int w);
  void record_chain_spans(int w, double t_end);
  /// Engine hook: account per-worker idle time between the last completed
  /// cycle and the run's end so the breakdown tiles [0, end] (ASP/SSP).
  virtual void record_tail_telemetry(double /*end_time*/) {}

  void build_resources();
  /// Sizes the fluid system and the per-worker job lists for the most jobs
  /// the cluster can have in flight.
  void reserve_jobs();
  /// BSP splits the global batch across the workers that are up: survivors
  /// absorb a dead worker's shard (and slow down accordingly).
  [[nodiscard]] double comp_volume_bsp(int alive_count) {
    return workload_.witer.value() / alive_count * rng_.jitter(opts_.compute_jitter);
  }
  [[nodiscard]] double comp_volume_asp() {
    return workload_.witer.value() * rng_.jitter(opts_.compute_jitter);
  }
  [[nodiscard]] double push_volume_per_ps() const {
    return workload_.gparam.value() * kWireOverhead / cluster_.n_ps();
  }
  [[nodiscard]] double apply_volume_per_ps() const {
    return workload_.ps_update_gflops.value() / cluster_.n_ps();
  }

  /// Launches the full push -> apply -> pull chain for worker `w`;
  /// on_chain_done(w, t) fires when the final pull lands.
  void start_chain(int w);

  void sample_loss(long completed_updates);
  void finalize(double end_time);

  // --- fault plumbing ---
  [[nodiscard]] int alive_workers() const {
    int count = 0;
    for (char a : worker_alive_) count += a;
    return count;
  }
  /// start_job + per-worker job tracking so a crash can cancel everything
  /// the worker (or its PS round-trips) still has in flight. The job's tag
  /// carries the worker's current epoch.
  void start_tracked(double volume, std::initializer_list<sim::ResourceId> resources,
                     FlowTag tag);
  void arm_faults();
  void apply_fault(const faults::FaultSpec& fault, std::size_t idx);
  void recover_fault(const faults::FaultSpec& fault, std::size_t idx);
  void crash_worker(int w);
  void crash_ps(const faults::FaultSpec& fault, std::size_t idx);
  /// Cancels the worker's jobs, bumps its epoch, resets its chain state.
  void void_worker(int w);
  /// Cuts the run now and finalizes what durably completed.
  void stop_now();
  [[nodiscard]] double node_base_cpu(const faults::FaultSpec& fault) const;
  [[nodiscard]] double node_base_nic(const faults::FaultSpec& fault) const;
  void set_node_cpu(const faults::FaultSpec& fault, double capacity);
  void set_node_nic(const faults::FaultSpec& fault, util::MBps capacity);

  // Engine hooks for the two continuations that belong to an engine: a
  // worker's compute task drained at `t`, and its push -> apply -> pull
  // chain landed its last pull at `t`. Voided work never reaches them.
  virtual void on_compute_done(int w, double t) = 0;
  virtual void on_chain_done(int w, double t) = 0;

  // Engine hooks for fault semantics. Called after the Session-level state
  // (liveness, epochs, job cancellation, rollback) is already settled.
  virtual void engine_worker_crashed(int /*w*/) {}
  virtual void engine_worker_recovered(int /*w*/) {}
  /// PS crash: all in-flight work was voided and closed_updates_ rolled back
  /// to the checkpoint; park the engine until engine_resume().
  virtual void engine_suspend() {}
  virtual void engine_resume() {}
  /// Where the PS-outage window starts for accounting purposes (BSP: the
  /// aborted iteration's start, since its partial work is lost too).
  virtual double fault_outage_anchor() { return sim_.now(); }

 private:
  [[nodiscard]] int pipeline_blocks() const { return std::max(1, opts_.comm_pipeline_blocks); }
  /// The fluid system's one completion handler: untracks the job, drops it
  /// if its worker's work was voided since it started, and runs the
  /// continuation its tag names.
  void on_job_done(sim::JobId id, sim::JobTag packed, double t);
  void issue_push(int w, int k, int block);
  void on_push_done(const FlowTag& tag, double t);
  void on_apply_done(const FlowTag& tag, double t);
  void on_pull_done(const FlowTag& tag, double t);

  virtual void start_engine() = 0;
};

void Session::build_resources() {
  const int n = cluster_.n_workers();
  const int m = cluster_.n_ps();
  worker_cpu_.reserve(n);
  worker_eg_.reserve(n);
  worker_in_.reserve(n);
  for (int j = 0; j < n; ++j) {
    const auto& d = cluster_.workers[j];
    const std::string tag = "wk" + std::to_string(j);
    worker_cpu_.push_back(fluid_.add_resource(tag + ".cpu", d.cpu.value()));
    worker_eg_.push_back(fluid_.add_resource(tag + ".eg", d.nic.value()));
    worker_in_.push_back(fluid_.add_resource(tag + ".in", d.nic.value()));
  }
  for (int k = 0; k < m; ++k) {
    const auto& d = cluster_.ps[k];
    const std::string tag = "ps" + std::to_string(k);
    ps_cpu_.push_back(fluid_.add_resource(tag + ".cpu", d.cpu.value()));
    ps_in_.push_back(fluid_.add_resource(tag + ".in", d.nic.value(),
                                        util::Seconds{opts_.trace_bucket_seconds}));
    ps_eg_.push_back(fluid_.add_resource(tag + ".eg", d.nic.value()));
  }
  pending_subchains_.assign(n, 0);
  pulls_done_.assign(static_cast<std::size_t>(n) * m, 0);
  worker_alive_.assign(n, 1);
  ps_alive_.assign(m, 1);
  worker_epoch_.assign(n, 0);
  worker_jobs_.assign(n, {});
  reserve_jobs();
  for (int w : opts_.excluded_workers) {
    if (w < 0 || w >= n) {
      throw std::invalid_argument("run_training: excluded worker out of range");
    }
    worker_alive_[w] = 0;  // blacklisted before the run; not a crash
  }
  if (opts_.monitor != nullptr) {
    last_ps_in_sat_.assign(m, 0.0);
    last_ps_cpu_sat_.assign(m, 0.0);
  }
  if (tel_) {
    chain_tel_.assign(n, ChainTel{});
    tracks_cpu_.reserve(n);
    tracks_comm_.reserve(n);
    for (int j = 0; j < n; ++j) {
      const std::string tag = "wk" + std::to_string(j);
      tracks_cpu_.push_back(tag + ".cpu");
      tracks_comm_.push_back(tag + ".comm");
    }
  }
}

void Session::reserve_jobs() {
  // At most one compute task per worker is in flight, and per (worker,
  // shard) one job per pipeline block, since each block is in one stage at
  // a time. Sizing the storage for that up front means no run grows it,
  // not even at a new peak; past kMaxReservedJobs it grows on demand.
  constexpr std::size_t kMaxReservedJobs = std::size_t{1} << 16;
  const std::size_t n = worker_cpu_.size();
  const std::size_t m = ps_cpu_.size();
  const std::size_t blocks = pipeline_blocks();
  const std::size_t per_worker = 1 + m * blocks;
  if (n * per_worker > kMaxReservedJobs) return;
  std::vector<std::size_t> crossing(ps_eg_.back() + 1, 0);  // the last resource added
  for (std::size_t j = 0; j < n; ++j) {
    crossing[worker_cpu_[j]] = 1;
    crossing[worker_eg_[j]] = m;            // one push per shard
    crossing[worker_in_[j]] = m * blocks;   // pulls
    worker_jobs_[j].reserve(per_worker);
  }
  for (std::size_t k = 0; k < m; ++k) {
    crossing[ps_cpu_[k]] = n * blocks;  // applies
    crossing[ps_in_[k]] = n;            // one push per worker
    crossing[ps_eg_[k]] = n * blocks;   // pulls
  }
  fluid_.reserve(n * per_worker, crossing);
}

void Session::start_chain(int w) {
  const int m = cluster_.n_ps();
  pending_subchains_[w] = m;
  if (tel_on()) chain_tel_[w] = {sim_.now(), sim_.now(), -1.0};
  for (int k = 0; k < m; ++k) {
    pulls_done_[static_cast<std::size_t>(w) * m + k] = 0;
    issue_push(w, k, 0);
  }
}

void Session::start_tracked(double volume, std::initializer_list<sim::ResourceId> resources,
                            FlowTag tag) {
  tag.epoch = worker_epoch_[tag.worker];
  // A zero-volume job completes through the event queue, after this push.
  worker_jobs_[tag.worker].push_back(fluid_.start_job(volume, resources, tag.pack()));
}

void Session::on_job_done(sim::JobId id, sim::JobTag packed, double t) {
  const FlowTag tag = FlowTag::unpack(packed);
  auto& jobs = worker_jobs_[tag.worker];
  jobs.erase(std::remove(jobs.begin(), jobs.end(), id), jobs.end());
  if (tag.epoch != FlowTag::epoch_bits(worker_epoch_[tag.worker])) return;  // voided by a crash
  switch (tag.stage) {
    case FlowTag::Stage::kCompute:
      on_compute_done(tag.worker, t);
      return;
    case FlowTag::Stage::kPush:
      on_push_done(tag, t);
      return;
    case FlowTag::Stage::kApply:
      on_apply_done(tag, t);
      return;
    case FlowTag::Stage::kPull:
      on_pull_done(tag, t);
      return;
  }
}

void Session::record_chain_spans(int w, double t_end) {
  const ChainTel& c = chain_tel_[w];
  const double pull_start = c.first_pull_start < 0.0 ? c.start : c.first_pull_start;
  tel_->tracer.span(tracks_comm_[w], "push", "trainer", c.start, c.last_push_end);
  tel_->tracer.span(tracks_comm_[w], "pull", "trainer", pull_start, t_end);
  tel_->metrics.counter(metric::kPushSeconds).inc(c.last_push_end - c.start);
  tel_->metrics.counter(metric::kPullSeconds).inc(t_end - pull_start);
}

void Session::issue_push(int w, int k, int block) {
  start_tracked(push_volume_per_ps() / pipeline_blocks(), {worker_eg_[w], ps_in_[k]},
                {FlowTag::Stage::kPush, w, k, block});
}

void Session::on_push_done(const FlowTag& tag, double t) {
  const int w = tag.worker;
  const int k = tag.shard;
  if (tel_on()) chain_tel_[w].last_push_end = std::max(chain_tel_[w].last_push_end, t);
  // The next block's push streams out while this block is being applied —
  // the parameter-sharding pipeline that hides PS latency.
  if (tag.block + 1 < pipeline_blocks()) issue_push(w, k, tag.block + 1);
  start_tracked(apply_volume_per_ps() / pipeline_blocks(), {ps_cpu_[k]},
                {FlowTag::Stage::kApply, w, k, tag.block});
}

void Session::on_apply_done(const FlowTag& tag, double t) {
  const int w = tag.worker;
  const int k = tag.shard;
  if (tel_on()) {
    ChainTel& c = chain_tel_[w];
    if (c.first_pull_start < 0.0 || t < c.first_pull_start) c.first_pull_start = t;
  }
  start_tracked(push_volume_per_ps() / pipeline_blocks(), {ps_eg_[k], worker_in_[w]},
                {FlowTag::Stage::kPull, w, k, tag.block});
}

void Session::on_pull_done(const FlowTag& tag, double t) {
  const int w = tag.worker;
  const std::size_t sub = static_cast<std::size_t>(w) * cluster_.n_ps() + tag.shard;
  if (++pulls_done_[sub] != pipeline_blocks()) return;
  // Sub-chain to PS k finished; the worker's chain completes when every PS
  // shard has round-tripped.
  if (--pending_subchains_[w] != 0) return;
  if (tel_on()) record_chain_spans(w, t);
  on_chain_done(w, t);
}

void Session::sample_loss(long completed_updates) {
  if (!loss_sampling_.samples(completed_updates)) return;
  const long global = loss_sampling_.global(completed_updates);
  // After a PS-crash rollback, redone iterations would re-sample points the
  // curve already holds; keep it monotone instead. Fault-free runs sample
  // strictly increasing iterations, so this guard never fires there.
  if (!result_.loss_curve.empty() && result_.loss_curve.back().iteration >= global) return;
  result_.loss_curve.push_back({global, loss_.observe(global)});
}

void Session::finalize(double end_time) {
  finalized_ = true;
  result_.iterations = closed_updates_;
  result_.stopped_early = stopped_early_;
  result_.total_time = end_time;
  // Satellite of the fault report: non-crash degradations are *visible* in
  // the summary, not silently folded into training time. An event still
  // active at the end degrades its node until end_time.
  for (const FaultEventOutcome& outcome : result_.faults.events) {
    if (!outcome.fired || outcome.spec.kind == faults::FaultKind::kCrash) continue;
    const double until = outcome.recovered_at >= 0.0 ? outcome.recovered_at : end_time;
    result_.faults.degraded_node_seconds += std::max(0.0, until - outcome.injected_at);
  }
  result_.avg_iteration_time = end_time / std::max<long>(1, closed_updates_);
  result_.final_loss = loss_.observe(loss_sampling_.global(closed_updates_));

  fluid_.settle_now();
  const int n = cluster_.n_workers();
  const int m = cluster_.n_ps();
  result_.worker_cpu_util.resize(n);
  for (int j = 0; j < n; ++j) {
    result_.worker_cpu_util[j] = fluid_.resource_utilization(worker_cpu_[j], end_time);
  }
  result_.ps_cpu_util.resize(m);
  for (int k = 0; k < m; ++k) {
    result_.ps_cpu_util[k] = fluid_.resource_utilization(ps_cpu_[k], end_time);
  }
  result_.avg_worker_cpu_util =
      util::mean({result_.worker_cpu_util.data(), result_.worker_cpu_util.size()});
  result_.avg_ps_cpu_util = util::mean({result_.ps_cpu_util.data(), result_.ps_cpu_util.size()});

  // Table 2 reports the m4 (fastest-type) workers separately.
  const double fastest =
      std::max_element(cluster_.workers.begin(), cluster_.workers.end(),
                       [](const auto& a, const auto& b) { return a.cpu < b.cpu; })
          ->cpu.value();
  double fast_sum = 0.0;
  int fast_count = 0;
  for (int j = 0; j < n; ++j) {
    if (cluster_.workers[j].cpu.value() >= fastest - 1e-9) {
      fast_sum += result_.worker_cpu_util[j];
      ++fast_count;
    }
  }
  result_.avg_fast_worker_cpu_util = fast_count ? fast_sum / fast_count : 0.0;

  // Aggregate PS ingress throughput + optional trace.
  double volume = 0.0;
  for (int k = 0; k < m; ++k) volume += fluid_.resource_volume_served(ps_in_[k]);
  result_.ps_ingress_avg_mbps = end_time > 0.0 ? volume / end_time : 0.0;
  if (opts_.trace_bucket_seconds > 0.0 && m > 0) {
    // Sum the per-PS traces bucket-wise into one aggregate series.
    util::RateTrace aggregate(opts_.trace_bucket_seconds);
    for (int k = 0; k < m; ++k) {
      if (const auto* trace = fluid_.resource_trace(ps_in_[k])) {
        for (const auto& b : trace->buckets()) {
          aggregate.add_segment(b.start, b.start + b.width, b.value);
        }
      }
    }
    result_.ps_ingress_trace = aggregate.buckets();
    result_.ps_ingress_peak_mbps = aggregate.peak();
  } else {
    result_.ps_ingress_peak_mbps = result_.ps_ingress_avg_mbps;
  }

  if (tel_on()) {
    record_tail_telemetry(end_time);
    auto& mtr = tel_->metrics;
    mtr.gauge(metric::kTrainSeconds).set(end_time);
    mtr.gauge(metric::kTrainWorkers).set(n);
    mtr.counter(metric::kIterations).inc(static_cast<double>(total_iterations_));
    mtr.counter(metric::kSimEvents).inc(static_cast<double>(sim_.events_fired()));
    mtr.counter(metric::kFluidSettles).inc(static_cast<double>(fluid_.settle_count()));
    mtr.counter(metric::kFluidFlowsResolved).inc(static_cast<double>(fluid_.flows_resolved()));
    mtr.counter(metric::kFluidFlowsAvoided).inc(static_cast<double>(fluid_.flows_avoided()));
    auto snapshot_util = [&](const std::vector<sim::ResourceId>& ids) {
      for (sim::ResourceId id : ids) {
        mtr.gauge("fluid.util." + fluid_.resource_name(id))
            .set(fluid_.resource_utilization(id, end_time));
      }
    };
    snapshot_util(worker_cpu_);
    snapshot_util(worker_eg_);
    snapshot_util(worker_in_);
    snapshot_util(ps_cpu_);
    snapshot_util(ps_in_);
    snapshot_util(ps_eg_);
    for (sim::ResourceId id : ps_in_) {
      if (const auto* trace = fluid_.resource_trace(id)) {
        mtr.gauge("fluid.trace_peak." + fluid_.resource_name(id)).set(trace->peak());
        mtr.gauge("fluid.trace_avg." + fluid_.resource_name(id)).set(trace->average());
      }
    }
    if (result_.faults.injected > 0) {
      mtr.counter(metric::kFaultCrashes).inc(static_cast<double>(result_.faults.crashes));
      mtr.counter(metric::kFaultSlowdowns).inc(static_cast<double>(result_.faults.slowdowns));
      mtr.counter(metric::kFaultNicDegradations)
          .inc(static_cast<double>(result_.faults.nic_degradations));
      mtr.counter(metric::kFaultBlips).inc(static_cast<double>(result_.faults.blips));
      mtr.counter(metric::kFaultLostIterations)
          .inc(static_cast<double>(result_.faults.lost_iterations));
      mtr.counter(metric::kFaultOutageSeconds).inc(result_.faults.outage_seconds);
      mtr.counter(metric::kFaultDegradedNodeSeconds).inc(result_.faults.degraded_node_seconds);
    }
    // Close the recording window: chains still draining past end_time (ASP
    // tail) must not leak into the breakdown.
    tel_done_ = true;
  }
}

// --- fault plumbing ---

void Session::arm_faults() {
  if (opts_.faults == nullptr || opts_.faults->empty()) return;
  opts_.faults->validate(cluster_.n_workers(), cluster_.n_ps());
  result_.faults.events.reserve(opts_.faults->size());
  for (const auto& spec : opts_.faults->events()) {
    FaultEventOutcome outcome;
    outcome.spec = spec;
    result_.faults.events.push_back(std::move(outcome));
  }
  faults::FaultInjector::Hooks hooks;
  hooks.apply = [this](const faults::FaultSpec& f, std::size_t i) { apply_fault(f, i); };
  hooks.recover = [this](const faults::FaultSpec& f, std::size_t i) { recover_fault(f, i); };
  injector_ = std::make_unique<faults::FaultInjector>(sim_, *opts_.faults, std::move(hooks));
}

double Session::node_base_cpu(const faults::FaultSpec& fault) const {
  return (fault.on_ps ? cluster_.ps : cluster_.workers)[fault.target].cpu.value();
}

double Session::node_base_nic(const faults::FaultSpec& fault) const {
  return (fault.on_ps ? cluster_.ps : cluster_.workers)[fault.target].nic.value();
}

void Session::set_node_cpu(const faults::FaultSpec& fault, double capacity) {
  fluid_.set_resource_capacity(fault.on_ps ? ps_cpu_[fault.target] : worker_cpu_[fault.target],
                               capacity);
}

void Session::set_node_nic(const faults::FaultSpec& fault, util::MBps capacity) {
  if (fault.on_ps) {
    fluid_.set_resource_capacity(ps_in_[fault.target], capacity.value());
    fluid_.set_resource_capacity(ps_eg_[fault.target], capacity.value());
  } else {
    fluid_.set_resource_capacity(worker_eg_[fault.target], capacity.value());
    fluid_.set_resource_capacity(worker_in_[fault.target], capacity.value());
  }
}

void Session::apply_fault(const faults::FaultSpec& fault, std::size_t idx) {
  if (finalized_) return;  // scheduled past the end of the run
  FaultEventOutcome& outcome = result_.faults.events[idx];
  outcome.fired = true;
  outcome.injected_at = sim_.now();
  ++result_.faults.injected;
  if (tel_on()) {
    tel_->tracer.instant("faults", "inject:" + fault.to_string(), "fault", sim_.now());
    tel_->metrics.counter(metric::kFaultsInjected).inc();
    tel_->journal.event(sim_.now(), telemetry::JournalKind::kFaultInjected, fault.to_string());
  }
  switch (fault.kind) {
    case faults::FaultKind::kSlowdown:
      ++result_.faults.slowdowns;
      set_node_cpu(fault, node_base_cpu(fault) / std::max(1.0, fault.slowdown_factor));
      break;
    case faults::FaultKind::kNicDegradation: {
      ++result_.faults.nic_degradations;
      const double base = node_base_nic(fault);
      const double degraded = fault.degraded_mbps > 0.0 ? std::min(fault.degraded_mbps, base)
                                                        : base * fault.degraded_fraction;
      set_node_nic(fault, util::MBps{std::max(degraded, base * 1e-6)});
      break;
    }
    case faults::FaultKind::kTransientBlip: {
      ++result_.faults.blips;
      // A frozen node, not a removed one: capacities collapse but stay
      // positive so in-flight flows stall rather than starve.
      const double factor = std::max(1.0, fault.slowdown_factor);
      set_node_cpu(fault, node_base_cpu(fault) / factor);
      set_node_nic(fault, util::MBps{node_base_nic(fault) / factor});
      break;
    }
    case faults::FaultKind::kCrash:
      if (fault.on_ps) {
        crash_ps(fault, idx);
      } else {
        crash_worker(fault.target);
      }
      break;
  }
}

void Session::void_worker(int w) {
  ++worker_epoch_[w];
  for (sim::JobId id : worker_jobs_[w]) fluid_.cancel_job(id);
  worker_jobs_[w].clear();
  pending_subchains_[w] = 0;
}

void Session::crash_worker(int w) {
  if (!worker_alive_[w]) return;  // overlapping crash on an already-dead node
  worker_alive_[w] = 0;
  ++result_.faults.crashes;
  void_worker(w);
  engine_worker_crashed(w);
}

void Session::crash_ps(const faults::FaultSpec& fault, std::size_t idx) {
  if (!ps_alive_[fault.target]) return;
  ps_alive_[fault.target] = 0;
  ++result_.faults.crashes;
  // The crashed shard held the only authoritative copy of its parameter
  // slice: every update since the last checkpoint is gone, and every
  // in-flight push/pull is void. Training suspends until the shard is back.
  const long interval = opts_.checkpoint_interval_iterations;
  const long durable = interval > 0 ? (closed_updates_ / interval) * interval : 0;
  const long lost = closed_updates_ - durable;
  result_.faults.lost_iterations += lost;
  result_.faults.events[idx].lost_iterations = lost;
  if (!ps_outage_) {
    ps_outage_ = true;
    outage_started_ = fault_outage_anchor();
  }
  for (int j = 0; j < cluster_.n_workers(); ++j) void_worker(j);
  closed_updates_ = durable;
  engine_suspend();
  if (fault.recovery_seconds < 0.0) stop_now();  // no replacement coming, ever
}

void Session::recover_fault(const faults::FaultSpec& fault, std::size_t idx) {
  if (finalized_) return;
  result_.faults.events[idx].recovered_at = sim_.now();
  if (tel_on()) {
    tel_->tracer.instant("faults", "recover:" + fault.to_string(), "fault", sim_.now());
    tel_->journal.event(sim_.now(), telemetry::JournalKind::kFaultRecovered, fault.to_string());
  }
  switch (fault.kind) {
    case faults::FaultKind::kSlowdown:
      set_node_cpu(fault, node_base_cpu(fault));
      break;
    case faults::FaultKind::kNicDegradation:
      set_node_nic(fault, util::MBps{node_base_nic(fault)});
      break;
    case faults::FaultKind::kTransientBlip:
      set_node_cpu(fault, node_base_cpu(fault));
      set_node_nic(fault, util::MBps{node_base_nic(fault)});
      break;
    case faults::FaultKind::kCrash:
      if (fault.on_ps) {
        if (ps_alive_[fault.target]) break;
        ps_alive_[fault.target] = 1;
        bool all_up = true;
        for (char a : ps_alive_) all_up = all_up && (a != 0);
        if (all_up && ps_outage_) {
          ps_outage_ = false;
          result_.faults.outage_seconds += sim_.now() - outage_started_;
          engine_resume();
        }
      } else {
        if (worker_alive_[fault.target]) break;
        worker_alive_[fault.target] = 1;
        // The replacement node joins at full, undegraded capability.
        set_node_cpu(fault, node_base_cpu(fault));
        set_node_nic(fault, util::MBps{node_base_nic(fault)});
        engine_worker_recovered(fault.target);
      }
      break;
  }
}

void Session::stop_now() {
  if (finalized_) return;
  stopped_early_ = true;
  for (int j = 0; j < cluster_.n_workers(); ++j) void_worker(j);
  finalize(sim_.now());
}

// --- monitor plumbing ---

void Session::make_probe() {
  HealthProbe& probe = probe_;
  probe.now = sim_.now();
  probe.iteration = closed_updates_;
  probe.total_iterations = total_iterations_;
  probe.mode = workload_.sync;
  probe.window_seconds = probe.now - last_probe_time_;
  probe.worker_busy_seconds.assign(cluster_.n_workers(), -1.0);
  probe.ps_nic_saturated_fraction = 0.0;
  probe.ps_cpu_saturated_fraction = 0.0;
  const double window = probe.window_seconds;
  for (int k = 0; k < cluster_.n_ps(); ++k) {
    // Saturated-time reads are non-mutating (the open segment is accounted
    // without a settle), so probing never perturbs the fluid timeline.
    const double in_sat = fluid_.resource_saturated_seconds(ps_in_[k]);
    const double cpu_sat = fluid_.resource_saturated_seconds(ps_cpu_[k]);
    if (window > 1e-12) {
      probe.ps_nic_saturated_fraction =
          std::max(probe.ps_nic_saturated_fraction, (in_sat - last_ps_in_sat_[k]) / window);
      probe.ps_cpu_saturated_fraction =
          std::max(probe.ps_cpu_saturated_fraction, (cpu_sat - last_ps_cpu_sat_[k]) / window);
    }
    last_ps_in_sat_[k] = in_sat;
    last_ps_cpu_sat_[k] = cpu_sat;
  }
  last_probe_time_ = probe.now;
}

bool Session::probe_and_act() {
  make_probe();
  fill_worker_busy(probe_);
  return apply_monitor_action(opts_.monitor->observe(probe_));
}

bool Session::apply_monitor_action(const MonitorAction& action) {
  switch (action.kind) {
    case MonitorAction::Kind::kNone:
      return false;
    case MonitorAction::Kind::kExcludeWorker:
      exclude_worker(action);
      return false;
    case MonitorAction::Kind::kDowngradeSsp:
      if (workload_.sync != SyncMode::BSP) return false;  // already asynchronous
      result_.monitor.downgraded = true;
      result_.monitor.downgraded_at = sim_.now();
      result_.monitor.downgraded_at_iteration = closed_updates_;
      result_.monitor.staleness_bound = std::max(1, action.staleness_bound);
      break;
    case MonitorAction::Kind::kStop:
      break;
  }
  // kStop and kDowngradeSsp both cut the run at this clean sync point; the
  // orchestrator's executor owns the continuation.
  result_.monitor.stopped = true;
  result_.monitor.stop_reason = action.reason;
  if (tel_on()) {
    const std::string why = action.reason.empty() ? std::string("stop") : action.reason;
    tel_->tracer.instant("sentinel", "cut:" + why, "sentinel", sim_.now());
  }
  stop_now();
  return true;
}

void Session::exclude_worker(const MonitorAction& action) {
  const int w = action.target;
  if (w < 0 || w >= cluster_.n_workers() || !worker_alive_[w]) return;
  if (alive_workers() <= 1) return;  // never blacklist the last worker
  MonitorExclusion record;
  record.worker = w;
  record.at = sim_.now();
  worker_alive_[w] = 0;
  void_worker(w);
  if (tel_on()) {
    tel_->tracer.instant("sentinel", "exclude:wk" + std::to_string(w), "sentinel", sim_.now());
    tel_->metrics.counter(metric::kSentinelExclusions).inc();
  }
  if (action.replacement_after_seconds >= 0.0) {
    record.replaced_at = sim_.now() + action.replacement_after_seconds;
    sim_.after(action.replacement_after_seconds, [this, w] {
      if (finalized_ || worker_alive_[w]) return;
      worker_alive_[w] = 1;
      restore_worker_capacity(w);  // the replacement joins at full capability
      if (tel_on()) {
        tel_->tracer.instant("sentinel", "replacement:wk" + std::to_string(w), "sentinel",
                             sim_.now());
      }
      engine_worker_recovered(w);
    });
  }
  result_.monitor.exclusions.push_back(record);
  engine_worker_crashed(w);
}

void Session::restore_worker_capacity(int w) {
  fluid_.set_resource_capacity(worker_cpu_[w], cluster_.workers[w].cpu.value());
  fluid_.set_resource_capacity(worker_eg_[w], cluster_.workers[w].nic.value());
  fluid_.set_resource_capacity(worker_in_[w], cluster_.workers[w].nic.value());
}

TrainResult Session::run() {
  if (opts_.iterations < 0) throw std::invalid_argument("run_training: negative iterations");
  total_iterations_ = opts_.iterations > 0 ? opts_.iterations : workload_.default_iterations;
  if (total_iterations_ <= 0) throw std::invalid_argument("run_training: no iterations");
  loss_sampling_ = LossSampling(total_iterations_, opts_.loss_sample_stride,
                                opts_.loss_iteration_offset);
  if (cluster_.n_workers() <= 0 || cluster_.n_ps() <= 0) {
    throw std::invalid_argument("run_training: cluster needs workers and PS nodes");
  }
  // Every fluid job's continuation is packed into its tag (FlowTag); a shape
  // whose indices do not fit would alias continuations, so refuse it before
  // building anything.
  if (cluster_.n_workers() > FlowTag::kMaxWorkers || cluster_.n_ps() > FlowTag::kMaxShards ||
      opts_.comm_pipeline_blocks > FlowTag::kMaxBlocks) {
    throw std::invalid_argument("run_training: at most " + std::to_string(FlowTag::kMaxWorkers) +
                                " workers, " + std::to_string(FlowTag::kMaxShards) +
                                " PS nodes and " + std::to_string(FlowTag::kMaxBlocks) +
                                " pipeline blocks");
  }
  build_resources();
  if (alive_workers() == 0) {
    throw std::invalid_argument("run_training: every worker is excluded");
  }
  arm_faults();
  if (opts_.stop_after_seconds > 0.0) {
    sim_.at(opts_.stop_after_seconds, [this] { stop_now(); });
  }
  start_engine();
  sim_.run();
  if (!stopped_early_ && result_.iterations != total_iterations_) {
    // The event queue drained without the engine finalizing — a stalled
    // pipeline (a sync-gate deadlock, or a fault schedule that permanently
    // killed every worker with no recovery) must fail loudly, not return a
    // half-empty result.
    throw std::logic_error("run_training: engine stalled at iteration " +
                           std::to_string(result_.iterations) + " of " +
                           std::to_string(total_iterations_));
  }
  return std::move(result_);
}

/// BSP: barrier per iteration, communication of iteration i-1 overlapping
/// computation of iteration i.
class BspSession final : public Session {
 public:
  using Session::Session;

 private:
  long iter_ = 0;  // current iteration index; runs through total (tail flush)
  int comp_remaining_ = 0;
  int comm_remaining_ = 0;
  double iter_start_ = 0.0;
  double end_time_ = 0.0;
  // Fault state: per-worker pending flags let a crash retire the dead
  // worker's outstanding phase work; computed_last_ records who produced the
  // previous batch's gradients (a replacement that joined this iteration has
  // nothing to push); suspension covers both PS outages and the
  // all-workers-dead abort, with one anchor so outage time tiles exactly.
  bool suspended_ = false;
  double suspend_anchor_ = 0.0;
  std::vector<char> comp_pending_, comm_pending_, computed_last_;
  std::vector<char> pushed_;  ///< begin_iteration's snapshot of computed_last_
  std::vector<double> tel_comp_done_, tel_comm_done_;  // per worker, -1 = absent

  // Tiling-identity accumulators (invariant checking): per-worker-averaged
  // compute, exposed communication and barrier buckets, accumulated with
  // the same formulas the telemetry counters use. Their sum — plus outage
  // windows where training was suspended on a fault — must equal total
  // training time exactly; BSP iterations are contiguous, so any drift
  // means the Fig. 3 breakdown accounting is wrong.
  double tiled_comp_ = 0.0;
  double tiled_exposed_ = 0.0;
  double tiled_barrier_ = 0.0;
  double tiled_outage_ = 0.0;

  [[nodiscard]] bool track_phases() const {
    return tel_on() || checks_ || opts_.monitor != nullptr;
  }

  /// Per-worker busy time in the just-closed slot: from the slot open to the
  /// worker's last phase end. Workers with no phase this slot (dead, or a
  /// replacement that joined mid-iteration) report no sample.
  void fill_worker_busy(HealthProbe& probe) override {
    for (int j = 0; j < cluster_.n_workers(); ++j) {
      if (!worker_alive_[j]) continue;
      if (tel_comp_done_[j] < 0.0 && tel_comm_done_[j] < 0.0) continue;
      const double busy_end = std::max({tel_comp_done_[j], tel_comm_done_[j], iter_start_});
      probe.worker_busy_seconds[j] = busy_end - iter_start_;
    }
  }

  void start_engine() override {
    computed_last_.assign(cluster_.n_workers(), 0);
    begin_iteration(0);
  }

  void suspend_at(double anchor_time) {
    if (!suspended_) {
      suspended_ = true;
      suspend_anchor_ = anchor_time;
    }
  }

  void resume_iteration(long i) {
    tiled_outage_ += sim_.now() - suspend_anchor_;
    suspended_ = false;
    begin_iteration(i);
  }

  void begin_iteration(long i) {
    iter_ = i;
    iter_start_ = sim_.now();
    comp_remaining_ = 0;
    comm_remaining_ = 0;
    const int n = cluster_.n_workers();
    comp_pending_.assign(n, 0);
    comm_pending_.assign(n, 0);
    if (track_phases()) {
      tel_comp_done_.assign(n, -1.0);
      tel_comm_done_.assign(n, -1.0);
    }
    const int alive = alive_workers();
    if (alive == 0) {
      suspend_at(iter_start_);  // nobody left; wait for a replacement
      return;
    }
    // Who has gradients to push this slot: the survivors of last slot's
    // compute phase (snapshot before this slot's compute overwrites it).
    pushed_.assign(computed_last_.begin(), computed_last_.end());
    if (i < total_iterations_) {
      for (int j = 0; j < n; ++j) {
        if (!worker_alive_[j]) {
          computed_last_[j] = 0;
          continue;
        }
        computed_last_[j] = 1;
        ++comp_remaining_;
        comp_pending_[j] = 1;
        start_tracked(comp_volume_bsp(alive), {worker_cpu_[j]}, {FlowTag::Stage::kCompute, j});
      }
    } else {
      computed_last_.assign(n, 0);
    }
    if (i >= 1) {
      for (int j = 0; j < n; ++j) {
        if (!worker_alive_[j] || !pushed_[j]) continue;
        ++comm_remaining_;
        comm_pending_[j] = 1;
        start_chain(j);
      }
    }
    if (comp_remaining_ == 0 && comm_remaining_ == 0) {
      // Nothing to do in this slot (tail flush where no survivor computed
      // the previous batch — only reachable under faults). Close it through
      // the event queue to keep callback ordering uniform.
      sim_.after(0.0, [this, i] {
        if (!suspended_ && !finalized_ && iter_ == i && comp_remaining_ == 0 &&
            comm_remaining_ == 0) {
          maybe_advance();
        }
      });
    }
  }

  void on_compute_done(int w, double t) override {
    comp_pending_[w] = 0;
    if (track_phases()) tel_comp_done_[w] = t;
    if (tel_on()) tel_->tracer.span(tracks_cpu_[w], "compute", "trainer", iter_start_, t);
    if (--comp_remaining_ == 0) {
      result_.computation_time += t - iter_start_;
      maybe_advance();
    }
  }

  void on_chain_done(int w, double t) override {
    comm_pending_[w] = 0;
    if (track_phases()) tel_comm_done_[w] = t;
    if (--comm_remaining_ == 0) {
      result_.communication_time += t - iter_start_;
      maybe_advance();
    }
  }

  void engine_worker_crashed(int w) override {
    computed_last_[w] = 0;
    if (suspended_ || finalized_) return;
    // Retire the dead worker's outstanding phase work so the barrier
    // excludes it; if that closed a phase, account the phase end exactly as
    // a normal last-finisher would have.
    bool phase_closed = false;
    const double now = sim_.now();
    if (comp_pending_[w] != 0) {
      comp_pending_[w] = 0;
      if (--comp_remaining_ == 0) {
        result_.computation_time += now - iter_start_;
        phase_closed = true;
      }
    }
    if (comm_pending_[w] != 0) {
      comm_pending_[w] = 0;
      if (--comm_remaining_ == 0) {
        result_.communication_time += now - iter_start_;
        phase_closed = true;
      }
    }
    if (alive_workers() == 0) {
      // The open slot aborts — there is no survivor to produce its update.
      suspend_at(iter_start_);
      return;
    }
    if (phase_closed) maybe_advance();
  }

  void engine_worker_recovered(int w) override {
    (void)w;  // the replacement simply participates from the next slot on
    if (finalized_) return;
    if (suspended_ && !ps_outage_) resume_iteration(iter_);
  }

  void engine_suspend() override {
    suspend_at(iter_start_);
    // Rollback: redo from the checkpointed update count once the PS is back.
    iter_ = closed_updates_;
  }

  void engine_resume() override {
    if (alive_workers() == 0) return;  // still waiting on a worker replacement
    resume_iteration(iter_);
  }

  double fault_outage_anchor() override { return suspended_ ? sim_.now() : iter_start_; }

  /// Per-worker accounting at the barrier: a worker's iteration tiles into
  /// compute, communication not hidden by compute, and barrier wait — the
  /// three parts sum to the iteration span exactly, so the run-level
  /// breakdown sums to total training time by construction. Barrier spans
  /// are per worker, so stragglers are attributable by name in the trace.
  /// Averages run over the workers alive at the barrier: a mid-iteration
  /// casualty's partial phases are retired by engine_worker_crashed and its
  /// timeline stops counting toward the per-worker mean.
  void record_iteration_telemetry(int participants) {
    const double t_close = sim_.now();
    auto& mtr = tel_->metrics;
    for (int j = 0; j < cluster_.n_workers(); ++j) {
      if (!worker_alive_[j]) continue;
      const double comp_end = tel_comp_done_[j] >= 0.0 ? tel_comp_done_[j] : iter_start_;
      const double comm_end = tel_comm_done_[j] >= 0.0 ? tel_comm_done_[j] : iter_start_;
      const double busy_end = std::max(comp_end, comm_end);
      mtr.counter(metric::kCompSeconds).inc((comp_end - iter_start_) / participants);
      mtr.counter(metric::kCommExposedSeconds)
          .inc(std::max(0.0, comm_end - comp_end) / participants);
      mtr.counter(metric::kBarrierSeconds).inc((t_close - busy_end) / participants);
      if (t_close - busy_end > 1e-12) {
        tel_->tracer.span(tracks_cpu_[j], "barrier", "trainer", busy_end, t_close);
      }
    }
  }

  /// Accumulates the iteration's per-worker tiles and checks their local
  /// bounds; the run-level identity is asserted once at the end.
  void record_iteration_tiles(int participants) {
    const double t_close = sim_.now();
    for (int j = 0; j < cluster_.n_workers(); ++j) {
      if (!worker_alive_[j]) continue;
      const double comp_end = tel_comp_done_[j] >= 0.0 ? tel_comp_done_[j] : iter_start_;
      const double comm_end = tel_comm_done_[j] >= 0.0 ? tel_comm_done_[j] : iter_start_;
      const double busy_end = std::max(comp_end, comm_end);
      CYNTHIA_CHECK(comp_end >= iter_start_ && comm_end >= iter_start_,
                    "phase finished before iteration ", iter_, " started");
      CYNTHIA_CHECK(busy_end <= t_close,
                    "worker ", j, " still busy past the barrier of iteration ", iter_);
      tiled_comp_ += (comp_end - iter_start_) / participants;
      tiled_exposed_ += std::max(0.0, comm_end - comp_end) / participants;
      tiled_barrier_ += (t_close - busy_end) / participants;
    }
  }

  void maybe_advance() {
    if (suspended_ || finalized_) return;
    if (comp_remaining_ != 0 || comm_remaining_ != 0) return;
    const int participants = alive_workers();
    if (participants > 0) {
      if (tel_on()) record_iteration_telemetry(participants);
      if (checks_) record_iteration_tiles(participants);
    }
    // Iteration `iter_` closed: the parameter updates of iteration
    // iter_ - 1 are now applied globally.
    closed_updates_ = iter_;
    if (iter_ >= 1) sample_loss(iter_);
    if (iter_ == total_iterations_) {
      end_time_ = sim_.now();
      finalize(end_time_);
      // BSP tiling identity: compute + exposed communication + barrier —
      // plus fault-suspension outages — must tile [0, end] exactly
      // (iterations and outage windows are contiguous, and each worker's
      // iteration decomposes into exactly these three phases).
      const double tiled = tiled_comp_ + tiled_exposed_ + tiled_barrier_ + tiled_outage_;
      CYNTHIA_CHECK(std::abs(tiled - end_time_) <= end_time_ * 1e-7 + 1e-6,
                    "BSP breakdown does not tile training time: comp ", tiled_comp_,
                    " + exposed ", tiled_exposed_, " + barrier ", tiled_barrier_, " + outage ",
                    tiled_outage_, " = ", tiled, " vs total ", end_time_);
      return;
    }
    // Monitor probe at the closed barrier — the one point where nothing is
    // in flight, so an exclusion or a sync-mode cut cannot orphan work. The
    // tiling invariant holds per segment by construction.
    if (monitor_on() && iter_ >= 1 && participants > 0) {
      if (probe_and_act()) return;  // the monitor cut the run
    }
    begin_iteration(iter_ + 1);
  }
};

/// ASP: workers draw iterations from a global counter and run the
/// compute/push/apply/pull cycle independently. Also the base for SSP,
/// which adds a bounded-staleness gate in front of each cycle.
class AspSession : public Session {
 public:
  using Session::Session;

 protected:
  long issued_ = 0;
  long completed_ = 0;
  std::vector<double> cycle_start_;
  std::vector<long> worker_completed_;
  std::vector<char> in_flight_;        // worker currently owns an issued cycle
  std::vector<double> tel_comp_end_;   // current cycle's compute finish
  std::vector<double> tel_last_busy_;  // end of the last *completed* cycle
  std::vector<double> last_cycle_seconds_;  // most recent full cycle, for probes
  std::vector<double> chain_begin_;         // current cycle's compute finish

  void start_engine() override {
    const int n = cluster_.n_workers();
    cycle_start_.assign(n, 0.0);
    worker_completed_.assign(n, 0);
    in_flight_.assign(n, 0);
    last_cycle_seconds_.assign(n, -1.0);
    chain_begin_.assign(n, 0.0);
    if (tel_) {
      tel_comp_end_.assign(n, 0.0);
      tel_last_busy_.assign(n, 0.0);
    }
    // Stagger worker starts across one compute interval: pods never come up
    // in lockstep on a real cluster, and without the offset all n pushes
    // collide at the PS every cycle, which a fluid model would overstate.
    for (int j = 0; j < n; ++j) {
      if (!worker_alive_[j]) continue;  // blacklisted before the run
      const double cycle = workload_.witer.value() / cluster_.workers[j].cpu.value();
      const double offset = cycle * static_cast<double>(j) / static_cast<double>(n);
      sim_.after(offset, [this, j] { next_iteration(j); });
    }
  }

  /// Most recent completed cycle per worker; no sample until a worker has
  /// finished its first cycle.
  void fill_worker_busy(HealthProbe& probe) override {
    for (int j = 0; j < cluster_.n_workers(); ++j) {
      if (!worker_alive_[j] || last_cycle_seconds_[j] < 0.0) continue;
      probe.worker_busy_seconds[j] = last_cycle_seconds_[j];
    }
  }

  /// SSP hook: may defer the cycle; ASP admits unconditionally.
  virtual bool admit(int /*w*/) { return true; }
  /// SSP hook: called whenever a worker finishes a cycle.
  virtual void on_cycle_complete(int /*w*/) {}
  /// SSP hooks for fault rollback/crash bookkeeping on the parked list.
  virtual void clear_parked() {}
  virtual void unpark(int /*w*/) {}

  void next_iteration(int w) {
    if (finalized_ || ps_outage_) return;      // cut or suspended on a dead PS
    if (!worker_alive_[w] || in_flight_[w] != 0) return;
    if (issued_ >= total_iterations_) return;  // this worker idles out
    if (!admit(w)) return;                     // parked by the staleness gate
    ++issued_;
    in_flight_[w] = 1;
    cycle_start_[w] = sim_.now();
    if (tel_on()) {
      // Idle gap since the last completed cycle: the start stagger, or an
      // SSP park waiting for stragglers.
      const double gap = sim_.now() - tel_last_busy_[w];
      if (gap > 1e-12) {
        tel_->metrics.counter(metric::kBarrierSeconds).inc(gap / cluster_.n_workers());
        tel_->tracer.span(tracks_cpu_[w], "wait", "trainer", tel_last_busy_[w], sim_.now());
      }
    }
    start_tracked(comp_volume_asp(), {worker_cpu_[w]}, {FlowTag::Stage::kCompute, w});
  }

  void on_compute_done(int w, double t) override {
    result_.computation_time += t - cycle_start_[w];
    if (tel_on()) {
      tel_comp_end_[w] = t;
      tel_->tracer.span(tracks_cpu_[w], "compute", "trainer", cycle_start_[w], t);
    }
    chain_begin_[w] = t;
    start_chain(w);
  }

  void on_chain_done(int w, double t) override {
    result_.communication_time += t - chain_begin_[w];
    ++completed_;
    ++worker_completed_[w];
    in_flight_[w] = 0;
    last_cycle_seconds_[w] = t - cycle_start_[w];
    closed_updates_ = completed_;
    // Iteration-counter conservation: completions never outrun issues, and
    // issues never exceed the budget.
    CYNTHIA_CHECK(completed_ <= issued_ && issued_ <= total_iterations_,
                  "iteration accounting broke: completed ", completed_, ", issued ", issued_,
                  ", budget ", total_iterations_);
    if (tel_on()) record_cycle_telemetry(w, t);
    sample_loss(completed_);
    if (completed_ == total_iterations_) {
      finalize(t);
      return;
    }
    on_cycle_complete(w);
    // Monitor probe at cycle completion: the completing worker is idle, so
    // excluding it (or cutting the run) orphans nothing of its own; other
    // workers' voided cycles are reclaimed by the crash machinery.
    if (monitor_on() && probe_and_act()) return;
    next_iteration(w);
  }

  void engine_worker_crashed(int w) override {
    if (in_flight_[w] != 0) {
      in_flight_[w] = 0;
      --issued_;  // reclaim the voided cycle so the budget still completes
    }
    unpark(w);
    wake_idle();
  }

  void engine_worker_recovered(int w) override {
    if (finalized_) return;
    sim_.after(0.0, [this, w] { next_iteration(w); });
  }

  void engine_suspend() override {
    // PS-crash rollback: closed_updates_ was already floored to the last
    // checkpoint. The checkpoint has no per-worker attribution, so spread
    // the durable count evenly — deterministically — across workers.
    const int n = cluster_.n_workers();
    issued_ = closed_updates_;
    completed_ = closed_updates_;
    const long base = closed_updates_ / n;
    const long extra = closed_updates_ % n;
    for (int j = 0; j < n; ++j) {
      worker_completed_[j] = base + (j < extra ? 1 : 0);
      in_flight_[j] = 0;
    }
    clear_parked();
  }

  void engine_resume() override {
    for (int j = 0; j < cluster_.n_workers(); ++j) {
      if (worker_alive_[j]) {
        sim_.after(0.0, [this, j] { next_iteration(j); });
      }
    }
  }

  /// Re-offer the iteration budget to idle survivors (a crash may have
  /// reclaimed cycles after every other worker already idled out).
  void wake_idle() {
    if (finalized_ || ps_outage_) return;
    for (int j = 0; j < cluster_.n_workers(); ++j) {
      if (worker_alive_[j] && in_flight_[j] == 0) {
        sim_.after(0.0, [this, j] { next_iteration(j); });
      }
    }
  }

  /// Cycle accounting at completion only (an in-flight cycle at run end
  /// contributes nothing — its window is closed out as wait by the tail
  /// hook), so comp + comm + wait tiles each worker's timeline exactly.
  void record_cycle_telemetry(int w, double done_time) {
    const int n = cluster_.n_workers();
    auto& mtr = tel_->metrics;
    mtr.counter(metric::kCompSeconds).inc((tel_comp_end_[w] - cycle_start_[w]) / n);
    mtr.counter(metric::kCommExposedSeconds).inc((done_time - tel_comp_end_[w]) / n);
    tel_last_busy_[w] = done_time;
    long lead_max = worker_completed_[0], lead_min = worker_completed_[0];
    for (int j = 1; j < n; ++j) {
      lead_max = std::max(lead_max, worker_completed_[j]);
      lead_min = std::min(lead_min, worker_completed_[j]);
    }
    mtr.gauge(metric::kStaleness).set(static_cast<double>(lead_max - lead_min));
  }

  void record_tail_telemetry(double end_time) override {
    const int n = cluster_.n_workers();
    for (int j = 0; j < n; ++j) {
      const double gap = end_time - tel_last_busy_[j];
      if (gap > 1e-12) {
        tel_->metrics.counter(metric::kBarrierSeconds).inc(gap / n);
      }
    }
  }
};

/// SSP [14]: ASP loops with a bounded iteration gap. A worker whose lead
/// over the slowest *active* worker would exceed the bound parks until the
/// stragglers catch up; the model still converges because the parameter
/// staleness any worker can observe is capped.
class SspSession final : public AspSession {
 public:
  using AspSession::AspSession;

 private:
  std::vector<int> parked_;

  bool admit(int w) override {
    const long lead = worker_completed_[w] - min_active_completed(w);
    if (lead < effective_bound()) return true;
    if (tel_on()) tel_->tracer.instant(tracks_cpu_[w], "parked", "trainer", sim_.now());
    // wake_idle may re-offer a cycle to a worker that is already parked;
    // don't double-list it.
    if (std::find(parked_.begin(), parked_.end(), w) == parked_.end()) {
      parked_.push_back(w);
    }
    return false;
  }

  void on_cycle_complete(int /*w*/) override {
    // Bounded staleness is SSP's whole contract: the admit gate parks any
    // worker whose lead would reach the bound, so after every completed
    // cycle the iteration gap across workers stays within it. A crash
    // legitimately breaks the historical gap (survivors advance while the
    // victim's count is frozen, and its replacement resumes far behind), so
    // the check only binds on crash-free runs. Monitor exclusions freeze a
    // counter the same way (and a pre-excluded worker starts frozen at the
    // resumed segment's floor), so they lift the check too.
    if (checks_ && result_.faults.crashes == 0 && opts_.excluded_workers.empty() &&
        result_.monitor.exclusions.empty()) {
      long lead_max = worker_completed_[0], lead_min = worker_completed_[0];
      for (int j = 1; j < cluster_.n_workers(); ++j) {
        lead_max = std::max(lead_max, worker_completed_[j]);
        lead_min = std::min(lead_min, worker_completed_[j]);
      }
      CYNTHIA_CHECK(lead_max - lead_min <= effective_bound(),
                    "SSP staleness bound violated: gap ", lead_max - lead_min,
                    " exceeds bound ", effective_bound());
    }
    // A straggler advanced; wake every parked worker whose gap closed, in
    // parking order, and keep the rest parked in place.
    std::size_t kept = 0;
    for (int p : parked_) {
      const long lead = worker_completed_[p] - min_active_completed(p);
      if (lead < effective_bound()) {
        // Re-admit via next_iteration (re-checks the budget).
        sim_.after(0.0, [this, p] { next_iteration(p); });
      } else {
        parked_[kept++] = p;
      }
    }
    parked_.resize(kept);
  }

  /// Bound of 0 would park everyone (deadlock); clamp to >= 1.
  [[nodiscard]] int effective_bound() const { return std::max(1, workload_.ssp_staleness_bound); }

  /// Smallest completed count among workers that still have work to do
  /// (idled-out workers must not gate the rest at the tail of the run).
  /// Dead workers don't gate anyone either — their counters are frozen, and
  /// letting them pin the minimum would park every survivor forever.
  [[nodiscard]] long min_active_completed(int self) const {
    long min_done = worker_completed_[self];
    for (int j = 0; j < cluster_.n_workers(); ++j) {
      if (!worker_alive_[j]) continue;
      min_done = std::min(min_done, worker_completed_[j]);
    }
    return min_done;
  }

  void clear_parked() override { parked_.clear(); }

  void unpark(int w) override {
    parked_.erase(std::remove(parked_.begin(), parked_.end(), w), parked_.end());
  }
};

}  // namespace

TrainResult run_training(const ClusterSpec& cluster, const WorkloadSpec& workload,
                         const TrainOptions& options) {
  switch (workload.sync) {
    case SyncMode::BSP: {
      BspSession session(cluster, workload, options);
      return session.run();
    }
    case SyncMode::SSP: {
      SspSession session(cluster, workload, options);
      return session.run();
    }
    case SyncMode::ASP:
      break;
  }
  AspSession session(cluster, workload, options);
  return session.run();
}

}  // namespace cynthia::ddnn
