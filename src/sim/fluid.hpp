// Fluid-flow resource sharing on top of the event clock.
//
// CPUs and NIC links are both modeled as capacity-constrained resources;
// concurrently active work items ("jobs": a gradient push flow, a compute
// task, a parameter-apply on the PS) share them max-min fairly, the standard
// fluid approximation of processor sharing and of per-flow TCP fairness.
// This is what makes the paper's phenomena *emerge*: with n workers pushing
// through one PS NIC each flow gets ~1/n of the link, with many apply tasks
// the PS CPU queue stretches, and worker utilization drops accordingly —
// none of it is hard-coded from Cynthia's own formulas, so the model's
// prediction error against this "testbed" is a meaningful quantity.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "util/time_series.hpp"
#include "util/units.hpp"

namespace cynthia::sim {

using ResourceId = std::size_t;
using JobId = std::uint64_t;
/// Caller-defined payload carried by a job to its completion: the owner
/// packs whatever it needs to continue (the trainer packs stage, worker,
/// PS shard, block and epoch), so no per-job closure is stored.
using JobTag = std::uint64_t;

/// Max-min fair fluid system. One instance per experiment; owns its
/// resources and active jobs and drives itself via the Simulator.
///
/// Completion contract: every job completes through the one
/// CompletionHandler given to the constructor, called as
/// `on_done(id, tag, finish_time)` with the id start_job returned and the
/// tag it was given. Jobs that finish at the same instant are handed over in
/// ascending id; a cancelled job is never handed over. The handler may start
/// and cancel jobs and change capacities. A job's resource list is copied
/// into a reused slot, so a warm system allocates nothing per job; the one
/// exception is a zero-volume job, whose zero-delay completion event carries
/// a closure that may allocate.
///
/// Solves are batched per instant. While a completion event runs the
/// handler for the jobs it finished, start_job, cancel_job and
/// set_resource_capacity only record the resources they touch; one solve
/// over all of them follows once the handler returns, and schedules one
/// completion event. No simulated time passes inside the handler, so the
/// rates, used rates and completion times equal those of solving after
/// every change (docs/PERF.md). Contract for reads inside the completion
/// handler: job_rate and resource_used are not allowed there (they would
/// see the allocation from before the event; CYNTHIA_DCHECK'd), and every
/// other reader is exact, because each scales the allocation by the zero
/// time elapsed since the event settled.
class FluidSystem {
 public:
  using CompletionHandler = std::function<void(JobId, JobTag, double)>;

  /// Throws std::invalid_argument for an empty handler.
  FluidSystem(Simulator& sim, CompletionHandler on_done);

  FluidSystem(const FluidSystem&) = delete;
  FluidSystem& operator=(const FluidSystem&) = delete;

  /// Registers a resource with the given capacity (units/second), which
  /// must be finite and > 0 (std::invalid_argument otherwise). If
  /// `trace_bucket` > 0, the used rate is recorded into a RateTrace with that
  /// bucket width (used for Figs. 2 and 7).
  ResourceId add_resource(std::string name, double capacity,
                          util::Seconds trace_bucket = util::Seconds{0.0});

  /// Starts a job of `volume` units traversing all of `resources`
  /// simultaneously (a network flow crossing two NICs, or a CPU task on one
  /// core). The handler receives `tag` when the volume drains.
  /// A job with volume <= epsilon completes via a zero-delay event (which
  /// cancel_job cannot stop); a non-finite volume throws
  /// std::invalid_argument. A resource listed twice carries the job twice
  /// (it uses twice the job's rate there).
  JobId start_job(double volume, std::span<const ResourceId> resources, JobTag tag = 0);
  JobId start_job(double volume, std::initializer_list<ResourceId> resources, JobTag tag = 0) {
    return start_job(volume, std::span<const ResourceId>(resources.begin(), resources.size()),
                     tag);
  }

  /// Removes an active job without handing it to the handler; no-op if
  /// finished.
  void cancel_job(JobId id);

  /// Sizes the job storage for `jobs` concurrent jobs of up to two resources
  /// each, and resource r's crossing list for `crossing[r]` concurrent jobs
  /// (`crossing` may cover a prefix of the resources). A run that stays
  /// within these bounds grows no container of the fluid system, not even
  /// at a new peak of concurrency; beyond them storage grows on demand.
  void reserve(std::size_t jobs, std::span<const std::size_t> crossing);

  [[nodiscard]] std::size_t active_jobs() const { return live_.size(); }
  [[nodiscard]] double job_remaining(JobId id) const;
  /// Not callable inside the completion handler (see the class comment).
  [[nodiscard]] double job_rate(JobId id) const;

  [[nodiscard]] const std::string& resource_name(ResourceId id) const;
  [[nodiscard]] double resource_capacity(ResourceId id) const;
  /// Currently allocated rate on the resource (after the last reallocation).
  /// Not callable inside the completion handler (see the class comment).
  [[nodiscard]] double resource_used(ResourceId id) const;
  /// Time-averaged utilization in [0,1] over [0, until].
  [[nodiscard]] double resource_utilization(ResourceId id, double until) const;
  /// Busy integral: total units served so far.
  [[nodiscard]] double resource_volume_served(ResourceId id) const;
  /// Total time (seconds) the max-min allocation has held this resource at
  /// capacity, i.e. the time it was the binding constraint for some job.
  /// Cheap always-on bookkeeping; the sentinel diffs it between probes to
  /// attribute a degradation to the PS NIC vs the PS CPU vs a worker.
  [[nodiscard]] double resource_saturated_seconds(ResourceId id) const;
  /// Trace of the used rate, or nullptr if tracing was not enabled.
  /// Settles first so the trace includes the open segment since the last
  /// reallocation — without this, reads taken after the simulation drains
  /// (or mid-run) were truncated at the final settle.
  [[nodiscard]] const util::RateTrace* resource_trace(ResourceId id);

  /// Changes a resource's capacity mid-run (fault injection: a slowed CPU,
  /// a degraded NIC). Settles progress under the old allocation first, then
  /// re-runs max-min over the new capacities so every active job re-settles
  /// onto the changed topology. Capacity must stay finite and > 0 — model a
  /// dead node by cancelling its jobs, not by zeroing its resources (zero
  /// capacity would starve active jobs, which the solver treats as a logic
  /// error, and a NaN one would never bind, leaving its jobs' rates stale).
  void set_resource_capacity(ResourceId id, double capacity);

  /// Settles utilization integrals up to the current simulation time
  /// (call before reading utilization mid-run).
  void settle_now();

  /// Number of settle sweeps over the live jobs, i.e. settles that advanced
  /// the clock; a settle at dt = 0 does no work and is not counted
  /// (telemetry: fluid hot-path count).
  [[nodiscard]] std::size_t settle_count() const { return settle_count_; }

  /// Toggles component-scoped reallocation (default on). Max-min fairness
  /// decomposes exactly over connected components of the job/resource
  /// bipartite graph, so after an event only the touched component is
  /// re-water-filled; allocations are bit-identical to the global solve
  /// either way (tests/fluid_incremental_test.cpp) — off exists for the
  /// equivalence suite and perf baselines.
  void set_incremental(bool on) { incremental_ = on; }
  [[nodiscard]] bool incremental() const { return incremental_; }

  /// Max-min solves performed: one per completion event (covering every
  /// start, cancel and capacity change its handler calls made), plus one per
  /// start, cancel or capacity change made outside the completion handler.
  [[nodiscard]] std::size_t realloc_count() const { return realloc_count_; }
  /// Cumulative flows actually re-solved by water-filling across all
  /// reallocations; the global solver re-solves every active flow every
  /// time, so `flows_avoided()` is the incremental win.
  [[nodiscard]] std::uint64_t flows_resolved() const { return flows_resolved_; }
  [[nodiscard]] std::uint64_t flows_avoided() const { return flows_avoided_; }

  static constexpr double kEpsilonVolume = 1e-9;

 private:
  struct Resource {
    std::string name;
    double capacity = 0.0;
    double busy_integral = 0.0;       // sum of rate*dt
    double saturated_integral = 0.0;  // sum of dt while used_rate ~= capacity
    double used_rate = 0.0;           // current allocation
    std::unique_ptr<util::RateTrace> trace;
    /// Slots of the live jobs using this resource, in ascending job id (a
    /// job listing the resource twice appears twice, side by side).
    std::vector<std::size_t> crossing;
    // resolve_component's working state, meaningful while `stamp` equals the
    // current solve's epoch (so a solve never clears it).
    std::uint64_t stamp = 0;
    double rem_cap = 0.0;
    std::size_t unfrozen = 0;
    std::uint64_t batch = 0;  // == batch_: already in pending_
  };

  struct Job {
    JobId id = 0;  // 0 marks a free slot
    JobTag tag = 0;
    double remaining = 0.0;
    double rate = 0.0;
    std::vector<ResourceId> resources;  // assigned in place: the slot keeps its capacity
    std::uint64_t stamp = 0;   // == epoch: in the component being solved
    std::uint64_t frozen = 0;  // == epoch: its rate is fixed in that solve
  };

  /// A job a completion event finished, as handed to the handler.
  struct Finished {
    JobId id;
    JobTag tag;
  };

  /// resolve_component's lists, kept across solves so that a steady-state
  /// solve allocates nothing. Per-resource and per-job marks carry the
  /// epoch of the solve that set them instead of being cleared, so a solve
  /// costs the size of its component, not of the whole system.
  struct SolveScratch {
    std::uint64_t epoch = 0;
    std::vector<ResourceId> frontier, members;
  };

  Simulator* sim_;
  CompletionHandler on_done_;
  std::vector<Resource> resources_;
  std::vector<Job> slots_;         // stable job storage; freed slots are reused
  std::vector<std::size_t> free_;  // free slots of slots_
  std::vector<std::size_t> live_;  // slots of the live jobs, in ascending job id
  JobId next_job_id_ = 1;
  double last_settle_ = 0.0;
  EventId completion_event_ = 0;
  std::size_t settle_count_ = 0;
  bool incremental_ = true;
  std::size_t realloc_count_ = 0;
  std::uint64_t flows_resolved_ = 0;
  std::uint64_t flows_avoided_ = 0;
  bool batching_ = false;            // the completion handler is running
  std::uint64_t batch_ = 0;          // completion events so far
  std::vector<ResourceId> pending_;  // resources touched in this batch, each once
  /// The jobs a completion event finished, copied out of their slots before
  /// the handler runs (its start_job may reuse or grow slots_).
  std::vector<Finished> finished_;
  SolveScratch scratch_;

  void settle();
  /// Re-runs max-min after an event that touched `touched` resources (job
  /// started/removed there, or capacity changed). Incremental mode
  /// water-fills only the touched connected component; an empty list (or
  /// incremental off) solves globally. Inside a batch it only appends
  /// `touched` to pending_.
  void reallocate(std::span<const ResourceId> touched);
  /// Appends the resources of `touched` not yet in this batch's pending_.
  void mark_pending(std::span<const ResourceId> touched);
  void resolve_component(std::span<const ResourceId> touched);
  /// Reschedules the next completion event from the current rates and
  /// checks the starvation invariant (shared tail of every reallocation).
  void schedule_completion();
  void on_completion_event();
  /// Closes the batch and solves once over pending_.
  void solve_batch();
  /// Adds free slots until there are `count`.
  void grow_slots(std::size_t count);
  /// Unlinks a live job's slot from its resources' crossing lists and frees
  /// it; the caller has already taken it out of live_. Its `resources` stay
  /// readable until the slot is reused.
  void release(std::size_t slot);
  void verify_allocation() const;
  [[nodiscard]] std::vector<double> compute_maxmin_rates() const;
  /// Position of a live job in live_ (binary search by id), or live_.end().
  [[nodiscard]] std::vector<std::size_t>::const_iterator find_live(JobId id) const;
  [[nodiscard]] const Job* find_job(JobId id) const;
};

}  // namespace cynthia::sim
