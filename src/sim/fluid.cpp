#include "sim/fluid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/check.hpp"

namespace cynthia::sim {

FluidSystem::FluidSystem(Simulator& sim, CompletionHandler on_done)
    : sim_(&sim), on_done_(std::move(on_done)) {
  if (!on_done_) throw std::invalid_argument("FluidSystem: empty completion handler");
}

ResourceId FluidSystem::add_resource(std::string name, double capacity,
                                     util::Seconds trace_bucket) {
  if (!(std::isfinite(capacity) && capacity > 0.0)) {
    throw std::invalid_argument("FluidSystem: capacity must be finite and > 0");
  }
  Resource r;
  r.name = std::move(name);
  r.capacity = capacity;
  if (trace_bucket.value() > 0.0) {
    r.trace = std::make_unique<util::RateTrace>(trace_bucket.value());
  }
  resources_.push_back(std::move(r));
  return resources_.size() - 1;
}

JobId FluidSystem::start_job(double volume, std::span<const ResourceId> resources, JobTag tag) {
  if (!std::isfinite(volume)) throw std::invalid_argument("FluidSystem: job volume must be finite");
  for (ResourceId rid : resources) {
    if (rid >= resources_.size()) throw std::out_of_range("FluidSystem: bad resource id");
  }
  const JobId id = next_job_id_++;
  if (volume <= kEpsilonVolume) {
    // Degenerate job: complete "immediately" but still through the event
    // queue so the handler sees a consistent completion ordering. Its
    // 32-byte closure is the one allocation a job may still make.
    sim_->after(0.0, [this, id, tag, t = sim_->now()] { on_done_(id, tag, t); });
    return id;
  }
  if (resources.empty()) {
    throw std::invalid_argument("FluidSystem: job must traverse at least one resource");
  }
  settle();
  if (free_.empty()) grow_slots(slots_.size() + 1);
  const std::size_t slot = free_.back();
  free_.pop_back();
  Job& job = slots_[slot];
  job.id = id;
  job.tag = tag;
  job.remaining = volume;
  job.rate = 0.0;
  job.resources.assign(resources.begin(), resources.end());
  // The new job has the largest live id, so appending keeps every list in
  // ascending id order.
  for (ResourceId rid : job.resources) resources_[rid].crossing.push_back(slot);
  live_.push_back(slot);
  reallocate(job.resources);
  return id;
}

void FluidSystem::reserve(std::size_t jobs, std::span<const std::size_t> crossing) {
  if (crossing.size() > resources_.size()) {
    throw std::out_of_range("FluidSystem: crossing bounds for unknown resources");
  }
  slots_.reserve(jobs);
  free_.reserve(jobs);
  grow_slots(jobs);
  live_.reserve(jobs);
  finished_.reserve(jobs);
  for (std::size_t r = 0; r < crossing.size(); ++r) resources_[r].crossing.reserve(crossing[r]);
  pending_.reserve(resources_.size());
  scratch_.frontier.reserve(resources_.size());
  scratch_.members.reserve(resources_.size());
}

void FluidSystem::grow_slots(std::size_t count) {
  while (slots_.size() < count) {
    free_.push_back(slots_.size());
    // Room for a flow's two NICs up front, so that reusing a slot of a
    // one-resource task for a flow never grows it.
    slots_.emplace_back().resources.reserve(2);
  }
}

void FluidSystem::cancel_job(JobId id) {
  const auto it = find_live(id);
  if (it == live_.end()) return;
  settle();
  const std::size_t slot = *it;
  live_.erase(it);
  release(slot);
  reallocate(slots_[slot].resources);
}

void FluidSystem::release(std::size_t slot) {
  Job& job = slots_[slot];
  for (ResourceId rid : job.resources) {
    auto& crossing = resources_[rid].crossing;
    crossing.erase(std::find(crossing.begin(), crossing.end(), slot));
  }
  job.id = 0;
  free_.push_back(slot);
}

std::vector<std::size_t>::const_iterator FluidSystem::find_live(JobId id) const {
  const auto by_id = [this](std::size_t slot, JobId v) { return slots_[slot].id < v; };
  const auto it = std::lower_bound(live_.begin(), live_.end(), id, by_id);
  return it != live_.end() && slots_[*it].id == id ? it : live_.end();
}

const FluidSystem::Job* FluidSystem::find_job(JobId id) const {
  const auto it = find_live(id);
  return it == live_.end() ? nullptr : &slots_[*it];
}

double FluidSystem::job_remaining(JobId id) const {
  const Job* j = find_job(id);
  if (!j) return 0.0;
  // Account for progress since the last settle without mutating state.
  const double dt = sim_->now() - last_settle_;
  return std::max(0.0, j->remaining - j->rate * dt);
}

double FluidSystem::job_rate(JobId id) const {
  CYNTHIA_DCHECK(!batching_, "job_rate read inside the completion handler, before the batch solve");
  const Job* j = find_job(id);
  return j ? j->rate : 0.0;
}

const std::string& FluidSystem::resource_name(ResourceId id) const {
  return resources_.at(id).name;
}

double FluidSystem::resource_capacity(ResourceId id) const { return resources_.at(id).capacity; }

double FluidSystem::resource_used(ResourceId id) const {
  CYNTHIA_DCHECK(!batching_,
                 "resource_used read inside the completion handler, before the batch solve");
  return resources_.at(id).used_rate;
}

double FluidSystem::resource_utilization(ResourceId id, double until) const {
  const Resource& r = resources_.at(id);
  if (until <= 0.0) return 0.0;
  // Include progress since the last settle.
  const double dt = std::max(0.0, std::min(sim_->now(), until) - last_settle_);
  const double busy = r.busy_integral + r.used_rate * dt;
  return std::clamp(busy / (r.capacity * until), 0.0, 1.0);
}

double FluidSystem::resource_volume_served(ResourceId id) const {
  const Resource& r = resources_.at(id);
  const double dt = std::max(0.0, sim_->now() - last_settle_);
  return r.busy_integral + r.used_rate * dt;
}

double FluidSystem::resource_saturated_seconds(ResourceId id) const {
  const Resource& r = resources_.at(id);
  const double dt = std::max(0.0, sim_->now() - last_settle_);
  const bool saturated_now = r.used_rate >= r.capacity - (r.capacity * 1e-9 + 1e-12);
  return r.saturated_integral + (saturated_now ? dt : 0.0);
}

void FluidSystem::set_resource_capacity(ResourceId id, double capacity) {
  if (id >= resources_.size()) throw std::out_of_range("FluidSystem: bad resource id");
  if (!(std::isfinite(capacity) && capacity > 0.0)) {
    throw std::invalid_argument(
        "FluidSystem: capacity must stay finite and > 0 (cancel jobs to kill a node)");
  }
  settle();
  resources_[id].capacity = capacity;
  reallocate({&id, 1});
}

const util::RateTrace* FluidSystem::resource_trace(ResourceId id) {
  // Flush the open rate segment first: after the last completion event the
  // clock may have advanced (or the queue drained) without another settle,
  // and peak/average reads from a truncated trace would miss that tail.
  settle();
  return resources_.at(id).trace.get();
}

void FluidSystem::settle_now() { settle(); }

void FluidSystem::settle() {
  const double now = sim_->now();
  const double dt = now - last_settle_;
  if (dt <= 0.0) {
    last_settle_ = now;
    return;
  }
  ++settle_count_;
  for (std::size_t slot : live_) {
    Job& job = slots_[slot];
    job.remaining = std::max(0.0, job.remaining - job.rate * dt);
  }
  for (auto& r : resources_) {
    r.busy_integral += r.used_rate * dt;
    if (r.used_rate >= r.capacity - (r.capacity * 1e-9 + 1e-12)) {
      r.saturated_integral += dt;
    }
    if (r.trace) r.trace->add_segment(last_settle_, now, r.used_rate);
  }
  last_settle_ = now;
}

std::vector<double> FluidSystem::compute_maxmin_rates() const {
  // Progressive water-filling over the live jobs in id order: repeatedly
  // saturate the tightest resource. rates[j] belongs to slots_[live_[j]].
  const std::size_t n = live_.size();
  std::vector<double> rates(n, 0.0);
  std::vector<bool> frozen(n, false);
  std::vector<double> rem_cap(resources_.size());
  std::vector<int> unfrozen_on(resources_.size(), 0);
  for (std::size_t r = 0; r < resources_.size(); ++r) rem_cap[r] = resources_[r].capacity;
  for (std::size_t j = 0; j < n; ++j) {
    for (ResourceId rid : slots_[live_[j]].resources) ++unfrozen_on[rid];
  }

  std::size_t frozen_count = 0;
  while (frozen_count < n) {
    // Find the resource granting the smallest fair share.
    double best_share = std::numeric_limits<double>::infinity();
    std::size_t best_r = resources_.size();
    for (std::size_t r = 0; r < resources_.size(); ++r) {
      if (unfrozen_on[r] == 0) continue;
      const double share = rem_cap[r] / unfrozen_on[r];
      if (share < best_share) {
        best_share = share;
        best_r = r;
      }
    }
    if (best_r == resources_.size()) break;  // remaining jobs use no resources
    best_share = std::max(0.0, best_share);
    // Freeze every unfrozen job crossing the bottleneck at that share.
    for (std::size_t j = 0; j < n; ++j) {
      if (frozen[j]) continue;
      const auto& rs = slots_[live_[j]].resources;
      if (std::find(rs.begin(), rs.end(), best_r) == rs.end()) continue;
      frozen[j] = true;
      ++frozen_count;
      rates[j] = best_share;
      for (ResourceId rid : rs) {
        rem_cap[rid] = std::max(0.0, rem_cap[rid] - best_share);
        --unfrozen_on[rid];
      }
    }
  }
  return rates;
}

void FluidSystem::mark_pending(std::span<const ResourceId> touched) {
  // Each resource once: the solve's flood fill would skip a repeat anyway,
  // and so pending_ never outgrows the resource count.
  for (ResourceId rid : touched) {
    if (resources_[rid].batch == batch_) continue;
    resources_[rid].batch = batch_;
    pending_.push_back(rid);
  }
}

void FluidSystem::reallocate(std::span<const ResourceId> touched) {
  if (batching_) {
    // Inside the completion handler no simulated time passes, so one solve
    // after it returns gives the rates of solving after each change.
    mark_pending(touched);
    return;
  }
  ++realloc_count_;
  if (incremental_ && !touched.empty()) {
    resolve_component(touched);
  } else {
    const auto rates = compute_maxmin_rates();
    for (auto& r : resources_) r.used_rate = 0.0;
    for (std::size_t j = 0; j < live_.size(); ++j) {
      Job& job = slots_[live_[j]];
      job.rate = rates[j];
      for (ResourceId rid : job.resources) resources_[rid].used_rate += rates[j];
    }
    flows_resolved_ += live_.size();
  }
  schedule_completion();
}

/// Component-scoped max-min: water-fills only the connected component(s) of
/// the bipartite job/resource graph reachable from the touched resources.
/// Correctness rests on two facts. (1) Max-min fairness decomposes exactly
/// by component — the global water-filling's freeze sequence restricted to
/// one component reads and writes only that component's capacities and
/// counts, in the same ascending-id order the restricted solve uses, so the
/// restricted solve reproduces the global rates bit-for-bit. (2) The
/// affected set is closed: every job crossing an affected resource is
/// itself affected, so untouched jobs keep rates (and their resources keep
/// used_rate sums) that a global re-solve would recompute identically.
///
/// The work is proportional to the component, read off the crossing lists
/// (docs/PERF.md, "Solve cost follows the component"): a crossing list is in
/// ascending job id, the order in which the global solve freezes jobs and
/// accumulates used_rate; scanning the members in ascending resource index
/// keeps its lowest-index tie-break; and by closure a resource's unfrozen
/// count starts at its crossing-list length.
void FluidSystem::resolve_component(std::span<const ResourceId> touched) {
  SolveScratch& s = scratch_;
  const std::uint64_t epoch = ++s.epoch;

  // Flood-fill the affected component(s) from the touched resources.
  s.frontier.clear();
  s.members.clear();
  std::size_t n_jobs = 0;
  for (ResourceId rid : touched) {
    if (resources_[rid].stamp != epoch) {
      resources_[rid].stamp = epoch;
      s.frontier.push_back(rid);
    }
  }
  while (!s.frontier.empty()) {
    const ResourceId r = s.frontier.back();
    s.frontier.pop_back();
    s.members.push_back(r);
    for (std::size_t slot : resources_[r].crossing) {
      Job& job = slots_[slot];
      if (job.stamp == epoch) continue;
      job.stamp = epoch;
      ++n_jobs;
      for (ResourceId rid : job.resources) {
        if (resources_[rid].stamp != epoch) {
          resources_[rid].stamp = epoch;
          s.frontier.push_back(rid);
        }
      }
    }
  }
  std::sort(s.members.begin(), s.members.end());

  // Progressive water-filling restricted to the component (same arithmetic
  // as compute_maxmin_rates over the affected subset).
  for (ResourceId r : s.members) {
    Resource& res = resources_[r];
    res.rem_cap = res.capacity;
    res.unfrozen = res.crossing.size();
  }
  const ResourceId none = resources_.size();
  std::size_t frozen_count = 0;
  while (frozen_count < n_jobs) {
    double best_share = std::numeric_limits<double>::infinity();
    ResourceId best_r = none;
    for (ResourceId r : s.members) {
      const Resource& res = resources_[r];
      if (res.unfrozen == 0) continue;
      const double share = res.rem_cap / static_cast<double>(res.unfrozen);
      if (share < best_share) {
        best_share = share;
        best_r = r;
      }
    }
    if (best_r == none) break;  // remaining jobs use no resources
    best_share = std::max(0.0, best_share);
    for (std::size_t slot : resources_[best_r].crossing) {
      Job& job = slots_[slot];
      if (job.frozen == epoch) continue;
      job.frozen = epoch;
      ++frozen_count;
      job.rate = best_share;
      for (ResourceId rid : job.resources) {
        Resource& res = resources_[rid];
        res.rem_cap = std::max(0.0, res.rem_cap - best_share);
        --res.unfrozen;
      }
    }
  }

  // Rebuild used_rate for affected resources only, each from 0.0 over its
  // crossing list: the global solve's ascending-id accumulation order.
  for (ResourceId r : s.members) {
    Resource& res = resources_[r];
    double used = 0.0;
    for (std::size_t slot : res.crossing) used += slots_[slot].rate;
    res.used_rate = used;
  }

  flows_resolved_ += n_jobs;
  flows_avoided_ += live_.size() - n_jobs;
}

void FluidSystem::schedule_completion() {
  double min_finish = std::numeric_limits<double>::infinity();
  for (std::size_t slot : live_) {
    const Job& job = slots_[slot];
    if (job.rate > 0.0) {
      min_finish = std::min(min_finish, job.remaining / job.rate);
    }
  }
  if (completion_event_ != 0) {
    sim_->cancel(completion_event_);
    completion_event_ = 0;
  }
  if (std::isfinite(min_finish)) {
    // Tiny relative+absolute slack guarantees the earliest job's remaining
    // volume is <= epsilon when the event fires, so every completion event
    // retires at least one job (no zero-progress event loops).
    const double slack = min_finish * 1e-12 + 1e-9;
    completion_event_ =
        sim_->after(std::max(0.0, min_finish + slack), [this] { on_completion_event(); });
  } else if (!live_.empty()) {
    // All active jobs starved (zero rate) — only possible if every resource
    // they use has zero remaining capacity, which cannot happen under
    // max-min with positive capacities. Treat as a logic error loudly.
    throw std::logic_error("FluidSystem: active jobs with zero allocation");
  }
  if (util::invariants_enabled()) verify_allocation();
}

/// Conservation laws of the max-min allocation, checked after every solve
/// (including each batched solve that closes a completion event):
///   1. rates are finite and non-negative;
///   2. flow conservation — the used rate booked on a resource equals the
///      sum of the rates of the jobs crossing it, and never exceeds its
///      capacity;
///   3. bottleneck saturation — every running job crosses at least one
///      resource that the allocation saturates (the defining property of
///      max-min fairness: nobody's rate can be raised without lowering a
///      rate that is already no larger);
///   4. the crossing lists index exactly the live jobs' resource lists, in
///      ascending job id (the incremental solve's order).
void FluidSystem::verify_allocation() const {
  constexpr double kRel = 1e-9;
  std::vector<double> crossing_sum(resources_.size(), 0.0);
  std::vector<std::size_t> crossing_count(resources_.size(), 0);
  for (std::size_t slot : live_) {
    const Job& job = slots_[slot];
    CYNTHIA_CHECK(std::isfinite(job.rate) && job.rate >= 0.0, "job ", job.id,
                  " has rate ", job.rate);
    for (ResourceId rid : job.resources) {
      crossing_sum[rid] += job.rate;
      ++crossing_count[rid];
    }
  }
  for (std::size_t r = 0; r < resources_.size(); ++r) {
    const auto& crossing = resources_[r].crossing;
    CYNTHIA_CHECK(crossing.size() == crossing_count[r], "crossing list of ",
                  resources_[r].name, " holds ", crossing.size(), " jobs, not ",
                  crossing_count[r]);
    for (std::size_t i = 0; i < crossing.size(); ++i) {
      const Job& job = slots_[crossing[i]];
      const bool crosses = std::count(job.resources.begin(), job.resources.end(), r) > 0;
      CYNTHIA_CHECK(job.id != 0 && crosses && (i == 0 || slots_[crossing[i - 1]].id <= job.id),
                    "crossing list of ", resources_[r].name, " is out of order or stale");
    }
  }
  for (std::size_t r = 0; r < resources_.size(); ++r) {
    const double cap = resources_[r].capacity;
    const double tol = cap * kRel + 1e-12;
    CYNTHIA_CHECK(std::abs(crossing_sum[r] - resources_[r].used_rate) <= tol,
                  "flow not conserved on ", resources_[r].name, ": jobs sum to ",
                  crossing_sum[r], " but used_rate is ", resources_[r].used_rate);
    CYNTHIA_CHECK(resources_[r].used_rate <= cap + tol, "resource ", resources_[r].name,
                  " over-subscribed: ", resources_[r].used_rate, " > capacity ", cap);
  }
  for (std::size_t slot : live_) {
    const Job& job = slots_[slot];
    if (job.rate <= 0.0) continue;
    bool bottlenecked = false;
    for (ResourceId rid : job.resources) {
      const double cap = resources_[rid].capacity;
      if (resources_[rid].used_rate >= cap - (cap * kRel + 1e-12)) {
        bottlenecked = true;
        break;
      }
    }
    CYNTHIA_CHECK(bottlenecked, "job ", job.id,
                  " runs below capacity on every resource it crosses (not max-min fair)");
  }
}

void FluidSystem::on_completion_event() {
  completion_event_ = 0;
  settle();
  // Take every finished job out (ties complete together) in one pass that
  // keeps live_ in ascending id, the solve order bit-exactness rests on.
  // Their ids and tags are copied out first and handed over in id order
  // afterwards, so the handler observes a consistent system and may start
  // new jobs, which may reuse the freed slots.
  ++batch_;
  pending_.clear();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < live_.size(); ++i) {
    const std::size_t slot = live_[i];
    Job& job = slots_[slot];
    if (job.remaining <= kEpsilonVolume) {
      mark_pending(job.resources);
      finished_.push_back({job.id, job.tag});
      release(slot);
    } else {
      live_[kept++] = slot;
    }
  }
  live_.resize(kept);
  // The completion slack in schedule_completion() guarantees progress: at
  // least one job must have drained by the time this event fires, or the
  // simulation would spin on zero-volume completion events forever.
  CYNTHIA_CHECK(!finished_.empty(), "completion event fired with no job drained");
  // One solve for the whole instant: starts, cancels and capacity changes
  // made by the handler only add their resources to pending_.
  batching_ = true;
  const double now = sim_->now();
  try {
    for (const Finished& done : finished_) on_done_(done.id, done.tag, now);
  } catch (...) {
    finished_.clear();
    solve_batch();
    throw;
  }
  finished_.clear();
  solve_batch();
}

void FluidSystem::solve_batch() {
  batching_ = false;
  reallocate(pending_);
}

}  // namespace cynthia::sim
