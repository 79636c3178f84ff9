#include "sim/fluid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/check.hpp"

namespace cynthia::sim {

ResourceId FluidSystem::add_resource(std::string name, double capacity,
                                     double trace_bucket_seconds) {
  if (capacity <= 0.0) throw std::invalid_argument("FluidSystem: capacity must be > 0");
  Resource r;
  r.name = std::move(name);
  r.capacity = capacity;
  if (trace_bucket_seconds > 0.0) {
    r.trace = std::make_unique<util::RateTrace>(trace_bucket_seconds);
  }
  resources_.push_back(std::move(r));
  return resources_.size() - 1;
}

JobId FluidSystem::start_job(double volume, std::vector<ResourceId> resources,
                             std::function<void(double)> on_complete) {
  for (ResourceId rid : resources) {
    if (rid >= resources_.size()) throw std::out_of_range("FluidSystem: bad resource id");
  }
  const JobId id = next_job_id_++;
  if (volume <= kEpsilonVolume) {
    // Degenerate job: complete "immediately" but still through the event
    // queue so callers observe a consistent callback ordering.
    if (on_complete) {
      sim_->after(0.0, [cb = std::move(on_complete), t = sim_->now()] { cb(t); });
    }
    return id;
  }
  if (resources.empty()) {
    throw std::invalid_argument("FluidSystem: job must traverse at least one resource");
  }
  settle();
  Job job;
  job.id = id;
  job.remaining = volume;
  job.resources = std::move(resources);
  job.on_complete = std::move(on_complete);
  jobs_.push_back(std::move(job));
  reallocate(jobs_.back().resources);
  return id;
}

void FluidSystem::cancel_job(JobId id) {
  auto it = std::find_if(jobs_.begin(), jobs_.end(), [&](const Job& j) { return j.id == id; });
  if (it == jobs_.end()) return;
  settle();
  const std::vector<ResourceId> touched = std::move(it->resources);
  jobs_.erase(it);
  reallocate(touched);
}

const FluidSystem::Job* FluidSystem::find_job(JobId id) const {
  auto it = std::find_if(jobs_.begin(), jobs_.end(), [&](const Job& j) { return j.id == id; });
  return it == jobs_.end() ? nullptr : &*it;
}

double FluidSystem::job_remaining(JobId id) const {
  const Job* j = find_job(id);
  if (!j) return 0.0;
  // Account for progress since the last settle without mutating state.
  const double dt = sim_->now() - last_settle_;
  return std::max(0.0, j->remaining - j->rate * dt);
}

double FluidSystem::job_rate(JobId id) const {
  CYNTHIA_DCHECK(!batching_, "job_rate read inside a completion callback, before the batch solve");
  const Job* j = find_job(id);
  return j ? j->rate : 0.0;
}

const std::string& FluidSystem::resource_name(ResourceId id) const {
  return resources_.at(id).name;
}

double FluidSystem::resource_capacity(ResourceId id) const { return resources_.at(id).capacity; }

double FluidSystem::resource_used(ResourceId id) const {
  CYNTHIA_DCHECK(!batching_,
                 "resource_used read inside a completion callback, before the batch solve");
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
  if (capacity <= 0.0) {
    throw std::invalid_argument("FluidSystem: capacity must stay > 0 (cancel jobs to kill a node)");
  }
  settle();
  resources_[id].capacity = capacity;
  reallocate({id});
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
  ++settle_count_;
  const double now = sim_->now();
  const double dt = now - last_settle_;
  if (dt <= 0.0) {
    last_settle_ = now;
    return;
  }
  for (auto& job : jobs_) {
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
  // Progressive water-filling: repeatedly saturate the tightest resource.
  const std::size_t n = jobs_.size();
  std::vector<double> rates(n, 0.0);
  std::vector<bool> frozen(n, false);
  std::vector<double> rem_cap(resources_.size());
  std::vector<int> unfrozen_on(resources_.size(), 0);
  for (std::size_t r = 0; r < resources_.size(); ++r) rem_cap[r] = resources_[r].capacity;
  for (std::size_t j = 0; j < n; ++j) {
    for (ResourceId rid : jobs_[j].resources) ++unfrozen_on[rid];
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
      const auto& rs = jobs_[j].resources;
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

void FluidSystem::reallocate(const std::vector<ResourceId>& touched) {
  if (batching_) {
    // Inside a completion event's callbacks no simulated time passes, so one
    // solve after they return gives the rates of solving after each change.
    pending_.insert(pending_.end(), touched.begin(), touched.end());
    return;
  }
  ++realloc_count_;
  if (incremental_ && !touched.empty()) {
    resolve_component(touched);
  } else {
    const auto rates = compute_maxmin_rates();
    for (auto& r : resources_) r.used_rate = 0.0;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      jobs_[j].rate = rates[j];
      for (ResourceId rid : jobs_[j].resources) resources_[rid].used_rate += rates[j];
    }
    flows_resolved_ += jobs_.size();
  }
  schedule_completion();
}

/// Component-scoped max-min: water-fills only the connected component(s) of
/// the bipartite job/resource graph reachable from the touched resources.
/// Correctness rests on two facts. (1) Max-min fairness decomposes exactly
/// by component — the global water-filling's freeze sequence restricted to
/// one component reads and writes only that component's capacities and
/// counts, in the same ascending-index order the restricted solve uses, so
/// the restricted solve reproduces the global rates bit-for-bit. (2) The
/// affected set is closed: every job crossing an affected resource is
/// itself affected, so untouched jobs keep rates (and their resources keep
/// used_rate sums) that a global re-solve would recompute identically.
void FluidSystem::resolve_component(const std::vector<ResourceId>& touched) {
  const std::size_t n = jobs_.size();
  const std::size_t nr = resources_.size();
  SolveScratch& s = scratch_;

  // CSR adjacency resource -> crossing job indices: one O(edges) pass, far
  // below the water-filling work it lets us skip.
  s.head.assign(nr + 1, 0);
  for (const auto& job : jobs_) {
    for (ResourceId rid : job.resources) ++s.head[rid + 1];
  }
  for (std::size_t r = 0; r < nr; ++r) s.head[r + 1] += s.head[r];
  s.adj.resize(s.head.back());
  s.cursor.assign(s.head.begin(), s.head.end() - 1);
  for (std::size_t j = 0; j < n; ++j) {
    for (ResourceId rid : jobs_[j].resources) s.adj[s.cursor[rid]++] = j;
  }

  // Flood-fill the affected component(s) from the touched resources.
  s.res_in.assign(nr, 0);
  s.job_in.assign(n, 0);
  s.frontier.clear();
  for (ResourceId rid : touched) {
    if (!s.res_in[rid]) {
      s.res_in[rid] = 1;
      s.frontier.push_back(rid);
    }
  }
  while (!s.frontier.empty()) {
    const ResourceId r = s.frontier.back();
    s.frontier.pop_back();
    for (std::size_t e = s.head[r]; e < s.head[r + 1]; ++e) {
      const std::size_t j = s.adj[e];
      if (s.job_in[j]) continue;
      s.job_in[j] = 1;
      for (ResourceId rid : jobs_[j].resources) {
        if (!s.res_in[rid]) {
          s.res_in[rid] = 1;
          s.frontier.push_back(rid);
        }
      }
    }
  }

  // Ascending-index member lists keep the freeze/accumulation order equal
  // to the global solver's, independent of flood-fill visit order.
  s.res_ids.clear();
  s.job_ids.clear();
  for (std::size_t r = 0; r < nr; ++r) {
    if (s.res_in[r]) s.res_ids.push_back(r);
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (s.job_in[j]) s.job_ids.push_back(j);
  }

  // Progressive water-filling restricted to the component (same arithmetic
  // as compute_maxmin_rates over the affected subset).
  s.rem_cap.assign(nr, 0.0);
  s.unfrozen_on.assign(nr, 0);
  for (ResourceId r : s.res_ids) s.rem_cap[r] = resources_[r].capacity;
  for (std::size_t j : s.job_ids) {
    for (ResourceId rid : jobs_[j].resources) ++s.unfrozen_on[rid];
  }
  s.frozen.assign(n, 0);
  std::size_t frozen_count = 0;
  while (frozen_count < s.job_ids.size()) {
    double best_share = std::numeric_limits<double>::infinity();
    ResourceId best_r = nr;
    for (ResourceId r : s.res_ids) {
      if (s.unfrozen_on[r] == 0) continue;
      const double share = s.rem_cap[r] / s.unfrozen_on[r];
      if (share < best_share) {
        best_share = share;
        best_r = r;
      }
    }
    if (best_r == nr) break;  // remaining jobs use no resources
    best_share = std::max(0.0, best_share);
    for (std::size_t j : s.job_ids) {
      if (s.frozen[j]) continue;
      const auto& rs = jobs_[j].resources;
      if (std::find(rs.begin(), rs.end(), best_r) == rs.end()) continue;
      s.frozen[j] = 1;
      ++frozen_count;
      jobs_[j].rate = best_share;
      for (ResourceId rid : rs) {
        s.rem_cap[rid] = std::max(0.0, s.rem_cap[rid] - best_share);
        --s.unfrozen_on[rid];
      }
    }
  }

  // Rebuild used_rate for affected resources only; every job crossing them
  // is affected, so the ascending-index accumulation matches the global one.
  for (ResourceId r : s.res_ids) resources_[r].used_rate = 0.0;
  for (std::size_t j : s.job_ids) {
    for (ResourceId rid : jobs_[j].resources) resources_[rid].used_rate += jobs_[j].rate;
  }

  flows_resolved_ += s.job_ids.size();
  flows_avoided_ += n - s.job_ids.size();
}

void FluidSystem::schedule_completion() {
  double min_finish = std::numeric_limits<double>::infinity();
  for (const auto& job : jobs_) {
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
  } else if (!jobs_.empty()) {
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
///      rate that is already no larger).
void FluidSystem::verify_allocation() const {
  constexpr double kRel = 1e-9;
  std::vector<double> crossing_sum(resources_.size(), 0.0);
  for (const auto& job : jobs_) {
    CYNTHIA_CHECK(std::isfinite(job.rate) && job.rate >= 0.0, "job ", job.id,
                  " has rate ", job.rate);
    for (ResourceId rid : job.resources) crossing_sum[rid] += job.rate;
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
  for (const auto& job : jobs_) {
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
  // The completion slack in reallocate() guarantees progress: at least one
  // job must have drained by the time this event fires, or the simulation
  // would spin on zero-volume completion events forever.
  CYNTHIA_CHECK(std::any_of(jobs_.begin(), jobs_.end(),
                            [](const Job& j) { return j.remaining <= kEpsilonVolume; }),
                "completion event fired with no job drained");
  // Move every finished job out (ties complete together) in one pass that
  // keeps the survivors in order: jobs_ order is the solve order, which
  // bit-exactness rests on. Callbacks then observe a consistent system and
  // may start new jobs.
  std::vector<Job> finished;
  pending_.clear();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    Job& job = jobs_[i];
    if (job.remaining <= kEpsilonVolume) {
      pending_.insert(pending_.end(), job.resources.begin(), job.resources.end());
      finished.push_back(std::move(job));
    } else {
      if (kept != i) jobs_[kept] = std::move(job);
      ++kept;
    }
  }
  jobs_.resize(kept);
  // One solve for the whole instant: starts, cancels and capacity changes
  // made by the callbacks only add their resources to pending_.
  batching_ = true;
  const double now = sim_->now();
  try {
    for (auto& job : finished) {
      if (job.on_complete) job.on_complete(now);
    }
  } catch (...) {
    solve_batch();
    throw;
  }
  solve_batch();
}

void FluidSystem::solve_batch() {
  batching_ = false;
  reallocate(pending_);
}

}  // namespace cynthia::sim
