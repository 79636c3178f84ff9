// Test-only adapter: a FluidSystem whose jobs each complete through their
// own closure. FluidSystem hands every completion to one handler with the
// job's tag; here the tag indexes a table of closures, so tests can keep
// writing `start_job(volume, {r}, [&](double t) { ... })`. The table only
// grows, which is fine at test scale.
#pragma once

#include <functional>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "sim/fluid.hpp"
#include "sim/simulator.hpp"

namespace cynthia::sim::test {

class ClosureFluid : public FluidSystem {
 public:
  using Callback = std::function<void(double)>;

  explicit ClosureFluid(Simulator& sim)
      : FluidSystem(sim, [this](JobId, JobTag tag, double t) { fire(tag, t); }) {}

  /// `on_complete(finish_time)` runs when the job drains; null runs nothing.
  JobId start_job(double volume, std::span<const ResourceId> resources, Callback on_complete) {
    callbacks_.push_back(std::move(on_complete));
    return FluidSystem::start_job(volume, resources, callbacks_.size() - 1);
  }
  JobId start_job(double volume, std::initializer_list<ResourceId> resources,
                  Callback on_complete) {
    return start_job(volume, std::span<const ResourceId>(resources.begin(), resources.size()),
                     std::move(on_complete));
  }

 private:
  std::vector<Callback> callbacks_;

  void fire(JobTag tag, double t) {
    // Moved out first: the closure may start jobs, which grows the table.
    const Callback on_complete = std::move(callbacks_[tag]);
    if (on_complete) on_complete(t);
  }
};

}  // namespace cynthia::sim::test
