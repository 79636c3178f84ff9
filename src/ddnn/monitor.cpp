#include "ddnn/monitor.hpp"

#include "ddnn/trainer.hpp"

namespace cynthia::ddnn {

CarriedSchedule carry_schedule(const faults::FaultSchedule& schedule,
                               const std::vector<FaultEventOutcome>& outcomes,
                               double cut_seconds, double gap_seconds, int n_workers, int n_ps,
                               bool carry_active) {
  CarriedSchedule out;
  const auto& events = schedule.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const faults::FaultSpec& spec = events[i];
    const int limit = spec.on_ps ? n_ps : n_workers;
    if (spec.target >= limit) continue;  // reshaped out of the cluster
    const FaultEventOutcome* outcome = i < outcomes.size() ? &outcomes[i] : nullptr;
    if (outcome != nullptr && outcome->fired) {
      if (outcome->recovered_at >= 0.0) continue;  // healed before the cut
      if (!carry_active) continue;  // the continuation runs on fresh hardware
      // Active at the cut: remaining recovery on the continuation clock.
      double remaining = -1.0;
      if (spec.recovery_seconds >= 0.0) {
        remaining = outcome->injected_at + spec.recovery_seconds - cut_seconds - gap_seconds;
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
    const double shifted = spec.time_seconds - cut_seconds - gap_seconds;
    if (shifted <= 0.0) continue;
    faults::FaultSpec carried = spec;
    carried.time_seconds = shifted;
    out.schedule.add(carried);
  }
  return out;
}

}  // namespace cynthia::ddnn
