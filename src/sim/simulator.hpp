// Discrete-event simulation clock.
//
// Single-threaded by design: one Simulator per experiment run, owned by one
// thread, so no locking is needed here.
#pragma once

#include <functional>
#include <limits>

#include "sim/event_queue.hpp"

namespace cynthia::sim {

class Simulator {
 public:
  [[nodiscard]] double now() const { return now_; }

  /// Schedules `action` at absolute time `time` (>= now).
  EventId at(double time, std::function<void()> action);

  /// Schedules `action` `delay` seconds from now (delay >= 0).
  EventId after(double delay, std::function<void()> action);

  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Restarts the clock at 0 on an empty queue (EventQueue::clear), so one
  /// simulator can run many independent walks without reallocating.
  void restart() {
    queue_.clear();
    now_ = 0.0;
  }

  /// Fires the next event; returns false when the queue is drained.
  bool step();

  /// Runs until the queue drains or `max_events` fire (runaway guard).
  /// Returns the number of events fired.
  std::size_t run(std::size_t max_events = kDefaultMaxEvents);

  /// Runs events with time <= `until`, then advances the clock to `until`.
  std::size_t run_until(double until, std::size_t max_events = kDefaultMaxEvents);

  [[nodiscard]] bool idle() const { return queue_.empty(); }

  /// Total events fired over the simulator's lifetime (telemetry).
  [[nodiscard]] std::size_t events_fired() const { return events_fired_; }

  static constexpr std::size_t kDefaultMaxEvents = 200'000'000;

 private:
  EventQueue queue_;
  double now_ = 0.0;
  std::size_t events_fired_ = 0;
};

}  // namespace cynthia::sim
