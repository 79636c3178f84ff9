// Time-ordered event queue with stable tie-breaking and O(log n)
// cancellation via lazy deletion.
//
// Determinism matters: two events at the same timestamp fire in scheduling
// order (FIFO), so simulation runs are bit-reproducible across platforms.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

namespace cynthia::sim {

/// `generation << 32 | slot`; never 0, so 0 can mean "no event".
using EventId = std::uint64_t;

/// Priority queue of (time, seq, action) with cancellation.
///
/// Pending events are tracked by slot, not in a set: each pending event owns
/// a slot, and its id carries the slot's generation. Firing or cancelling an
/// event bumps the generation and frees the slot for reuse, so an old id
/// never matches (and never cancels) the event that later takes its slot,
/// and a warm queue allocates nothing per event.
class EventQueue {
 public:
  /// Schedules `action` at absolute `time`; returns a handle for cancel().
  EventId schedule(double time, std::function<void()> action);

  /// Cancels a pending event; returns false if already fired/cancelled.
  bool cancel(EventId id);

  /// Drops every event, retiring the pending ids, and restarts the pop-order
  /// check: the queue behaves as new but keeps its storage.
  void clear();

  [[nodiscard]] bool empty() const { return pending_ == 0; }
  [[nodiscard]] std::size_t pending() const { return pending_; }
  [[nodiscard]] bool is_pending(EventId id) const;

  /// Time of the next live event; throws std::logic_error when empty.
  [[nodiscard]] double next_time() const;

  /// Pops and returns the next live event, advancing past any cancelled
  /// entries. Throws std::logic_error when empty.
  struct Fired {
    double time;
    EventId id;
    std::function<void()> action;
  };
  Fired pop();

 private:
  struct Entry {
    double time;
    std::uint64_t seq;  ///< monotone scheduling order; breaks timestamp ties
    EventId id;
    std::function<void()> action;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      // Exact comparison is deliberate: equal timestamps must be recognized
      // as ties so the seq number decides, or FIFO order (and with it
      // bit-reproducibility) is lost. cynthia-lint: allow(FLT-001)
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;  // FIFO among equal timestamps
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  /// Per slot, the generation its next (or current pending) event carries;
  /// starts at 1 so no id is 0.
  std::vector<std::uint32_t> generation_;
  std::vector<std::uint32_t> free_slots_;  ///< slots with no pending event
  std::size_t pending_ = 0;                ///< events scheduled, not yet fired/cancelled
  std::uint64_t next_seq_ = 0;

  // Last popped (time, seq), for the pop-order invariant check.
  double last_pop_time_ = -std::numeric_limits<double>::infinity();
  std::uint64_t last_pop_seq_ = 0;

  /// Ends the pending event `id`: bumps its slot's generation and frees the
  /// slot (a slot whose generation would wrap to 0 is never reused).
  void retire(EventId id);
  void drop_cancelled();
};

}  // namespace cynthia::sim
