// Simulation-time tracer: typed spans and instant events on named tracks.
//
// Records what each simulated actor (worker docker, PS docker, node,
// orchestrator) was doing and when, in *simulation* seconds, and exports
// the Chrome trace_event JSON format — drop the file into chrome://tracing
// or https://ui.perfetto.dev to scrub through a training run.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace cynthia::telemetry {

/// One recorded trace event. Spans are closed intervals [start, start+dur];
/// instants mark a point (a join failure, an SSP park).
struct TraceEvent {
  enum class Kind { Span, Instant };

  Kind kind = Kind::Span;
  int track = 0;         ///< index into Tracer::tracks()
  std::string name;      ///< e.g. "compute", "barrier", "Booting"
  std::string category;  ///< e.g. "trainer", "node", "orch"
  double start = 0.0;    ///< simulation seconds (clock offset applied)
  double duration = 0.0; ///< spans only
};

/// Single-owner, like the metrics registry: the tracer belongs to the thread
/// that constructed it, and every recording call checks the caller against
/// that thread (util::OwnerThread), so cross-thread misuse fails loudly in
/// CYNTHIA_INVARIANTS builds instead of silently corrupting traces.
class Tracer {
 public:
  /// Records a span on `track` covering [t0, t1] in simulation seconds.
  /// Degenerate spans (t1 <= t0) are clamped to zero duration.
  void span(const std::string& track, std::string name, std::string category, double t0,
            double t1);

  /// Records an instant event at time `t`.
  void instant(const std::string& track, std::string name, std::string category, double t);

  /// Offset added to all subsequently recorded times. Lets phases measured
  /// on separate simulation clocks (provisioning, then training) compose
  /// into one sequential timeline.
  void set_time_offset(double seconds) {
    owner_.check("Tracer");
    offset_ = seconds;
  }
  [[nodiscard]] double time_offset() const { return offset_; }

  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }
  /// Track names in first-use order; TraceEvent::track indexes this.
  [[nodiscard]] const std::vector<std::string>& tracks() const { return tracks_; }
  /// Events discarded after the kMaxEvents safety cap was hit.
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

  /// Sum of span durations with the given name on the given track
  /// (e.g. total barrier wait of worker "wk1.cpu").
  [[nodiscard]] double span_seconds(const std::string& track, const std::string& name) const;

  /// Chrome trace_event JSON: one object with a "traceEvents" array of
  /// complete ("X") and instant ("i") events plus thread-name metadata;
  /// timestamps in microseconds as the format requires.
  void write_chrome_json(std::ostream& os) const;
  void write_chrome_json_file(const std::string& path) const;

  /// Runaway-instrumentation guard: further events are counted, not stored.
  static constexpr std::size_t kMaxEvents = 4'000'000;

 private:
  std::vector<TraceEvent> events_;
  std::vector<std::string> tracks_;
  std::map<std::string, int> track_ids_;
  double offset_ = 0.0;
  std::size_t dropped_ = 0;
  util::OwnerThread owner_;

  int track_id(const std::string& track);
  bool admit();
};

}  // namespace cynthia::telemetry
