#include "telemetry/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>

namespace cynthia::telemetry {

namespace {

/// JSON string escaping for names/categories/track labels.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Simulation seconds -> trace_event microseconds.
std::string micros(double seconds) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", seconds * 1e6);
  return buf;
}

}  // namespace

int Tracer::track_id(const std::string& track) {
  auto it = track_ids_.find(track);
  if (it != track_ids_.end()) return it->second;
  const int id = static_cast<int>(tracks_.size());
  tracks_.push_back(track);
  track_ids_.emplace(track, id);
  return id;
}

bool Tracer::admit() {
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return false;
  }
  return true;
}

void Tracer::span(const std::string& track, std::string name, std::string category, double t0,
                  double t1) {
  owner_.check("Tracer");
  if (!admit()) return;
  TraceEvent e;
  e.kind = TraceEvent::Kind::Span;
  e.track = track_id(track);
  e.name = std::move(name);
  e.category = std::move(category);
  e.start = offset_ + t0;
  e.duration = std::max(0.0, t1 - t0);
  events_.push_back(std::move(e));
}

void Tracer::instant(const std::string& track, std::string name, std::string category, double t) {
  owner_.check("Tracer");
  if (!admit()) return;
  TraceEvent e;
  e.kind = TraceEvent::Kind::Instant;
  e.track = track_id(track);
  e.name = std::move(name);
  e.category = std::move(category);
  e.start = offset_ + t;
  events_.push_back(std::move(e));
}

double Tracer::span_seconds(const std::string& track, const std::string& name) const {
  auto it = track_ids_.find(track);
  if (it == track_ids_.end()) return 0.0;
  double total = 0.0;
  for (const auto& e : events_) {
    if (e.kind == TraceEvent::Kind::Span && e.track == it->second && e.name == name) {
      total += e.duration;
    }
  }
  return total;
}

void Tracer::write_chrome_json(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ',';
    first = false;
  };
  sep();
  os << R"({"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"cynthia"}})";
  for (std::size_t tid = 0; tid < tracks_.size(); ++tid) {
    sep();
    os << R"({"name":"thread_name","ph":"M","pid":1,"tid":)" << tid
       << R"(,"args":{"name":")" << json_escape(tracks_[tid]) << "\"}}";
  }
  for (const auto& e : events_) {
    sep();
    os << "{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\"" << json_escape(e.category)
       << "\",\"pid\":1,\"tid\":" << e.track << ",\"ts\":" << micros(e.start);
    if (e.kind == TraceEvent::Kind::Span) {
      os << ",\"ph\":\"X\",\"dur\":" << micros(e.duration);
    } else {
      os << ",\"ph\":\"i\",\"s\":\"t\"";
    }
    os << '}';
  }
  os << "]}";
}

void Tracer::write_chrome_json_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("Tracer: cannot open " + path);
  write_chrome_json(out);
}

}  // namespace cynthia::telemetry
