// Host-time span recorder for the end-to-end benchmark.
//
// The driver wraps every call it makes into a library layer in a Scope; each
// span keeps its name, start, end, parent span and the id of the operation
// (plan request, simulated run, service day) it belongs to. Spans stay in
// memory and are written once, as Chrome trace_event JSON, when the run ends
// (open the file in https://ui.perfetto.dev or chrome://tracing).
//
// A disabled recorder hands out inert scopes, so untraced runs pay one branch
// per call site and never read the clock for a span.
#pragma once

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

inline double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;   ///< "<layer>.<call>", e.g. "ddnn.train"
  double start = 0.0; ///< seconds since the recorder was created
  double end = 0.0;
  int parent = -1;    ///< index into SpanRecorder::spans(); -1 = root
  long request = -1;  ///< operation index; -1 = set-up
};

class SpanRecorder {
 public:
  class Scope {
   public:
    Scope(SpanRecorder* recorder, std::string name, long request)
        : recorder_(recorder), index_(recorder ? recorder->open(std::move(name), request) : -1) {}
    ~Scope() {
      if (recorder_ != nullptr) recorder_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

   private:
    SpanRecorder* recorder_;
    int index_;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span closed when the returned scope ends. `request` < 0
  /// inherits the enclosing span's operation id.
  [[nodiscard]] Scope scope(std::string name, long request = -1) {
    return Scope(enabled_ ? this : nullptr, std::move(name), request);
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Span duration minus the part of it its direct children cover.
  [[nodiscard]] std::vector<double> self_seconds() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].end - spans_[i].start;
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
    return self;
  }

  /// Chrome trace_event JSON: one complete ("X") event per span, in
  /// microseconds, with the operation id as an argument.
  void write_chrome_json(const std::string& path) const {
    std::filesystem::create_directories(std::filesystem::path(path).parent_path());
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string category = s.name.substr(0, s.name.find('.'));
      std::snprintf(buf, sizeof buf, "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f",
                    s.start * 1e6, (s.end - s.start) * 1e6);
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"cat\":\"" << category
          << "\"," << buf << ",\"args\":{\"request\":" << s.request << "}}";
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("cannot write trace " + path);
  }

 private:
  bool enabled_ = false;
  double origin_ = now_seconds();
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices

  int open(std::string name, long request) {
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.request = request >= 0 || s.parent < 0
                    ? request
                    : spans_[static_cast<std::size_t>(s.parent)].request;
    s.start = now_seconds() - origin_;
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }

  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end = now_seconds() - origin_;
    open_.pop_back();
  }
};

}  // namespace e2e
