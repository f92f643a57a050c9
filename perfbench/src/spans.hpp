// The benchmark's own span log: one span per call into a layer of the
// program, recorded by the benchmark's files around that call (name,
// start, end and the enclosing span). Spans are kept in memory while the
// benchmark runs and written out when it ends. Recording is off unless
// the run is a traced run; a disabled log costs one branch per call.
//
// Everything the benchmark times runs on one thread, so spans nest
// strictly and a span's self time is its duration minus the durations of
// its direct children.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    const char* name = "";
    int parent = -1;  // index of the enclosing span, -1 at top level
    double start_s = 0.0;  // seconds since the log's origin
    double end_s = 0.0;
  };
  struct Totals {
    double total_s = 0.0;
    double self_s = 0.0;
  };

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  double now_s() const { return seconds_between(origin_, Clock::now()); }

  /// Opens a span for its lifetime when the log is enabled. `name` must
  /// outlive the log (string literals).
  class Scope {
   public:
    Scope(SpanLog& log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_ = nullptr;  // null when the log was disabled
    int index_ = -1;
  };

  /// Per-name total duration and self time of the spans that start at or
  /// after `from_s`.
  std::map<std::string, Totals> totals(double from_s = 0.0) const;

  /// Seconds of [from_s, to_s] covered by top-level spans.
  double covered_s(double from_s, double to_s) const;

  /// Write every span as JSON to `path`; false when the file cannot be
  /// written.
  bool write_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
