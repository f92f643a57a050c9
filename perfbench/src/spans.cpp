#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench {

SpanLog::Scope::Scope(SpanLog& log, const char* name) {
  if (!log.enabled_) return;
  log_ = &log;
  index_ = static_cast<int>(log.spans_.size());
  Span span;
  span.name = name;
  span.parent = log.open_.empty() ? -1 : log.open_.back();
  span.start_s = log.now_s();
  log.spans_.push_back(span);
  log.open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->spans_[static_cast<std::size_t>(index_)].end_s = log_->now_s();
  log_->open_.pop_back();
}

std::map<std::string, SpanLog::Totals> SpanLog::totals(double from_s) const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_s[static_cast<std::size_t>(span.parent)] +=
          span.end_s - span.start_s;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.start_s < from_s) continue;
    Totals& t = out[span.name];
    const double duration = span.end_s - span.start_s;
    t.total_s += duration;
    t.self_s += duration - child_s[i];
  }
  return out;
}

double SpanLog::covered_s(double from_s, double to_s) const {
  double covered = 0.0;
  for (const Span& span : spans_) {
    if (span.parent >= 0) continue;
    const double begin = std::max(span.start_s, from_s);
    const double end = std::min(span.end_s, to_s);
    if (end > begin) covered += end - begin;
  }
  return covered;
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"spans\": [\n";
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(line, sizeof line,
                  "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                  "\"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                  i, span.name, span.parent, span.start_s, span.end_s,
                  i + 1 < spans_.size() ? "," : "");
    os << line;
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
