// Shared types of the repository benchmark: command-line arguments, the
// result a workload hands back, and small numeric helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Name of one correctness check whose input is deliberately perturbed
  /// (the benchmark's own tests use it to show the check can fail).
  std::string perturb;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the operation counts, the metric set of its mode
/// and the verdict of every correctness check.
struct Outcome {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> check_failures;
  std::vector<Metric> metrics;

  bool correct() const { return check_failures.empty(); }
  /// Record a check's verdict; a failing check names itself on stderr.
  void check(bool ok, const std::string& what);
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Mean, median and 90th percentile (nearest rank) of a sample set.
double mean_of(const std::vector<double>& values);
double median_of(std::vector<double> values);
double p90_of(std::vector<double> values);

/// The whole rounds a run of `seconds` measures, for a workload whose
/// round takes about `round_seconds` on the reference host (see
/// README.md). The count depends on the arguments alone, never on how
/// fast this run goes, so every run of a workload does the same work.
inline int rounds_for(double seconds, double round_seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds / round_seconds)));
}

/// One line on stderr with where a run's time went.
void report_phases(double setup_s, double region_s, int rounds,
                   double verify_s);

/// Peak resident set size of this process so far, in MB (1e6 bytes).
double peak_rss_mb();

}  // namespace perfbench
