// rac_perfbench: the repository benchmark.
//
//   rac_perfbench --workload <paper-contexts|flash-day|fleet> --seed <n>
//                 --seconds <s> --trace <0|1> [--perturb <check>]
//   rac_perfbench --self-test
//
// Runs one workload on one thread and prints, as its last line, one JSON
// object: whether every correctness check passed, the operations (managed
// intervals) attempted and failed, and the metrics of the mode -- the
// end-to-end metrics untraced, the per-layer metrics with --trace 1. A
// traced run also writes its spans to .bench_out/spans-<workload>-<seed>.json
// under the working directory.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "checks.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Args;

const perfbench::Clock::time_point kProcessStart = perfbench::Clock::now();

int usage(const char* why) {
  std::cerr << "rac_perfbench: " << why
            << "\nusage: rac_perfbench --workload <paper-contexts|flash-day|"
               "fleet> --seed <n> --seconds <s> --trace <0|1> "
               "[--perturb <mva|bound|ranges|static|checkpoint|sink>]\n"
               "       rac_perfbench --self-test\n";
  return 2;
}

bool parse(int argc, char** argv, Args& args, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else if (flag == "--perturb") {
        args.perturb = value;
      } else {
        error = "unknown flag " + flag;
        return false;
      }
    } catch (const std::exception&) {
      error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (args.workload.empty()) error = "--workload is required";
  if (!(args.seconds > 0.0)) error = "--seconds must be positive";
  return error.empty();
}

void print_result(const perfbench::Outcome& outcome) {
  bool finite = true;
  std::string metrics;
  for (const perfbench::Metric& m : outcome.metrics) {
    char value[64];
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof value, "%.17g", m.value);
    } else {
      std::snprintf(value, sizeof value, "null");
      finite = false;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  std::cout << "{\"correct\": "
            << (outcome.correct() && finite ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  // One worker thread throughout, and the program's own profiler off until
  // a traced region switches it on.
  setenv("RAC_THREADS", "1", 1);
  rac::obs::set_profiling(false);

  if (argc == 2 && std::string(argv[1]) == "--self-test") {
    const int failures = perfbench::self_test();
    std::cout << (failures == 0 ? "self-test passed" : "self-test FAILED")
              << "\n";
    return failures == 0 ? 0 : 1;
  }

  Args args;
  std::string error;
  if (!parse(argc, argv, args, error)) return usage(error.c_str());

  perfbench::SpanLog spans(kProcessStart);
  spans.set_enabled(args.trace);
  rac::obs::Registry registry;
  perfbench::RunContext run{args, kProcessStart, &spans, &registry};
  perfbench::Outcome outcome;
  try {
    if (!perfbench::run_single_agent(run, outcome) &&
        !perfbench::run_fleet(run, outcome)) {
      return usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "rac_perfbench: " << e.what() << "\n";
    return 1;
  }

  if (args.trace) {
    const std::string dir = ".bench_out";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = dir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    if (ec || !spans.write_json(path)) {
      std::cerr << "rac_perfbench: cannot write " << path << "\n";
      return 1;
    }
    std::cerr << "spans written to " << path << "\n";
  }
  for (const std::string& failure : outcome.check_failures) {
    std::cout << "FAILED CHECK: " << failure << "\n";
  }
  print_result(outcome);
  return 0;
}
