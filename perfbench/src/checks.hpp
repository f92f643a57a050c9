// Correctness checks computed apart from the program. They run outside the
// measured region; each takes its inputs as plain data so that the
// benchmark's self-test can feed it a perturbed input and see it fail.
#pragma once

#include <array>
#include <string>
#include <vector>

namespace perfbench {

/// Exact MVA for a closed network of load-dependent stations with a think
/// delay, in the textbook form (Reiser & Lavenberg), computed in long
/// double: `rates[s][j-1]` is station s's service rate with j jobs
/// present, extended with its last value. Returns X(n) for
/// n = 1..population plus the response and residence times at
/// `population`.
struct TextbookMva {
  std::vector<double> throughput;  // X(n), n = 1..population
  double response_s = 0.0;         // R(population)
  std::vector<double> residence_s; // per station, at population
};
TextbookMva textbook_mva(const std::vector<std::vector<double>>& rates,
                         double think_s, int population);

/// (a) The program's ClosedNetwork::solve and throughput_curve against
/// textbook_mva on two-station networks with think time at 150, 400 and
/// 1000 jobs (relative error <= 1e-9), plus Little's law X(R+Z) = N on
/// both. `perturb` scales one station of the textbook input by 1 + 1e-6.
bool check_mva(bool perturb, std::string* detail);

/// Largest relative error of the program's throughput_curve against
/// textbook_mva on a two-station network that saturates below its 1000
/// jobs. The marginal-probability recursion takes P(0 jobs) as one minus
/// the other probabilities, which cancels badly at the saturation knee;
/// reported as a per-layer metric, not gated.
double mva_knee_error();

/// (b) The interactive response-time law bounds throughput: X <= N / Z.
bool within_interactive_bound(double throughput_rps, int population,
                              double think_s);

/// (c) The paper's Table-1 ranges, held here independently of the
/// program's parameter catalog.
inline constexpr std::array<std::array<int, 2>, 8> kTable1Ranges = {{
    {50, 600}, {1, 21}, {5, 85}, {15, 95},
    {50, 600}, {1, 35}, {5, 85}, {15, 95},
}};
bool within_table1(const std::vector<int>& values);

/// (e) Change one mantissa digit of the last hex float in a serialized state,
/// so a save -> load -> save round trip of the result no longer matches
/// the original bytes.
std::string perturb_serialized(std::string text);

/// Self-test: every check passes on its true input and fails on a
/// perturbed one. Returns the number of failed expectations.
int self_test();

}  // namespace perfbench
