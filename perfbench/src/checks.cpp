#include "checks.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "core/snapshot.hpp"
#include "queueing/mva.hpp"

namespace perfbench {

namespace {

double rate_at(const std::vector<double>& rates, int jobs) {
  const std::size_t i = std::min<std::size_t>(
      static_cast<std::size_t>(jobs) - 1, rates.size() - 1);
  return rates[i];
}

double relative_error(double a, double b) {
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return scale == 0.0 ? 0.0 : std::fabs(a - b) / scale;
}

// A VM as the analytic model builds one: `cores` servers whose per-job
// demand inflates with concurrency (thrashing), capped at `limit` served
// jobs.
std::vector<double> vm_rates(int cores, double demand_s, double overhead,
                             int limit, int population) {
  std::vector<double> rates;
  for (int j = 1; j <= population; ++j) {
    const int served = std::min(j, limit);
    rates.push_back(std::min(served, cores) /
                    (demand_s * (1.0 + overhead * served)));
  }
  return rates;
}

}  // namespace

TextbookMva textbook_mva(const std::vector<std::vector<double>>& rates,
                         double think_s, int population) {
  using Real = long double;
  const std::size_t stations = rates.size();
  // p[s][j] = P(j jobs at station s) at the previous population.
  std::vector<std::vector<Real>> p(stations, std::vector<Real>{1.0L});
  std::vector<Real> residence(stations, 0.0L);
  TextbookMva out;
  Real response = 0.0L;
  for (int n = 1; n <= population; ++n) {
    response = 0.0L;
    for (std::size_t s = 0; s < stations; ++s) {
      Real r = 0.0L;
      for (int j = 1; j <= n; ++j) {
        r += j / static_cast<Real>(rate_at(rates[s], j)) *
             p[s][static_cast<std::size_t>(j) - 1];
      }
      residence[s] = r;
      response += r;
    }
    const Real x = n / (think_s + response);
    for (std::size_t s = 0; s < stations; ++s) {
      std::vector<Real> next(static_cast<std::size_t>(n) + 1, 0.0L);
      Real busy = 0.0L;
      for (int j = 1; j <= n; ++j) {
        next[static_cast<std::size_t>(j)] =
            x / static_cast<Real>(rate_at(rates[s], j)) *
            p[s][static_cast<std::size_t>(j) - 1];
        busy += next[static_cast<std::size_t>(j)];
      }
      next[0] = std::max(0.0L, 1.0L - busy);
      p[s] = std::move(next);
    }
    out.throughput.push_back(static_cast<double>(x));
  }
  out.response_s = static_cast<double>(response);
  for (const Real r : residence) out.residence_s.push_back(static_cast<double>(r));
  return out;
}

namespace {

rac::queueing::ClosedNetwork program_network(
    const std::vector<std::vector<double>>& rates, double think_s) {
  rac::queueing::ClosedNetwork network(think_s);
  network.add_station({"web", 1.0, rates[0]});
  network.add_station({"appdb", 1.0, rates[1]});
  return network;
}

}  // namespace

bool check_mva(bool perturb, std::string* detail) {
  constexpr double kTolerance = 1e-9;
  constexpr double kThinkS = 7.0;
  bool ok = true;
  std::ostringstream notes;
  for (const int population : {150, 400, 1000}) {
    // Both stations stay below saturation up to the population, where
    // the recursion is well conditioned in double precision (see
    // mva_knee_error for the saturated case).
    std::vector<std::vector<double>> rates = {
        vm_rates(2, 0.004, 0.0008, population, population),
        vm_rates(4, 0.011, 0.0015, 300, population)};
    const rac::queueing::ClosedNetwork network = program_network(rates, kThinkS);
    if (perturb) {
      for (double& rate : rates[1]) rate *= 1.0 + 1e-6;
    }
    const TextbookMva reference = textbook_mva(rates, kThinkS, population);

    const rac::queueing::MvaResult solved = network.solve(population);
    const std::vector<double> curve = network.throughput_curve(population);
    double worst = relative_error(solved.throughput, reference.throughput.back());
    worst = std::max(worst, relative_error(solved.response_time,
                                           reference.response_s));
    for (std::size_t s = 0; s < 2; ++s) {
      worst = std::max(worst, relative_error(solved.stations[s].residence_time,
                                             reference.residence_s[s]));
    }
    for (std::size_t n = 0; n < curve.size(); ++n) {
      worst = std::max(worst, relative_error(curve[n], reference.throughput[n]));
    }
    const double little_program =
        relative_error(solved.little_check(), population);
    const double little_reference = relative_error(
        reference.throughput.back() * (reference.response_s + kThinkS),
        population);
    const bool pass = curve.size() == static_cast<std::size_t>(population) &&
                      worst <= kTolerance && little_program <= kTolerance &&
                      little_reference <= kTolerance;
    notes << "N=" << population << " max rel err " << worst << " little "
          << little_program << (pass ? "" : " FAIL") << "; ";
    ok = ok && pass;
  }
  if (detail != nullptr) *detail = notes.str();
  return ok;
}

double mva_knee_error() {
  constexpr int kPopulation = 1000;
  constexpr double kThinkS = 7.0;
  const std::vector<std::vector<double>> rates = {
      vm_rates(2, 0.006, 0.0008, kPopulation, kPopulation),
      vm_rates(4, 0.045, 0.0015, 300, kPopulation)};
  const std::vector<double> curve =
      program_network(rates, kThinkS).throughput_curve(kPopulation);
  const TextbookMva reference = textbook_mva(rates, kThinkS, kPopulation);
  double worst = 0.0;
  for (std::size_t n = 0; n < curve.size(); ++n) {
    worst = std::max(worst, relative_error(curve[n], reference.throughput[n]));
  }
  return worst;
}

bool within_interactive_bound(double throughput_rps, int population,
                              double think_s) {
  return std::isfinite(throughput_rps) && throughput_rps >= 0.0 &&
         throughput_rps <= population / think_s * (1.0 + 1e-12);
}

bool within_table1(const std::vector<int>& values) {
  if (values.size() != kTable1Ranges.size()) return false;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] < kTable1Ranges[i][0] || values[i] > kTable1Ranges[i][1]) {
      return false;
    }
  }
  return true;
}

std::string perturb_serialized(std::string text) {
  // The last mantissa digit before a hex-float exponent ("1.8p+3").
  for (std::size_t at = text.size(); at-- > 2;) {
    const bool exponent = text[at] == 'p' && at + 1 < text.size() &&
                          (text[at + 1] == '+' || text[at + 1] == '-');
    if (exponent && std::isxdigit(static_cast<unsigned char>(text[at - 1]))) {
      char& digit = text[at - 1];
      digit = digit == '1' ? '3' : '1';
      return text;
    }
  }
  return text + " ";
}

int self_test() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };
  std::string detail;
  expect(check_mva(false, &detail), "(a) MVA matches the textbook recursion");
  expect(!check_mva(true, &detail), "(a) a skewed rate table is caught");

  expect(within_interactive_bound(55.0, 400, 7.0), "(b) X <= N/Z holds");
  expect(!within_interactive_bound(58.0, 400, 7.0),
         "(b) X above N/Z is caught");
  expect(!within_interactive_bound(std::nan(""), 400, 7.0),
         "(b) a non-finite throughput is caught");

  std::vector<int> defaults = {150, 15, 5, 15, 200, 30, 5, 50};
  expect(within_table1(defaults), "(c) Table-1 defaults are in range");
  defaults[3] = 96;
  expect(!within_table1(defaults), "(c) MaxSpareServers 96 is caught");
  defaults[3] = 15;
  defaults[5] = 0;
  expect(!within_table1(defaults), "(c) Session timeout 0 is caught");

  // (e) on a real serialized learner state: an untouched snapshot
  // round-trips, a perturbed one does not reproduce the original bytes.
  {
    rac::core::AgentSnapshot snapshot;
    snapshot.online_epsilon = 0.05;
    std::ostringstream first;
    rac::core::save_agent_snapshot(first, snapshot);
    const auto resave = [](const std::string& text) {
      std::istringstream in(text);
      std::ostringstream out;
      rac::core::save_agent_snapshot(out,
                                     rac::core::load_agent_snapshot(in));
      return out.str();
    };
    expect(resave(first.str()) == first.str(),
           "(e) save -> load -> save is byte-identical");
    expect(resave(perturb_serialized(first.str())) != first.str(),
           "(e) a perturbed state is caught");
  }
  return failures;
}

}  // namespace perfbench
