#include "queueing/mva.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "util/contracts.hpp"

namespace rac::queueing {

namespace {

void validate_station_rates(const std::vector<double>& rates) {
  if (rates.empty()) {
    throw std::invalid_argument("ClosedNetwork: station has no rates");
  }
  for (double r : rates) {
    if (r <= 0.0) {
      throw std::invalid_argument("ClosedNetwork: non-positive service rate");
    }
  }
}

}  // namespace

Station make_queueing_station(std::string name, double service_rate,
                              double visit_ratio) {
  if (service_rate <= 0.0) {
    throw std::invalid_argument("make_queueing_station: rate must be > 0");
  }
  return Station{std::move(name), visit_ratio, {service_rate}};
}

Station make_multiserver_station(std::string name, int servers,
                                 double per_server_rate, int max_population,
                                 double visit_ratio) {
  if (servers < 1 || per_server_rate <= 0.0 || max_population < 1) {
    throw std::invalid_argument("make_multiserver_station: bad arguments");
  }
  std::vector<double> rates;
  const int table = std::min(servers, max_population);
  rates.reserve(static_cast<std::size_t>(table));
  for (int j = 1; j <= table; ++j) rates.push_back(j * per_server_rate);
  return Station{std::move(name), visit_ratio, std::move(rates)};
}

ClosedNetwork::ClosedNetwork(double think_time) : think_time_(think_time) {
  if (think_time < 0.0) {
    throw std::invalid_argument("ClosedNetwork: negative think time");
  }
}

const ClosedNetwork::Metrics& ClosedNetwork::metrics() const {
  if (metrics_.solves != nullptr) return metrics_;
  obs::Registry& reg = obs::registry_or_default(registry_);
  metrics_.solves = &reg.counter("queueing.mva.solves");
  metrics_.throughput_curves = &reg.counter("queueing.mva.throughput_curves");
  metrics_.recursion_steps = &reg.counter("queueing.mva.recursion_steps");
  metrics_.cache_hits = &reg.counter("queueing.mva.cache_hits");
  metrics_.station_steps.clear();
  for (const Station& station : stations_) {
    metrics_.station_steps.push_back(
        &reg.counter("queueing.mva.station_steps." + station.name));
  }
  return metrics_;
}

void ClosedNetwork::set_think_time(double think_time) {
  if (think_time < 0.0) {
    throw std::invalid_argument("ClosedNetwork: negative think time");
  }
  // Exact bitwise compare on purpose: an unchanged setting must not
  // invalidate the memoized solve.
  if (think_time == think_time_) return;
  think_time_ = think_time;
  invalidate();
}

std::size_t ClosedNetwork::add_station(Station station) {
  validate_station_rates(station.rates);
  if (station.visit_ratio <= 0.0) {
    throw std::invalid_argument("ClosedNetwork: non-positive visit ratio");
  }
  stations_.push_back(std::move(station));
  metrics_.solves = nullptr;
  invalidate();
  return stations_.size() - 1;
}

void ClosedNetwork::set_station_rates(std::size_t index,
                                      std::vector<double> rates) {
  if (index >= stations_.size()) {
    throw std::invalid_argument("set_station_rates: no such station");
  }
  validate_station_rates(rates);
  if (rates == stations_[index].rates) return;  // identical table: keep cache
  stations_[index].rates = std::move(rates);
  invalidate();
}

std::uint64_t ClosedNetwork::extend(int population) const {
  Cache& c = cache_;
  if (population <= c.solved) return 0;
  const std::size_t num_s = stations_.size();

  // Build (cold) or grow the per-station tables. The implicit last-value
  // extension of each rate table is applied here, once, so the inner loops
  // index flat arrays. Growing preserves the recursion state: marginal
  // probabilities beyond the solved population are exactly zero.
  if (c.per_station.size() != num_s) c.per_station.resize(num_s);
  if (c.capacity < population) {
    for (std::size_t s = 0; s < num_s; ++s) {
      StationCache& sc = c.per_station[s];
      const std::vector<double>& rates = stations_[s].rates;
      sc.rate.resize(static_cast<std::size_t>(population));
      sc.jr.resize(static_cast<std::size_t>(population));
      for (int j = c.capacity + 1; j <= population; ++j) {
        const std::size_t idx = std::min<std::size_t>(
            static_cast<std::size_t>(j) - 1, rates.size() - 1);
        sc.rate[static_cast<std::size_t>(j) - 1] = rates[idx];
        sc.jr[static_cast<std::size_t>(j) - 1] =
            static_cast<double>(j) / rates[idx];
      }
      sc.marginal.resize(static_cast<std::size_t>(population) + 1, 0.0);
      if (c.solved == 0) sc.marginal[0] = 1.0;
    }
    c.capacity = population;
  }
  const std::size_t pop = static_cast<std::size_t>(population);
  c.throughput.reserve(pop);
  c.response.reserve(pop);
  c.residence.reserve(pop * num_s);
  c.marginal0.reserve(pop * num_s);
  c.residence_scratch.resize(num_s);

  for (int n = c.solved + 1; n <= population; ++n) {
    // Residence times at population n from the marginals at n-1. jr[j-1]
    // is the precomputed j / mu(j) term, so each station's loop is a plain
    // dot product with the same summation order (and bit pattern) as the
    // textbook form. Stations are processed in pairs with independent
    // accumulator chains: the serial FP-add latency of one station's sum
    // hides the other's, roughly doubling throughput on two-station
    // networks, while each per-station sum keeps its exact order.
    double response = 0.0;
    std::size_t s = 0;
    for (; s + 1 < num_s; s += 2) {
      const StationCache& sc0 = c.per_station[s];
      const StationCache& sc1 = c.per_station[s + 1];
      const double* jr0 = sc0.jr.data();
      const double* m0 = sc0.marginal.data();
      const double* jr1 = sc1.jr.data();
      const double* m1 = sc1.marginal.data();
      double r0 = 0.0;
      double r1 = 0.0;
      for (int j = 0; j < n; ++j) {
        r0 += jr0[j] * m0[j];
        r1 += jr1[j] * m1[j];
      }
      const double res0 = stations_[s].visit_ratio * r0;
      const double res1 = stations_[s + 1].visit_ratio * r1;
      c.residence_scratch[s] = res0;
      c.residence_scratch[s + 1] = res1;
      response += res0;
      response += res1;
    }
    if (s < num_s) {
      const StationCache& sc = c.per_station[s];
      const double* jr = sc.jr.data();
      const double* m = sc.marginal.data();
      double r = 0.0;
      for (int j = 0; j < n; ++j) r += jr[j] * m[j];
      const double res = stations_[s].visit_ratio * r;
      c.residence_scratch[s] = res;
      response += res;
    }
    const double throughput =
        static_cast<double>(n) / (think_time_ + response);

    // Update marginal probabilities for population n (in place, from high j
    // to low so that m[j-1] still refers to population n-1). The division
    // stays per step: tv / rate * m matches the original evaluation order
    // bit for bit, a hoisted reciprocal would not. Same pairwise
    // interleaving as above; the per-station divide/add chains stay
    // independent and bit-exact.
    s = 0;
    for (; s + 1 < num_s; s += 2) {
      StationCache& sc0 = c.per_station[s];
      StationCache& sc1 = c.per_station[s + 1];
      const double* rate0 = sc0.rate.data();
      const double* rate1 = sc1.rate.data();
      double* m0 = sc0.marginal.data();
      double* m1 = sc1.marginal.data();
      const double tv0 = throughput * stations_[s].visit_ratio;
      const double tv1 = throughput * stations_[s + 1].visit_ratio;
      double tail0 = 0.0;
      double tail1 = 0.0;
#if defined(__SSE2__)
      // Pack the pair's divisions into one divpd: IEEE division and
      // multiplication are exact per lane, so each lane reproduces the
      // scalar tv / rate * m bit pattern while the divider unit retires
      // two stations' steps per issue. (Intrinsics also pin the mul+add
      // sequence: no FMA contraction can creep in and change bits.)
      {
        const __m128d tv_v = _mm_set_pd(tv1, tv0);
        __m128d tail_v = _mm_setzero_pd();
        for (int j = n; j >= 1; --j) {
          const __m128d rate_v = _mm_set_pd(rate1[j - 1], rate0[j - 1]);
          const __m128d m_v = _mm_set_pd(m1[j - 1], m0[j - 1]);
          const __m128d p = _mm_mul_pd(_mm_div_pd(tv_v, rate_v), m_v);
          _mm_storel_pd(&m0[static_cast<std::size_t>(j)], p);
          _mm_storeh_pd(&m1[static_cast<std::size_t>(j)], p);
          tail_v = _mm_add_pd(tail_v, p);
        }
        _mm_storel_pd(&tail0, tail_v);
        _mm_storeh_pd(&tail1, tail_v);
      }
#else
      for (int j = n; j >= 1; --j) {
        const double p0 = tv0 / rate0[j - 1] * m0[j - 1];
        const double p1 = tv1 / rate1[j - 1] * m1[j - 1];
        m0[static_cast<std::size_t>(j)] = p0;
        m1[static_cast<std::size_t>(j)] = p1;
        tail0 += p0;
        tail1 += p1;
      }
#endif
      m0[0] = std::max(0.0, 1.0 - tail0);
      m1[0] = std::max(0.0, 1.0 - tail1);
    }
    if (s < num_s) {
      StationCache& sc = c.per_station[s];
      const double* rate = sc.rate.data();
      double* m = sc.marginal.data();
      const double tv = throughput * stations_[s].visit_ratio;
      double tail = 0.0;
      for (int j = n; j >= 1; --j) {
        const double p = tv / rate[j - 1] * m[j - 1];
        m[static_cast<std::size_t>(j)] = p;
        tail += p;
      }
      m[0] = std::max(0.0, 1.0 - tail);
    }

    c.throughput.push_back(throughput);
    c.response.push_back(response);
    for (std::size_t s = 0; s < num_s; ++s) {
      c.residence.push_back(c.residence_scratch[s]);
      c.marginal0.push_back(c.per_station[s].marginal[0]);
    }
  }

  const auto from = static_cast<std::uint64_t>(c.solved);
  const auto to = static_cast<std::uint64_t>(population);
  c.solved = population;
  // Inner-loop iterations each station actually executed: the residence
  // and the marginal-update loop both run n steps per newly solved n, so
  // 2 * sum_{n=from+1}^{to} n.
  return to * (to + 1) - from * (from + 1);
}

void ClosedNetwork::extend_counted(int population) const {
  const Metrics& m = metrics();
  if (population <= cache_.solved) {
    m.cache_hits->add(1);
    return;
  }
  const std::uint64_t per_station = extend(population);
  m.recursion_steps->add(per_station *
                         static_cast<std::uint64_t>(stations_.size()));
  for (obs::Counter* steps : m.station_steps) steps->add(per_station);
}

MvaResult ClosedNetwork::solve(int population) const {
  if (population < 0) {
    throw std::invalid_argument("ClosedNetwork::solve: negative population");
  }
  if (stations_.empty() && think_time_ <= 0.0) {
    throw std::invalid_argument(
        "ClosedNetwork::solve: empty network with zero think time");
  }

  // The MVA recursion is the analytic model's inner loop; count solves and
  // *executed* recursion steps (a resumed or fully cached solve reruns
  // nothing) so perf work can cross-check the profiler against real work.
  const obs::ProfileScope profile("mva.solve");
  metrics().solves->add(1);

  const std::size_t num_s = stations_.size();
  MvaResult result;
  result.population = population;
  result.think_time = think_time_;
  result.stations.resize(num_s);
  for (std::size_t s = 0; s < num_s; ++s) {
    result.stations[s].name = stations_[s].name;
  }

  if (population > 0) {
    extend_counted(population);
    const std::size_t at = static_cast<std::size_t>(population) - 1;
    result.throughput = cache_.throughput[at];
    result.response_time = cache_.response[at];
    const std::size_t base = at * num_s;
    for (std::size_t s = 0; s < num_s; ++s) {
      StationResult& sr = result.stations[s];
      sr.residence_time = cache_.residence[base + s];
      sr.queue_length = result.throughput * sr.residence_time;
      sr.utilization = 1.0 - cache_.marginal0[base + s];
    }
  }
  // Population 0 keeps the zero-initialized result: an empty system has
  // zero throughput, zero response time, and idle stations. It flows
  // through the same audit below instead of skipping it.
  if constexpr (util::kAuditEnabled) {
    RAC_AUDIT(std::isfinite(result.throughput) && result.throughput >= 0.0,
              "MVA solve: non-finite or negative throughput");
    RAC_AUDIT(std::isfinite(result.response_time) &&
                  result.response_time >= 0.0,
              "MVA solve: non-finite or negative response time");
    for (const auto& sr : result.stations) {
      RAC_AUDIT(std::isfinite(sr.queue_length) && sr.queue_length >= 0.0,
                "MVA solve: negative station queue length");
      RAC_AUDIT(sr.utilization >= 0.0 && sr.utilization <= 1.0 + 1e-9,
                "MVA solve: utilization outside [0, 1]");
    }
  }
  return result;
}

std::vector<double> ClosedNetwork::throughput_curve(int max_population) const {
  if (max_population < 1) {
    throw std::invalid_argument("throughput_curve: population must be >= 1");
  }
  if (stations_.empty()) {
    throw std::invalid_argument("throughput_curve: no stations");
  }
  const obs::ProfileScope profile("mva.throughput_curve");
  metrics().throughput_curves->add(1);
  extend_counted(max_population);
  std::vector<double> curve(
      cache_.throughput.begin(),
      cache_.throughput.begin() + static_cast<std::size_t>(max_population));
  if constexpr (util::kAuditEnabled) {
    // X(n) is non-decreasing in n only when every station's service rate
    // is non-decreasing in its local population. The web-system model
    // deliberately violates that (per-job demand inflation at high
    // admitted concurrency models thrashing, so mu(j) drops and X(n) may
    // genuinely decline past saturation) -- audit monotonicity only for
    // networks where it is a theorem. Allow a sliver of float slack so
    // the audit flags model bugs, not roundoff.
    const bool monotone_rates = std::all_of(
        stations_.begin(), stations_.end(), [](const Station& s) {
          return std::is_sorted(s.rates.begin(), s.rates.end());
        });
    if (monotone_rates) {
      for (std::size_t i = 1; i < curve.size(); ++i) {
        RAC_AUDIT(
            curve[i] + 1e-9 * std::max(1.0, curve[i - 1]) >= curve[i - 1],
            "MVA throughput_curve: throughput decreased with population");
      }
    }
    for (double x : curve) {
      RAC_AUDIT(std::isfinite(x) && x >= 0.0,
                "MVA throughput_curve: non-finite or negative throughput");
    }
  }
  return curve;
}

}  // namespace rac::queueing
