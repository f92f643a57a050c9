// Exact Mean Value Analysis (MVA) for single-class closed queueing
// networks with load-dependent service stations and a delay (think-time)
// center.
//
// This is the analytic substrate under the web-system model: each VM is a
// load-dependent station whose service rate mu(j) encodes its core count,
// its admission limit (jobs beyond the limit receive no service and queue),
// and concurrency overheads (per-job demand inflation at high admitted
// concurrency). The exact MVA recursion with marginal queue-length
// probabilities (Reiser & Lavenberg) solves the network in O(N * S * N)
// time for population N.
//
// Incremental solving: the recursion for population n depends only on the
// recursion state at n-1, so the network memoizes the highest population it
// has solved and resumes from there. solve(m) after solve(n >= m) or
// throughput_curve(n >= m) is a cached read; solve(m > n) runs only the
// populations (n, m]. Any structural mutation -- add_station,
// set_station_rates, or a think-time change -- invalidates the cache, and
// the next solve restarts from population 1. Results are bitwise identical
// to a from-scratch solve in every case.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rac::obs {
class Counter;
class Registry;
}

namespace rac::queueing {

/// A load-dependent queueing station. `rates[j-1]` is the aggregate service
/// rate (jobs/second) when j jobs are present. Rates must be positive and
/// the vector is implicitly extended with its last value for j beyond its
/// length.
struct Station {
  std::string name;
  double visit_ratio = 1.0;
  std::vector<double> rates;
};

/// Convenience constructors -------------------------------------------------

/// M/M/1-PS-like station: rate mu regardless of population.
Station make_queueing_station(std::string name, double service_rate,
                              double visit_ratio = 1.0);

/// Multi-server station: c servers each of rate `per_server_rate`;
/// mu(j) = min(j, c) * per_server_rate. `max_population` bounds the rate
/// table length.
Station make_multiserver_station(std::string name, int servers,
                                 double per_server_rate, int max_population,
                                 double visit_ratio = 1.0);

struct StationResult {
  std::string name;
  double residence_time = 0.0;   // total time per system-level request
  double queue_length = 0.0;     // mean jobs at station (queued + served)
  double utilization = 0.0;      // P(station non-empty)
};

struct MvaResult {
  int population = 0;
  double throughput = 0.0;       // X(N), jobs/second
  double response_time = 0.0;    // R(N), excludes think time
  double think_time = 0.0;       // Z
  std::vector<StationResult> stations;

  /// Little's-law check value: X * (R + Z); equals N for an exact solve.
  double little_check() const noexcept {
    return throughput * (response_time + think_time);
  }
};

/// A closed interactive network: N clients cycling through a think delay
/// and a sequence of load-dependent stations.
///
/// Not safe for concurrent solves on one instance: solving mutates the
/// internal recursion cache (each pool task should own its network, which
/// is how every caller in this codebase already works).
class ClosedNetwork {
 public:
  /// `think_time` is the delay-center service time, in seconds (>= 0).
  explicit ClosedNetwork(double think_time = 0.0);

  /// Changing the think time invalidates the recursion cache (Z enters
  /// every population step); setting the identical value keeps it.
  void set_think_time(double think_time);
  double think_time() const noexcept { return think_time_; }

  /// Add a station; returns its index. Invalidates the recursion cache.
  std::size_t add_station(Station station);

  /// Replace station `index`'s rate table (same validation as add_station).
  /// Invalidates the recursion cache unless the table is identical.
  void set_station_rates(std::size_t index, std::vector<double> rates);

  std::size_t num_stations() const noexcept { return stations_.size(); }
  const Station& station(std::size_t i) const { return stations_.at(i); }

  /// Exact MVA solve for the given population (>= 0). Throws
  /// std::invalid_argument for a negative population or an empty network
  /// with zero think time. Population 0 is the defined empty system:
  /// zero throughput/response/queues, utilization 0 at every station.
  MvaResult solve(int population) const;

  /// Throughput X(n) for every population n = 1..max_population, from one
  /// pass of the MVA recursion. `curve[n-1]` is X(n).
  ///
  /// This is the flow-equivalent service center (FESC) construction: a
  /// subnetwork solved with think time 0 yields the rate table mu(j) =
  /// X_sub(j) of a single load-dependent station that is exactly
  /// equivalent to the subnetwork in any enclosing product-form model.
  std::vector<double> throughput_curve(int max_population) const;

  /// Highest population the cached recursion has reached since the last
  /// structural mutation (0 when cold). Exposed for tests and diagnostics.
  int solved_population() const noexcept { return cache_.solved; }

  /// Route this network's solve/step counters to `registry` (nullptr means
  /// the process default). Takes effect from the next solve.
  void set_registry(obs::Registry* registry) noexcept {
    registry_ = registry;
    metrics_.solves = nullptr;
  }

 private:
  // Recursion state, resumable at population `solved`. Per station the
  // rate table is pre-extended (rate[j-1] for j = 1..capacity, implicit
  // last-value extension applied once) alongside jr[j-1] = j / rate[j-1],
  // the exact per-job demand term of the residence-time loop. `marginal`
  // holds P(j jobs at the station | population = solved).
  struct StationCache {
    std::vector<double> rate;
    std::vector<double> jr;
    std::vector<double> marginal;
  };
  struct Cache {
    int solved = 0;    // populations 1..solved are computed
    int capacity = 0;  // per-station table length the arrays cover
    std::vector<StationCache> per_station;
    // Per-population history so solve(m <= solved) is a cached read:
    // throughput[n-1] = X(n), response[n-1] = R(n), and the per-station
    // residence times / empty-station probabilities flattened as
    // [(n-1) * num_stations + s].
    std::vector<double> throughput;
    std::vector<double> response;
    std::vector<double> residence;
    std::vector<double> marginal0;
    std::vector<double> residence_scratch;
  };

  // Counter handles, resolved by metrics() on the first solve after the
  // registry or the station list changes, so a solve does no name lookups.
  struct Metrics {
    obs::Counter* solves = nullptr;
    obs::Counter* throughput_curves = nullptr;
    obs::Counter* recursion_steps = nullptr;
    obs::Counter* cache_hits = nullptr;
    std::vector<obs::Counter*> station_steps;  // parallel to stations_
  };

  void invalidate() noexcept { cache_ = Cache{}; }
  /// Grow per-station tables to cover `population` and run the recursion
  /// for populations (cache_.solved, population]. Returns executed inner
  /// steps per station (0 when fully cached).
  std::uint64_t extend(int population) const;
  /// extend() plus its telemetry: the executed recursion steps, or one
  /// cache hit when `population` is already solved.
  void extend_counted(int population) const;
  const Metrics& metrics() const;

  double think_time_;
  std::vector<Station> stations_;
  obs::Registry* registry_ = nullptr;
  mutable Metrics metrics_;
  mutable Cache cache_;
};

}  // namespace rac::queueing
