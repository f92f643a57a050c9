#include "rl/td_learner.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "rl/policy.hpp"
#include "util/contracts.hpp"

namespace rac::rl {

TdResult batch_train(QTable& table,
                     std::span<const config::Configuration> start_states,
                     const RewardFn& reward, const TdParams& params,
                     util::Rng& rng, obs::Registry* registry) {
  if (!reward) throw std::invalid_argument("batch_train: empty reward fn");
  if (params.alpha <= 0.0 || params.alpha > 1.0) {
    throw std::invalid_argument("batch_train: alpha outside (0, 1]");
  }
  if (params.gamma < 0.0 || params.gamma >= 1.0) {
    throw std::invalid_argument("batch_train: gamma outside [0, 1)");
  }
  if (params.trajectory_limit < 1 || params.max_sweeps < 1) {
    throw std::invalid_argument("batch_train: non-positive budget");
  }

  const EpsilonGreedy policy(params.epsilon);
  TdResult result;
  if (start_states.empty()) {
    result.converged = true;
    return result;
  }

  // The reward model is a pure function of the state for the duration of
  // one batch; memoize it per table row (full backups revisit states
  // heavily, and every state the loop touches gets a row below, so the
  // cache is a dense array indexed by row -- no second hash table). The
  // compute-on-first-encounter order is the same as a map-based cache
  // keyed by configuration, so reward functions with observable effects
  // (metrics counters) fire in the identical sequence.
  std::vector<double> reward_by_row;
  std::vector<std::uint8_t> reward_known;
  const auto cached_reward = [&](const config::Configuration& c,
                                 std::size_t row) {
    if (row >= reward_known.size()) {
      reward_known.resize(row + 1, 0);
      reward_by_row.resize(row + 1, 0.0);
    }
    if (reward_known[row]) return reward_by_row[row];
    const double r = reward(c);
    reward_known[row] = 1;
    reward_by_row[row] = r;
    return r;
  };

  // Telemetry handles (resolved once per batch against the injected
  // registry) and local accumulators: the inner loop runs millions of
  // backups per experiment, so counts are folded into the registry once
  // per batch, not per update.
  obs::Registry& reg = obs::registry_or_default(registry);
  obs::Counter& c_runs = reg.counter("rl.td.runs");
  obs::Counter& c_sweeps = reg.counter("rl.td.sweeps");
  obs::Counter& c_backups = reg.counter("rl.td.backups");
  obs::Counter& c_converged = reg.counter("rl.td.converged");
  obs::Gauge& g_error = reg.gauge("rl.td.last_error");
  obs::Histogram& h_train =
      reg.histogram("rl.td.batch_train_us", obs::latency_us_bounds());
  const obs::ProfileScope profile("rl.batch_train", &h_train);
  std::uint64_t backups = 0;

  // Neighbor map: row index of apply(s, a) for every action of every
  // visited row, filled the first time a state is visited and valid for
  // the whole batch (the MDP is static and row indices are stable). Later
  // visits -- the common case, since sweeps revisit the same states tens
  // of times -- skip configuration hashing entirely. Action id 0 is
  // "keep", whose neighbor is the row itself, so slot 0 doubles as the
  // filled flag.
  constexpr std::uint32_t kUnfilled = static_cast<std::uint32_t>(-1);
  std::array<std::uint32_t, config::kNumActions> unfilled_row;
  unfilled_row.fill(kUnfilled);
  std::vector<std::array<std::uint32_t, config::kNumActions>> neighbors;

  const auto actions = config::ConfigSpace::all_actions();
  for (int sweep = 0; sweep < params.max_sweeps; ++sweep) {
    double error = 0.0;
    for (const auto& start : start_states) {
      config::Configuration s = start;
      for (int step = 0; step < params.trajectory_limit; ++step) {
        // Full backup of every action at the visited state. The visited
        // state's row is resolved once for all kNumActions updates, and
        // each neighbor gets (or reuses) a warm row so its reward and
        // max-Q reads are one probe + dense indexing. Unwritten warm rows
        // hold only default values, so every read matches the absent-row
        // answer bit for bit (see qtable.hpp).
        const std::size_t s_row = table.ensure_row(s);
        if (neighbors.size() <= s_row) {
          neighbors.resize(s_row + 1, unfilled_row);
        }
        auto& nbr = neighbors[s_row];
        const bool filled = nbr[0] != kUnfilled;
        for (const config::Action a : actions) {
          const auto id = static_cast<std::size_t>(a.id());
          std::size_t next_row;
          double r;
          if (filled) {
            next_row = nbr[id];
            // The first visit's backup of this action computed the
            // neighbor's reward, so the cache always hits here.
            r = reward_by_row[next_row];
          } else {
            const config::Configuration next = config::ConfigSpace::apply(s, a);
            next_row = a.is_keep() ? s_row : table.ensure_row(next);
            nbr[id] = static_cast<std::uint32_t>(next_row);
            r = cached_reward(next, next_row);
          }
          const double td = r + params.gamma * table.max_q_at(next_row) -
                            table.q_at(s_row, a);
          const double delta = params.alpha * td;
          table.add_q_at(s_row, a, delta);
          error = std::max(error, std::abs(delta));
          ++backups;
        }
        // Walk on epsilon-greedily; the walk chooses which states the next
        // backups touch.
        s = config::ConfigSpace::apply(s, policy.select(table, s, rng));
      }
    }
    result.sweeps = sweep + 1;
    result.final_error = error;
    if (error < params.theta) {
      result.converged = true;
      break;
    }
  }

  c_runs.add(1);
  c_sweeps.add(static_cast<std::uint64_t>(result.sweeps));
  c_backups.add(backups);
  if (result.converged) c_converged.add(1);
  g_error.set(result.final_error);

  if constexpr (util::kAuditEnabled) {
    // A single NaN reward poisons every value it backs up into; scan the
    // whole table after the batch so the poisoning is caught at its source
    // experiment, not intervals later as a mysteriously frozen policy.
    for (const auto& state : table.states()) {
      for (const config::Action a : actions) {
        RAC_AUDIT(std::isfinite(table.q(state, a)),
                  "batch_train: non-finite Q value after batch");
      }
    }
    RAC_AUDIT(std::isfinite(result.final_error),
              "batch_train: non-finite TD error");
  }
  return result;
}

}  // namespace rac::rl
