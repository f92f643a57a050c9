// Single-agent workloads: RacAgents on AnalyticEnvs.
//
//   paper-contexts  the paper's Figure-5 sequence (Table-2 contexts
//                   1 -> 2 -> 3, 30 intervals each) at 400 browsers;
//   flash-day       a dynamic-traffic day and a half at 700 nominal
//                   browsers: diurnal swing, one seeded flash crowd near
//                   1000 browsers and a shopping -> ordering drift.
//
// A round runs one pass per agent; the agents differ only in their seed
// streams, so the decision-quality metrics average over several learning
// trajectories. A pass constructs its agent from the library, runs half
// the intervals, checkpoints the agent and resumes the checkpoint into a
// fresh agent for the second half, and saves the final state.
// A run measures a fixed number of rounds for its seconds; every round replays
// the same inputs, so the decision-quality metrics come from round 1 and
// later rounds must reproduce it bit for bit.
#include <array>
#include <cmath>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/policy_init.hpp"
#include "core/policy_library.hpp"
#include "core/rac_agent.hpp"
#include "core/runner.hpp"
#include "core/snapshot.hpp"
#include "obs/timer.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/dynamic.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using rac::env::SystemContext;
using rac::workload::MixType;

constexpr SystemContext kShopping{MixType::kShopping, rac::env::VmLevel::kLevel1};
constexpr SystemContext kOrdering{MixType::kOrdering, rac::env::VmLevel::kLevel1};

/// The make-up of a single-agent workload, all derived from the seed.
struct Workload {
  int agents = 8;  // independent agents per round
  int clients = 400;
  rac::core::ContextSchedule schedule;
  int intervals = 0;  // per agent and round
  double round_seconds = 10.0;  // one round on the reference host
  double sla_ms = 1000.0;
  std::shared_ptr<const rac::workload::TrafficModel> traffic;
  std::vector<SystemContext> library_contexts;
  /// Browsers and noise of the offline environment a context is trained on.
  std::function<int(const SystemContext&)> library_clients;
  double library_noise = 0.10;
};

Workload paper_contexts() {
  Workload w;
  w.clients = 400;
  for (int c = 0; c < 3; ++c) {
    w.schedule.push_back({c * 30, rac::env::table2_context(c + 1)});
  }
  w.intervals = 90;
  w.round_seconds = 10.0;
  w.library_contexts = {rac::env::table2_context(1), rac::env::table2_context(2),
                        rac::env::table2_context(3)};
  w.library_clients = [](const SystemContext&) { return 400; };
  return w;
}

// The day: a diurnal cycle starting at the night trough, one flash crowd
// whose onset is found by scanning seeds derived from `seed` (exactly one
// onset in the round, on the first day's midday dome, every hold interval
// between 990 and 1022 browsers), and an afternoon drift from shopping to
// ordering that completes at 0.8 of the day and then persists.
Workload flash_day(std::uint64_t seed, bool* found) {
  constexpr int kDay = 96;
  Workload w;
  w.clients = 700;
  w.schedule = {{0, kShopping}};
  w.intervals = kDay + kDay / 2;
  w.round_seconds = 16.0;
  w.sla_ms = 600.0;
  w.library_contexts = {kShopping, kOrdering};
  // The shopping policy is trained at the flash peak it must survive, the
  // ordering policy at the afternoon's nominal level.
  w.library_clients = [](const SystemContext& c) {
    return c.mix == MixType::kShopping ? 1050 : 700;
  };
  w.library_noise = 0.0;

  rac::workload::DiurnalParams diurnal;
  diurnal.period_intervals = kDay;
  diurnal.amplitude = 0.22;
  diurnal.phase_intervals = 0.75 * kDay;

  rac::workload::MixDriftParams drift;
  drift.from = MixType::kShopping;
  drift.to = MixType::kOrdering;
  drift.duration_intervals = (29 * kDay) / 200;
  drift.start_interval = (4 * kDay) / 5 - drift.duration_intervals;

  rac::workload::FlashCrowdParams flash;
  flash.onset_prob = 0.04;
  flash.ramp_intervals = 2;
  flash.hold_intervals = kDay / 8;
  flash.decay_intervals = kDay / 24;
  flash.peak_scale = 1.19;
  const int duration = rac::workload::flash_crowd_duration(flash);
  *found = false;
  for (std::uint64_t k = 0; k < 200000 && !*found; ++k) {
    flash.seed = rac::util::derive_seed(seed, k);
    std::int64_t onset = -1;
    int onsets = 0;
    for (std::int64_t i = 0; i < w.intervals; ++i) {
      if (rac::workload::flash_onset_at(flash, i)) {
        ++onsets;
        onset = i;
      }
    }
    if (onsets != 1 || onset < kDay / 4 ||
        onset + duration > drift.start_interval + duration / 2) {
      continue;
    }
    rac::workload::TrafficModel probe;
    probe.add_diurnal(diurnal).add_flash_crowd(flash);
    bool in_band = true;
    for (std::int64_t i = onset + flash.ramp_intervals;
         i < onset + flash.ramp_intervals + flash.hold_intervals; ++i) {
      const double browsers =
          w.clients * probe.target_at(i, MixType::kShopping).concurrency_scale;
      in_band = in_band && browsers >= 990.0 && browsers <= 1022.0;
    }
    *found = in_band;
  }
  auto model = std::make_shared<rac::workload::TrafficModel>();
  model->add_diurnal(diurnal).add_flash_crowd(flash).add_mix_drift(drift);
  w.traffic = std::move(model);
  return w;
}

/// One agent's pass through the workload: its measured intervals and its
/// serialized states (mid-pass checkpoint, end of pass).
struct Pass {
  std::vector<rac::core::IterationRecord> records;
  std::string mid_state;
  std::string final_state;
};

/// What a later round must reproduce of round 1, per agent.
struct PassDigest {
  std::uint64_t mid_hash = 0;
  std::uint64_t final_hash = 0;
  double response_sum = 0.0;
  bool operator==(const PassDigest&) const = default;
};

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : bytes) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return hash;
}

PassDigest digest(const Pass& pass) {
  PassDigest d;
  d.mid_hash = fnv1a(pass.mid_state);
  d.final_hash = fnv1a(pass.final_state);
  for (const rac::core::IterationRecord& r : pass.records) {
    d.response_sum += r.response_ms;
  }
  return d;
}

class SingleAgentRun {
 public:
  SingleAgentRun(const RunContext& run, Workload workload,
                 rac::core::InitialPolicyLibrary library,
                 rac::core::RacOptions agent_options,
                 rac::env::AnalyticEnvOptions env_options)
      : run_(run),
        w_(std::move(workload)),
        library_(std::move(library)),
        agent_options_(agent_options),
        env_options_(env_options) {}

  /// Agent `agent`'s pass: construct it from the library, run the first
  /// half, checkpoint, resume the checkpoint into a fresh agent for the
  /// second half and save the final state.
  Pass pass(int agent_index) {
    SpanLog& spans = *run_.spans;
    Pass out;
    rac::env::AnalyticEnvOptions env_options = env_options_;
    env_options.seed = rac::util::derive_seed(env_options_.seed,
                                              static_cast<std::uint64_t>(agent_index));
    ForwardingEnv env(std::make_unique<rac::env::AnalyticEnv>(
                          w_.schedule.front().context, env_options),
                      spans);
    if (w_.traffic != nullptr) env.set_traffic_model(w_.traffic);
    rac::core::RunOptions options;
    options.registry = run_.registry;

    const int half = w_.intervals / 2;
    auto agent = std::make_unique<rac::core::RacAgent>(options_for(agent_index),
                                                       library_);
    {
      ForwardingAgent forward(*agent, spans);
      out.records =
          rac::core::run_agent(env, forward, w_.schedule, half, options).records;
    }
    out.mid_state = save(*agent);
    agent = resume(agent_index, out.mid_state);
    {
      ForwardingAgent forward(*agent, spans);
      options.start_iteration = half;
      const rac::core::AgentTrace rest =
          rac::core::run_agent(env, forward, w_.schedule, w_.intervals, options);
      out.records.insert(out.records.end(), rest.records.begin(),
                         rest.records.end());
    }
    out.final_state = save(*agent);
    repeats_ += env.repeats();
    measurements_ += env.measurements();
    return out;
  }

  /// save -> load -> save of one of agent `agent`'s states reproduces its
  /// bytes.
  bool round_trips(int agent, const std::string& state, bool perturb) const {
    try {
      const std::unique_ptr<rac::core::RacAgent> restored =
          resume(agent, perturb ? perturb_serialized(state) : state);
      return save(*restored) == state;
    } catch (const std::exception&) {
      return false;
    }
  }

  const Workload& workload() const { return w_; }
  double repeat_share() const {
    return measurements_ == 0 ? 0.0
                              : static_cast<double>(repeats_) / measurements_;
  }
  void reset_repeats() { repeats_ = measurements_ = 0; }

 private:
  rac::core::RacOptions options_for(int agent) const {
    rac::core::RacOptions options = agent_options_;
    options.seed = rac::util::derive_seed(agent_options_.seed,
                                          static_cast<std::uint64_t>(agent));
    return options;
  }

  std::string save(const rac::core::RacAgent& agent) const {
    const SpanLog::Scope span(*run_.spans, "core.rac.save_state");
    std::ostringstream os;
    agent.save_state(os);
    return std::move(os).str();
  }

  std::unique_ptr<rac::core::RacAgent> resume(int agent,
                                              const std::string& state) const {
    auto restored =
        std::make_unique<rac::core::RacAgent>(options_for(agent), library_);
    const SpanLog::Scope span(*run_.spans, "core.load_agent_snapshot");
    std::istringstream is(state);
    restored->restore(rac::core::load_agent_snapshot(is));
    return restored;
  }

  const RunContext& run_;
  Workload w_;
  rac::core::InitialPolicyLibrary library_;
  rac::core::RacOptions agent_options_;
  rac::env::AnalyticEnvOptions env_options_;
  long long repeats_ = 0;
  long long measurements_ = 0;
};

/// Switches spans and the program's profiler off for its lifetime: the
/// verification between passes is neither timed nor traced.
class Untimed {
 public:
  explicit Untimed(SpanLog& spans)
      : spans_(spans),
        spans_were_(spans.enabled()),
        profiling_was_(rac::obs::profiling_enabled()) {
    spans_.set_enabled(false);
    rac::obs::set_profiling(false);
  }
  ~Untimed() {
    spans_.set_enabled(spans_were_);
    rac::obs::set_profiling(profiling_was_);
  }
  Untimed(const Untimed&) = delete;
  Untimed& operator=(const Untimed&) = delete;

 private:
  SpanLog& spans_;
  bool spans_were_;
  bool profiling_was_;
};

struct RegionResult {
  int rounds = 0;
  double seconds = 0.0;             // timed passes only
  std::vector<double> pass_rates;   // intervals per second of each pass
  std::vector<std::vector<rac::core::IterationRecord>> records;  // round 1
  double mean_final_state_bytes = 0.0;                           // round 1
  long long snapshot_bytes = 0;  // every state saved in the region
  bool rounds_match = true;
  bool round_trips = true;
};

/// Run `rounds` whole rounds, one pass per agent.
/// Between passes, untimed: round 1's checkpoints are round-tripped and
/// its records kept; later rounds must reproduce round 1's digests.
RegionResult run_region(SingleAgentRun& bench, SpanLog& spans, int rounds,
                        bool perturb_checkpoint) {
  const int agents = bench.workload().agents;
  RegionResult out;
  std::vector<PassDigest> first;
  do {
    for (int agent = 0; agent < agents; ++agent) {
      const Clock::time_point start = Clock::now();
      Pass pass = bench.pass(agent);
      const double pass_s = seconds_between(start, Clock::now());
      out.seconds += pass_s;
      out.pass_rates.push_back(static_cast<double>(pass.records.size()) / pass_s);

      const Untimed untimed(spans);
      out.snapshot_bytes +=
          static_cast<long long>(pass.mid_state.size() + pass.final_state.size());
      const PassDigest d = digest(pass);
      if (out.rounds > 0) {
        out.rounds_match = out.rounds_match && d == first[static_cast<std::size_t>(agent)];
        continue;
      }
      out.round_trips =
          out.round_trips &&
          bench.round_trips(agent, pass.mid_state, perturb_checkpoint && agent == 0) &&
          bench.round_trips(agent, pass.final_state, false);
      out.mean_final_state_bytes +=
          static_cast<double>(pass.final_state.size()) / agents;
      first.push_back(d);
      out.records.push_back(std::move(pass.records));
    }
    ++out.rounds;
  } while (out.rounds < rounds);
  return out;
}

}  // namespace

bool run_single_agent(const RunContext& run, Outcome& outcome) {
  const Args& args = run.args;
  Workload workload;
  bool scan_found = true;
  if (args.workload == "paper-contexts") {
    workload = paper_contexts();
  } else if (args.workload == "flash-day") {
    workload = flash_day(rac::util::derive_seed(args.seed, 1), &scan_found);
  } else {
    return false;
  }
  outcome.check(scan_found, "flash-crowd seed scan found a single-onset day");

  rac::util::ThreadPool pool(1);
  SpanLog& spans = *run.spans;

  // -- set-up: the offline policy library (Algorithm 2) ----------------------
  // The library is trained with the program's default seeds: it is a
  // function of the workload's contexts alone, and --seed drives the
  // online phase (traffic, measurement noise, exploration).
  rac::core::PolicyInitOptions init;
  init.registry = run.registry;
  init.pool = &pool;
  rac::core::InitialPolicyLibrary library;
  {
    const SpanLog::Scope span(spans, "core.build_library");
    library = rac::core::build_library(
        workload.library_contexts,
        [&](const SystemContext& context) {
          rac::env::AnalyticEnvOptions offline;
          offline.num_clients = workload.library_clients(context);
          offline.noise_sigma = workload.library_noise;
          offline.registry = run.registry;
          return std::make_unique<rac::env::AnalyticEnv>(context, offline);
        },
        init);
  }
  rac::core::RacOptions agent_options;
  agent_options.seed = rac::util::derive_seed(args.seed, 4);
  agent_options.sla.reference_response_ms = workload.sla_ms;
  agent_options.registry = run.registry;
  rac::env::AnalyticEnvOptions env_options;
  env_options.num_clients = workload.clients;
  env_options.seed = rac::util::derive_seed(args.seed, 5);
  env_options.registry = run.registry;
  SingleAgentRun bench(run, workload, library, agent_options, env_options);
  const double setup_s = seconds_between(run.process_start, Clock::now());

  // -- the measured region ---------------------------------------------------
  const bool perturb_checkpoint = args.perturb == "checkpoint";
  const int rounds = rounds_for(args.seconds, workload.round_seconds);
  RegionResult region;
  TracedRegion traced;
  if (!args.trace) {
    region = run_region(bench, spans, rounds, perturb_checkpoint);
  } else {
    traced.setup_counts = run.registry->snapshot();
    spans.set_enabled(false);
    const RegionResult untraced =
        run_region(bench, spans, rounds, perturb_checkpoint);
    bench.reset_repeats();
    traced.from_s = begin_traced_region(run);
    region = run_region(bench, spans, rounds, perturb_checkpoint);
    end_traced_region(run);
    traced.seconds = region.seconds;
    traced.untraced_seconds = untraced.seconds;
    traced.region_counts = run.registry->snapshot();
    traced.repeat_share = bench.repeat_share();
    traced.snapshot_bytes = static_cast<double>(region.snapshot_bytes);
  }
  const double rss_mb = peak_rss_mb();
  const Clock::time_point verify_start = Clock::now();

  // -- verification (outside the measured region) ----------------------------
  outcome.check(region.rounds_match,
                "every round reproduces round 1's learner states and samples");
  outcome.check(region.round_trips,
                "(e) checkpoint save -> load -> save is byte-identical");
  std::string mva_detail;
  const bool mva_ok = check_mva(args.perturb == "mva", &mva_detail);
  outcome.check(mva_ok, "(a) MVA matches the textbook recursion: " + mva_detail);

  // Score every interval of round 1 noiselessly: the configuration RAC
  // applied and the static default, under the interval's exact context
  // and traffic. Scores are memoized by model input.
  rac::env::AnalyticEnvOptions scoring_options = env_options;
  scoring_options.noise_sigma = 0.0;
  rac::obs::Registry scoring_registry;
  scoring_options.registry = &scoring_registry;
  rac::env::AnalyticEnv scorer(workload.schedule.front().context, scoring_options);
  std::map<std::pair<std::array<int, rac::config::kNumParams>, std::string>,
           rac::env::PerfSample>
      memo;
  const auto score = [&](const rac::config::Configuration& c,
                         const rac::core::IterationRecord& record,
                         const rac::workload::TrafficTarget& target) {
    const std::string input =
        rac::env::context_token(record.context) +
        (workload.traffic != nullptr ? "@" + std::to_string(record.iteration) : "");
    const auto key = std::make_pair(c.values(), input);
    const auto it = memo.find(key);
    if (it != memo.end()) return it->second;
    scorer.set_context(record.context);
    const rac::env::PerfSample sample = scorer.evaluate_under(c, target);
    memo.emplace(key, sample);
    return sample;
  };
  std::vector<double> responses;
  double rac_sum = 0.0;
  double default_sum = 0.0;
  long long failed = 0;
  bool in_ranges = true;
  bool bounded = true;
  const rac::config::Configuration defaults;
  for (const auto& records : region.records) {
    for (const rac::core::IterationRecord& record : records) {
      std::vector<int> values(record.configuration.values().begin(),
                              record.configuration.values().end());
      if (args.perturb == "ranges" && responses.empty()) {
        values[0] = kTable1Ranges[0][1] + 1;
      }
      const bool ok_range = within_table1(values);
      in_ranges = in_ranges && ok_range;
      if (!ok_range || !std::isfinite(record.response_ms)) ++failed;
      responses.push_back(record.response_ms);

      const rac::workload::TrafficTarget target =
          workload.traffic != nullptr
              ? workload.traffic->target_at(record.iteration, record.context.mix)
              : rac::workload::one_hot_target(record.context.mix);
      const rac::env::PerfSample scored = score(
          args.perturb == "static" ? defaults : record.configuration, record, target);
      const rac::env::PerfSample baseline = score(defaults, record, target);
      Interactive inputs = interactive_inputs(workload.clients, target);
      if (args.perturb == "bound") inputs.think_s *= 2.0;
      bounded = bounded &&
                within_interactive_bound(scored.throughput_rps,
                                         inputs.population, inputs.think_s) &&
                within_interactive_bound(baseline.throughput_rps,
                                         inputs.population, inputs.think_s);
      rac_sum += scored.response_ms;
      default_sum += baseline.response_ms;
    }
  }
  outcome.check(responses.size() == static_cast<std::size_t>(workload.agents) *
                                        static_cast<std::size_t>(workload.intervals),
                "round 1 measured every interval of every agent");
  outcome.check(in_ranges, "(c) every applied configuration is within Table 1");
  outcome.check(bounded, "(b) X <= N/Z on every measured interval");
  outcome.check(rac_sum < default_sum,
                "(d) RAC's noiseless mean response is below the static "
                "default's on the same schedule");

  const long long round_ops =
      static_cast<long long>(workload.agents) * workload.intervals;
  outcome.attempted = region.rounds * round_ops;
  outcome.failed = region.rounds * failed;

  report_phases(setup_s, region.seconds, region.rounds,
               seconds_between(verify_start, Clock::now()));
  if (args.trace) {
    add_per_layer(run, traced, outcome);
  } else {
    // The median pass rate: one pass the host slowed down does not move it.
    add_end_to_end(outcome, setup_s, median_of(region.pass_rates), responses,
                   rss_mb, region.mean_final_state_bytes / 1e6);
  }
  return true;
}

}  // namespace perfbench
