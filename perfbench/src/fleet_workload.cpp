// The fleet workload: a FleetManager over a few hundred tenants at 150
// browsers, split by seed between Table-2 contexts 1 and 2, each switching
// to the other context at a seeded interval mid-run.
//
// A round is three legs of `kLeg` intervals. Each leg constructs a fresh
// manager, restores the previous leg's whole-fleet checkpoint into it from
// memory, runs up to the next cross-tenant retraining boundary (which
// retrains) and saves the checkpoint the next leg restores. The first leg
// restores the checkpoint saved at set-up, so every round replays the same
// inputs and must reproduce round 1 exactly.
//
// After the measured region one more round runs with the benchmark's own
// trace sink attached; it supplies the per-interval samples and the
// verification of checkpoints and reports.
#include <cmath>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/policy_init.hpp"
#include "core/policy_library.hpp"
#include "fleet/fleet.hpp"
#include "obs/timer.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kTenants = 192;
constexpr int kLeg = 12;
constexpr int kLegs = 3;
constexpr int kClients = 150;
constexpr double kRoundSeconds = 6.0;  // one round on the reference host

std::vector<rac::fleet::TenantSpec> make_specs(std::uint64_t seed) {
  std::vector<rac::fleet::TenantSpec> specs(kTenants);
  for (int i = 0; i < kTenants; ++i) {
    const std::uint64_t draw =
        rac::util::derive_seed(seed, static_cast<std::uint64_t>(i));
    const int first = 1 + static_cast<int>(draw & 1U);
    const int switch_at = kLeg + static_cast<int>((draw >> 8) % kLeg);
    rac::fleet::TenantSpec& spec = specs[static_cast<std::size_t>(i)];
    spec.id = i;
    spec.schedule = {{0, rac::env::table2_context(first)},
                     {switch_at, rac::env::table2_context(3 - first)}};
  }
  return specs;
}

/// The benchmark's own trace sink: every tenant-interval's applied
/// configuration, context and response.
class SampleSink final : public rac::obs::TraceSink {
 public:
  struct Sample {
    std::vector<int> state;
    std::string context;
    double response_ms = 0.0;
  };
  explicit SampleSink(bool drop_first) : drop_first_(drop_first) {}

  void emit(const rac::obs::TraceEvent& event) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (drop_first_) {
      drop_first_ = false;
      return;
    }
    samples_.push_back({event.state, event.context, event.response_ms});
  }
  std::vector<Sample> take() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::move(samples_);
  }

 private:
  std::mutex mutex_;
  bool drop_first_;
  std::vector<Sample> samples_;
};

/// Per-leg totals of FleetManager::report(), which covers the intervals
/// run since the manager was constructed.
struct LegReport {
  long long iterations = 0;
  double mean_response_ms = 0.0;
};

struct RoundResult {
  std::vector<LegReport> legs;
  std::vector<double> leg_seconds;
  std::string final_checkpoint;  // kept by the verification round only
  long long checkpoint_bytes = 0;
  rac::obs::MetricsSnapshot shard_counts;
  // Filled only by the verification round.
  std::vector<std::vector<SampleSink::Sample>> samples;
  bool round_trips = true;
};

class FleetRun {
 public:
  FleetRun(const RunContext& run, std::vector<rac::fleet::TenantSpec> specs,
           rac::fleet::FleetOptions options,
           rac::core::InitialPolicyLibrary library)
      : run_(run),
        specs_(std::move(specs)),
        options_(std::move(options)),
        library_(std::move(library)) {
    const std::unique_ptr<rac::fleet::FleetManager> fleet = construct();
    initial_checkpoint_ = save(*fleet);
  }

  /// One round. `verify` attaches the sample sink, round-trips every
  /// checkpoint and keeps the samples; `perturb` names the check whose
  /// input is deliberately perturbed.
  RoundResult round(bool verify, const std::string& perturb) {
    RoundResult out;
    std::vector<rac::obs::MetricsSnapshot> counts;
    const std::string* source = &initial_checkpoint_;
    std::string checkpoint;
    bool first_leg = true;
    for (int leg = 0; leg < kLegs; ++leg) {
      if (verify && perturb == "checkpoint" && first_leg) {
        out.round_trips = round_trips(perturb_serialized(*source), *source);
      }
      const Clock::time_point leg_start = Clock::now();
      std::unique_ptr<rac::fleet::FleetManager> fleet = construct();
      restore(*fleet, *source);
      if (verify) out.round_trips = out.round_trips && save(*fleet) == *source;
      SampleSink sink(verify && perturb == "sink" && first_leg);
      if (verify) fleet->set_sink(&sink);
      {
        const SpanLog::Scope span(*run_.spans, "fleet.run");
        fleet->run(kLeg);
      }
      fleet->set_sink(nullptr);
      const rac::fleet::FleetReport report = fleet->report();
      out.legs.push_back({report.iterations, report.mean_response_ms});
      if (run_.spans->enabled()) counts.push_back(fleet->shard_metrics());
      if (verify) out.samples.push_back(sink.take());
      checkpoint = save(*fleet);
      source = &checkpoint;
      out.checkpoint_bytes += static_cast<long long>(checkpoint.size());
      out.leg_seconds.push_back(seconds_between(leg_start, Clock::now()));
      first_leg = false;
    }
    if (verify) {
      out.round_trips = out.round_trips && round_trips(checkpoint, checkpoint);
    }
    out.shard_counts = rac::obs::merge_snapshots(counts);
    out.final_checkpoint = std::move(checkpoint);
    return out;
  }

 private:
  /// Restoring `text` into a fresh fleet and saving it gives `expected`.
  bool round_trips(const std::string& text, const std::string& expected) const {
    try {
      const std::unique_ptr<rac::fleet::FleetManager> fleet = construct();
      restore(*fleet, text);
      return save(*fleet) == expected;
    } catch (const std::exception&) {
      return false;
    }
  }
  std::unique_ptr<rac::fleet::FleetManager> construct() const {
    const SpanLog::Scope span(*run_.spans, "fleet.construct");
    return std::make_unique<rac::fleet::FleetManager>(specs_, options_, library_);
  }
  std::string save(const rac::fleet::FleetManager& fleet) const {
    const SpanLog::Scope span(*run_.spans, "fleet.checkpoint.save");
    std::ostringstream os;
    fleet.save_checkpoint(os);
    return std::move(os).str();
  }
  void restore(rac::fleet::FleetManager& fleet, const std::string& text) const {
    const SpanLog::Scope span(*run_.spans, "fleet.checkpoint.restore");
    std::istringstream is(text);
    fleet.restore_checkpoint(is);
  }

  const RunContext& run_;
  std::vector<rac::fleet::TenantSpec> specs_;
  rac::fleet::FleetOptions options_;
  rac::core::InitialPolicyLibrary library_;
  std::string initial_checkpoint_;
};

struct RegionResult {
  std::vector<RoundResult> rounds;
  double seconds = 0.0;
};

/// Run `rounds` whole rounds.
RegionResult run_region(FleetRun& bench, int rounds) {
  RegionResult out;
  const Clock::time_point start = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    out.rounds.push_back(bench.round(false, ""));
    // Release the text, not just empty it: a kept buffer would make peak
    // RSS grow with the round count.
    out.rounds.back().final_checkpoint = std::string();
  }
  out.seconds = seconds_between(start, Clock::now());
  return out;
}

bool same_legs(const RoundResult& a, const RoundResult& b) {
  if (a.legs.size() != b.legs.size()) return false;
  for (std::size_t i = 0; i < a.legs.size(); ++i) {
    if (a.legs[i].iterations != b.legs[i].iterations ||
        !(a.legs[i].mean_response_ms == b.legs[i].mean_response_ms)) {
      return false;
    }
  }
  return a.checkpoint_bytes == b.checkpoint_bytes;
}

}  // namespace

bool run_fleet(const RunContext& run, Outcome& outcome) {
  const Args& args = run.args;
  if (args.workload != "fleet") return false;
  rac::util::ThreadPool pool(1);
  SpanLog& spans = *run.spans;

  // -- set-up: a compact offline library, then the fleet itself -------------
  // The library is trained with the program's default seeds; --seed drives
  // the tenant mix, the switch points and the fleet's seed streams.
  rac::env::AnalyticEnvOptions env_options;
  env_options.num_clients = kClients;
  env_options.fixed_point_iterations = 3;
  rac::core::PolicyInitOptions init;
  init.coarse_levels = 3;
  init.offline_td.trajectory_limit = 6;
  init.offline_td.max_sweeps = 40;
  init.registry = run.registry;
  init.pool = &pool;
  rac::core::InitialPolicyLibrary library;
  {
    const SpanLog::Scope span(spans, "core.build_library");
    library = rac::core::build_library(
        {rac::env::table2_context(1), rac::env::table2_context(2)},
        [&](const rac::env::SystemContext& context) {
          rac::env::AnalyticEnvOptions offline = env_options;
          offline.noise_sigma = 0.0;
          offline.registry = run.registry;
          return std::make_unique<rac::env::AnalyticEnv>(context, offline);
        },
        init);
  }
  rac::fleet::FleetOptions options;
  options.shard_count = 8;
  options.seed = rac::util::derive_seed(args.seed, 4);
  options.env = env_options;
  options.retrain_every = kLeg;
  options.agent.online_td.trajectory_limit = 4;
  options.agent.online_td.max_sweeps = 6;
  options.agent.sla.reference_response_ms = 250.0;
  options.agent.violation.consecutive_limit = 2;
  options.agent.violation.threshold = 0.15;
  options.pool = &pool;
  options.registry = run.registry;
  FleetRun bench(run, make_specs(rac::util::derive_seed(args.seed, 1)), options,
                 library);
  const double setup_s = seconds_between(run.process_start, Clock::now());

  // -- the measured region ---------------------------------------------------
  const int measured_rounds = rounds_for(args.seconds, kRoundSeconds);
  RegionResult region;
  TracedRegion traced;
  if (!args.trace) {
    region = run_region(bench, measured_rounds);
  } else {
    traced.setup_counts = run.registry->snapshot();
    spans.set_enabled(false);
    const RegionResult untraced = run_region(bench, measured_rounds);
    traced.from_s = begin_traced_region(run);
    region = run_region(bench, measured_rounds);
    end_traced_region(run);
    traced.seconds = region.seconds;
    traced.untraced_seconds = untraced.seconds;
    // Tenant telemetry lands in each manager's shard registries.
    std::vector<rac::obs::MetricsSnapshot> parts = {run.registry->snapshot()};
    for (const RoundResult& r : region.rounds) {
      parts.push_back(r.shard_counts);
      traced.checkpoint_bytes += static_cast<double>(r.checkpoint_bytes);
    }
    traced.region_counts = rac::obs::merge_snapshots(parts);
  }
  const double rss_mb = peak_rss_mb();
  const Clock::time_point verify_start = Clock::now();
  const auto rounds = static_cast<long long>(region.rounds.size());
  const long long round_ops = static_cast<long long>(kTenants) * kLeg * kLegs;

  // -- verification (outside the measured region) ----------------------------
  const RoundResult verified = bench.round(true, args.perturb);
  bool rounds_match = same_legs(verified, region.rounds.front());
  for (const RoundResult& r : region.rounds) {
    rounds_match = rounds_match && same_legs(r, region.rounds.front());
  }
  outcome.check(rounds_match, "every round reproduces round 1's fleet reports");
  outcome.check(verified.round_trips,
                "(e) checkpoint save -> load -> save is byte-identical");
  std::string mva_detail;
  const bool mva_ok = check_mva(args.perturb == "mva", &mva_detail);
  outcome.check(mva_ok, "(a) MVA matches the textbook recursion: " + mva_detail);

  // (f) the sink's own counts and means agree with FleetReport, leg by leg.
  bool sink_agrees = verified.samples.size() == verified.legs.size();
  std::vector<double> responses;
  for (std::size_t leg = 0; sink_agrees && leg < verified.legs.size(); ++leg) {
    std::vector<double> leg_responses;
    for (const SampleSink::Sample& s : verified.samples[leg]) {
      leg_responses.push_back(s.response_ms);
    }
    const double mean = mean_of(leg_responses);
    const double expected = verified.legs[leg].mean_response_ms;
    sink_agrees = static_cast<long long>(leg_responses.size()) ==
                      verified.legs[leg].iterations &&
                  std::fabs(mean - expected) <= 1e-9 * std::fabs(expected);
    responses.insert(responses.end(), leg_responses.begin(), leg_responses.end());
  }
  outcome.check(sink_agrees,
                "(f) the trace sink's interval count and mean match FleetReport");
  outcome.check(static_cast<long long>(responses.size()) == round_ops ||
                    args.perturb == "sink",
                "the verification round measured every tenant-interval");

  // (b), (c), (d): every sample scored noiselessly, memoized by model input.
  rac::env::AnalyticEnvOptions scoring_options = env_options;
  scoring_options.noise_sigma = 0.0;
  rac::obs::Registry scoring_registry;
  scoring_options.registry = &scoring_registry;
  rac::env::AnalyticEnv scorer(rac::env::table2_context(1), scoring_options);
  std::map<std::pair<std::vector<int>, std::string>, rac::env::PerfSample> memo;
  const auto score = [&](const std::vector<int>& state,
                         const std::string& context) {
    const auto key = std::make_pair(state, context);
    const auto it = memo.find(key);
    if (it != memo.end()) return it->second;
    std::array<int, rac::config::kNumParams> values{};
    for (std::size_t i = 0; i < values.size() && i < state.size(); ++i) {
      values[i] = state[i];
    }
    scorer.set_context(rac::env::parse_context_token(context));
    const rac::env::PerfSample sample = scorer.evaluate(
        rac::config::Configuration(values));
    memo.emplace(key, sample);
    return sample;
  };
  const rac::config::Configuration defaults;
  const std::vector<int> default_state(defaults.values().begin(),
                                       defaults.values().end());
  long long failed = 0;
  bool in_ranges = true;
  bool bounded = true;
  double rac_sum = 0.0;
  double default_sum = 0.0;
  bool first_sample = true;
  for (const auto& leg : verified.samples) {
    for (const SampleSink::Sample& s : leg) {
      std::vector<int> values = s.state;
      if (args.perturb == "ranges" && first_sample) {
        values[0] = kTable1Ranges[0][1] + 1;
      }
      first_sample = false;
      const bool ok_range = within_table1(values);
      in_ranges = in_ranges && ok_range;
      if (!ok_range || !std::isfinite(s.response_ms)) ++failed;
      const rac::env::PerfSample scored =
          score(args.perturb == "static" ? default_state : s.state, s.context);
      const rac::env::PerfSample baseline = score(default_state, s.context);
      const rac::env::SystemContext context =
          rac::env::parse_context_token(s.context);
      Interactive inputs =
          interactive_inputs(kClients, rac::workload::one_hot_target(context.mix));
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
  outcome.check(in_ranges, "(c) every applied configuration is within Table 1");
  outcome.check(bounded, "(b) X <= N/Z on every measured tenant-interval");
  outcome.check(rac_sum < default_sum,
                "(d) RAC's noiseless mean response is below the static "
                "default's on the same schedules");

  outcome.attempted = rounds * round_ops;
  outcome.failed = rounds * failed;

  report_phases(setup_s, region.seconds, static_cast<int>(rounds),
                seconds_between(verify_start, Clock::now()));
  if (args.trace) {
    add_per_layer(run, traced, outcome);
  } else {
    // The median leg rate: one leg the host slowed down does not move it.
    std::vector<double> leg_rates;
    for (const RoundResult& r : region.rounds) {
      for (const double leg_s : r.leg_seconds) {
        leg_rates.push_back(static_cast<double>(kTenants) * kLeg / leg_s);
      }
    }
    add_end_to_end(outcome, setup_s, median_of(leg_rates), responses, rss_mb,
                   static_cast<double>(verified.final_checkpoint.size()) / 1e6);
  }
  return true;
}

}  // namespace perfbench
