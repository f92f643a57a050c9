// Forwarding layers, the interactive-bound inputs and the small helpers
// shared by the workloads.
#include <algorithm>
#include <bit>
#include <cmath>
#include <iostream>
#include <map>

#include "checks.hpp"
#include "obs/metrics.hpp"
#include "obs/process_stats.hpp"
#include "obs/profiler.hpp"
#include "obs/timer.hpp"
#include "workload/dynamic.hpp"
#include "workloads.hpp"

namespace perfbench {

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  std::cerr << "check failed: " << what << "\n";
  check_failures.push_back(what);
}

double mean_of(const std::vector<double>& values) {
  if (values.empty()) return std::nan("");
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double median_of(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

void report_phases(double setup_s, double region_s, int rounds,
                   double verify_s) {
  std::cerr << "perfbench: set-up " << setup_s << " s, measured region "
            << region_s << " s in " << rounds << " round(s), verification "
            << verify_s << " s\n";
}

double p90_of(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(0.9 * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

double peak_rss_mb() {
  return static_cast<double>(rac::obs::peak_rss_bytes()) / 1e6;
}

rac::env::PerfSample ForwardingEnv::measure(
    const rac::config::Configuration& c) {
  if (spans_->enabled()) note_input(c, nullptr);
  const SpanLog::Scope span(*spans_, "env.measure");
  return inner_->measure(c);
}

rac::env::PerfSample ForwardingEnv::measure_under(
    const rac::workload::TrafficTarget& overlay,
    const rac::config::Configuration& c) {
  if (spans_->enabled()) note_input(c, &overlay);
  const SpanLog::Scope span(*spans_, "env.measure");
  return inner_->measure_under(overlay, c);
}

void ForwardingEnv::note_input(const rac::config::Configuration& c,
                               const rac::workload::TrafficTarget* overlay) {
  const rac::env::SystemContext ctx = inner_->context();
  rac::workload::TrafficTarget target = rac::workload::one_hot_target(ctx.mix);
  if (overlay != nullptr) {
    target = *overlay;
  } else if (inner_->traffic_model() != nullptr &&
             !inner_->traffic_model()->empty()) {
    target = inner_->traffic_model()->target_at(
        static_cast<std::int64_t>(inner_->traffic_interval()), ctx.mix);
  }
  const Interactive inputs =
      interactive_inputs(inner_->options().num_clients, target);
  std::vector<std::uint64_t> key(c.values().begin(), c.values().end());
  key.push_back(static_cast<std::uint64_t>(ctx.level));
  key.push_back(static_cast<std::uint64_t>(inputs.population));
  for (double w : target.mix_weights) key.push_back(std::bit_cast<std::uint64_t>(w));
  key.push_back(std::bit_cast<std::uint64_t>(target.think_scale));
  ++measurements_;
  if (!seen_.insert(std::move(key)).second) ++repeats_;
}

rac::config::Configuration ForwardingAgent::decide() {
  const SpanLog::Scope span(*spans_, "core.rac.decide");
  return inner_->decide();
}

void ForwardingAgent::observe(const rac::config::Configuration& applied,
                              const rac::env::PerfSample& sample) {
  const SpanLog::Scope span(*spans_, "core.rac.observe");
  inner_->observe(applied, sample);
}

Interactive interactive_inputs(int clients,
                               const rac::workload::TrafficTarget& target) {
  Interactive out;
  out.population = std::max(
      1, static_cast<int>(std::lround(clients * target.concurrency_scale)));
  out.think_s = rac::workload::blend_browser_profile(target.mix_weights,
                                                     target.think_scale)
                    .effective_think_mean_s();
  return out;
}

namespace {

double counter_of(const rac::obs::MetricsSnapshot& snapshot,
                  const std::string& name) {
  const rac::obs::CounterSample* sample = snapshot.counter(name);
  return sample == nullptr ? 0.0 : static_cast<double>(sample->value);
}

double sum_exclusive_us(const rac::obs::PhaseNode& node,
                        const std::string& name) {
  double sum = node.name == name ? node.exclusive_us : 0.0;
  for (const rac::obs::PhaseNode& child : node.children) {
    sum += sum_exclusive_us(child, name);
  }
  return sum;
}

}  // namespace

double begin_traced_region(const RunContext& run) {
  run.registry->reset();
  rac::obs::Profiler::default_profiler().reset();
  run.spans->set_enabled(true);
  rac::obs::set_profiling(true);
  return run.spans->now_s();
}

void end_traced_region(const RunContext& run) {
  run.spans->set_enabled(false);
  rac::obs::set_profiling(false);
}

void add_end_to_end(Outcome& outcome, double setup_s, double intervals_per_s,
                    const std::vector<double>& responses, double rss_mb,
                    double checkpoint_mb) {
  outcome.add("setup_s", setup_s, "s");
  outcome.add("intervals_per_s", intervals_per_s, "1/s");
  outcome.add("site_response_ms", mean_of(responses), "ms");
  outcome.add("site_response_p90_ms", p90_of(responses), "ms");
  outcome.add("peak_rss_mb", rss_mb, "MB");
  outcome.add("checkpoint_mb", checkpoint_mb, "MB");
}

void add_per_layer(const RunContext& run, const TracedRegion& traced,
                   Outcome& outcome) {
  const auto setup_spans = run.spans->totals();
  const auto region_spans = run.spans->totals(traced.from_s);
  const auto span_s = [](const std::map<std::string, SpanLog::Totals>& totals,
                         const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_s;
  };
  const rac::obs::PhaseNode phases =
      rac::obs::Profiler::default_profiler().snapshot();
  const auto self_s = [&phases](const char* name) {
    return sum_exclusive_us(phases, name) / 1e6;
  };
  const auto count = [&traced](const char* name) {
    return counter_of(traced.region_counts, name);
  };
  // No spans are recorded outside the stopwatch once the region began.
  const double coverage =
      run.spans->covered_s(traced.from_s, run.spans->now_s()) / traced.seconds;
  outcome.check(coverage > 0.5, "spans cover most of the measured region");

  outcome.add("core.policy_init.s", span_s(setup_spans, "core.build_library"), "s");
  outcome.add("core.policy_init.samples",
              counter_of(traced.setup_counts, "core.policy_init.offline_samples"),
              "count");
  outcome.add("env.measure.s", span_s(region_spans, "env.measure"), "s");
  outcome.add("env.analytic.evaluations", count("env.analytic.evaluations"),
              "count");
  outcome.add("env.repeat_share", traced.repeat_share, "ratio");
  outcome.add("queueing.mva.solves", count("queueing.mva.solves"), "count");
  outcome.add("queueing.mva.throughput_curves",
              count("queueing.mva.throughput_curves"), "count");
  outcome.add("queueing.mva.recursion_steps",
              count("queueing.mva.recursion_steps"), "count");
  outcome.add("queueing.mva.cache_hits", count("queueing.mva.cache_hits"),
              "count");
  outcome.add("queueing.mva.self_s",
              self_s("mva.solve") + self_s("mva.throughput_curve"), "s");
  outcome.add("queueing.mva.knee_rel_error", mva_knee_error(), "ratio");
  outcome.add("core.rac.decide.s", span_s(region_spans, "core.rac.decide"), "s");
  outcome.add("core.rac.observe.s", span_s(region_spans, "core.rac.observe"), "s");
  outcome.add("core.rac.retrains", count("core.rac.retrains"), "count");
  outcome.add("rl.td.sweeps", count("rl.td.sweeps"), "count");
  outcome.add("rl.td.backups", count("rl.td.backups"), "count");
  outcome.add("rl.batch_train.self_s", self_s("rl.batch_train"), "s");
  outcome.add("fleet.run.s", span_s(region_spans, "fleet.run"), "s");
  outcome.add("fleet.retrain.self_s", self_s("fleet.retrain"), "s");
  outcome.add("fleet.tenant_intervals", count("fleet.tenant_intervals"), "count");
  outcome.add("fleet.checkpoint.save_s",
              span_s(region_spans, "fleet.checkpoint.save"), "s");
  outcome.add("fleet.checkpoint.restore_s",
              span_s(region_spans, "fleet.checkpoint.restore"), "s");
  outcome.add("fleet.checkpoint.bytes", traced.checkpoint_bytes, "bytes");
  outcome.add("core.snapshot.bytes", traced.snapshot_bytes, "bytes");
  outcome.add("core.snapshot.save_s", span_s(region_spans, "core.rac.save_state"),
              "s");
  outcome.add("core.snapshot.load_s",
              span_s(region_spans, "core.load_agent_snapshot"), "s");
  outcome.add("obs.span_coverage", coverage, "ratio");
  outcome.add("obs.tracing_overhead_s",
              traced.seconds - traced.untraced_seconds, "s");
}

}  // namespace perfbench
