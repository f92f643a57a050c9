// The benchmark's workloads and the forwarding layers its spans hang on.
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/agent.hpp"
#include "core/rac_agent.hpp"
#include "env/analytic_env.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"

namespace perfbench {

/// Everything a workload run shares: the arguments, the process start, the
/// span log and the private registry every layer reports into.
struct RunContext {
  Args args;
  Clock::time_point process_start;
  SpanLog* spans = nullptr;
  rac::obs::Registry* registry = nullptr;
};

/// Forwards every call to an AnalyticEnv, with a span around each
/// measurement. In a traced run it also counts measurements whose model
/// input -- configuration, VM level, population and traffic blend --
/// already occurred earlier in the round (env.repeat_share).
class ForwardingEnv final : public rac::env::Environment {
 public:
  ForwardingEnv(std::unique_ptr<rac::env::AnalyticEnv> inner, SpanLog& spans)
      : inner_(std::move(inner)), spans_(&spans) {}

  rac::env::PerfSample measure(const rac::config::Configuration& c) override;
  rac::env::PerfSample measure_under(
      const rac::workload::TrafficTarget& overlay,
      const rac::config::Configuration& c) override;
  void set_context(const rac::env::SystemContext& context) override {
    inner_->set_context(context);
  }
  rac::env::SystemContext context() const override { return inner_->context(); }
  void set_traffic_model(
      std::shared_ptr<const rac::workload::TrafficModel> model) override {
    inner_->set_traffic_model(std::move(model));
  }
  std::shared_ptr<const rac::workload::TrafficModel> traffic_model()
      const override {
    return inner_->traffic_model();
  }
  std::uint64_t traffic_interval() const override {
    return inner_->traffic_interval();
  }
  void seek_traffic(std::uint64_t interval) override {
    inner_->seek_traffic(interval);
  }

  long long measurements() const noexcept { return measurements_; }
  long long repeats() const noexcept { return repeats_; }

 private:
  void note_input(const rac::config::Configuration& c,
                  const rac::workload::TrafficTarget* overlay);

  std::unique_ptr<rac::env::AnalyticEnv> inner_;
  SpanLog* spans_;
  std::set<std::vector<std::uint64_t>> seen_;
  long long measurements_ = 0;
  long long repeats_ = 0;
};

/// Forwards decide/observe to a RacAgent, with a span around each call.
class ForwardingAgent final : public rac::core::ConfigAgent {
 public:
  ForwardingAgent(rac::core::RacAgent& inner, SpanLog& spans)
      : inner_(&inner), spans_(&spans) {}

  rac::config::Configuration decide() override;
  void observe(const rac::config::Configuration& applied,
               const rac::env::PerfSample& sample) override;
  std::string name() const override { return inner_->name(); }
  void annotate(rac::obs::TraceEvent& event) const override {
    inner_->annotate(event);
  }

 private:
  rac::core::RacAgent* inner_;
  SpanLog* spans_;
};

/// The population and effective think time the analytic model runs
/// with for `clients` browsers under `target`: the inputs of the
/// interactive bound X <= N / Z.
struct Interactive {
  int population = 0;
  double think_s = 0.0;
};
Interactive interactive_inputs(int clients,
                               const rac::workload::TrafficTarget& target);

/// A traced run measures its region twice: untraced, then traced with the
/// same number of rounds. These are the figures the per-layer metrics need
/// beyond the spans and the program's phase tree.
struct TracedRegion {
  double from_s = 0.0;            // span-log time the traced region began
  double seconds = 0.0;           // stopwatch time of the traced region
  double untraced_seconds = 0.0;  // the same rounds, untraced
  rac::obs::MetricsSnapshot setup_counts;
  rac::obs::MetricsSnapshot region_counts;
  double repeat_share = 0.0;
  double snapshot_bytes = 0.0;
  double checkpoint_bytes = 0.0;
};

/// Start the traced region: zero the registry and the phase tree, switch
/// spans and the program's profiler on. Returns the span-log time.
double begin_traced_region(const RunContext& run);
/// Switch spans and the profiler off again.
void end_traced_region(const RunContext& run);

/// The end-to-end metrics, in BENCHMARK.json order.
void add_end_to_end(Outcome& outcome, double setup_s, double intervals_per_s,
                    const std::vector<double>& responses, double rss_mb,
                    double checkpoint_mb);

/// Every per-layer metric; a layer the workload does not run reads 0.
/// Also checks that the spans cover most of the traced region.
void add_per_layer(const RunContext& run, const TracedRegion& traced,
                   Outcome& outcome);

/// Run one workload. Return false for an unknown workload name.
bool run_single_agent(const RunContext& run, Outcome& outcome);
bool run_fleet(const RunContext& run, Outcome& outcome);

}  // namespace perfbench
