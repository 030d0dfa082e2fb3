#include "obs/slo.hpp"

#include <algorithm>

#include "util/json.hpp"
#include "util/strings.hpp"

namespace pan::obs {

void SloMonitor::add(SloObjective objective) {
  State state;
  state.objective = std::move(objective);
  states_.push_back(std::move(state));
}

SloMonitor::Sample SloMonitor::read(const SloObjective& objective, TimePoint now) const {
  Sample sample;
  sample.at = now;
  if (!objective.latency_histogram.empty()) {
    const Histogram* histogram = registry_.find_histogram(objective.latency_histogram);
    if (histogram == nullptr) return sample;
    sample.total = static_cast<double>(histogram->count());
    // Bad = samples above the threshold: total minus the cumulative count of
    // buckets whose (upper-inclusive) bound is within the threshold.
    std::uint64_t within = 0;
    const auto& bounds = histogram->bounds();
    const auto& counts = histogram->bucket_counts();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      if (bounds[i] > objective.latency_threshold) break;
      within += counts[i];
    }
    sample.bad = sample.total - static_cast<double>(within);
    return sample;
  }
  for (const std::string& name : objective.bad_counters) {
    sample.bad += static_cast<double>(registry_.counter_value(name));
  }
  for (const std::string& name : objective.total_counters) {
    sample.total += static_cast<double>(registry_.counter_value(name));
  }
  return sample;
}

double SloMonitor::burn_over(const State& state, TimePoint now, Duration window) {
  if (state.samples.empty()) return 0;
  const TimePoint cutoff = now - window;
  // Baseline: the latest sample at or before the window start (counters are
  // cumulative, so the delta from it covers exactly the window). Fall back
  // to the oldest sample when history is shorter than the window.
  const Sample* baseline = &state.samples.front();
  for (const Sample& sample : state.samples) {
    if (sample.at > cutoff) break;
    baseline = &sample;
  }
  const Sample& latest = state.samples.back();
  const double total = latest.total - baseline->total;
  const double bad = latest.bad - baseline->bad;
  if (total < static_cast<double>(state.objective.min_events)) return 0;
  const double budget = 1.0 - state.objective.target;
  if (budget <= 0) return 0;
  return (bad / total) / budget;
}

void SloMonitor::evaluate(TimePoint now) {
  for (State& state : states_) {
    // Drop samples that can no longer serve as a long-window baseline
    // (keep one sample at or before the cutoff).
    const TimePoint cutoff = now - state.objective.long_window;
    while (state.samples.size() >= 2 && state.samples[1].at <= cutoff) {
      state.samples.pop_front();
    }
    state.samples.push_back(read(state.objective, now));

    state.burn_short = burn_over(state, now, state.objective.short_window);
    state.burn_long = burn_over(state, now, state.objective.long_window);

    const std::string prefix = "slo." + state.objective.name;
    if (!state.firing && state.burn_short >= state.objective.burn_threshold &&
        state.burn_long >= state.objective.burn_threshold) {
      state.firing = true;
      ++state.fired;
      registry_.counter(prefix + ".fired").inc();
      registry_.events().record(
          now, "slo", "fire",
          strings::format("%s burn short=%.2f long=%.2f", state.objective.name.c_str(),
                          state.burn_short, state.burn_long));
    } else if (state.firing && state.burn_short < state.objective.burn_threshold) {
      state.firing = false;
      ++state.cleared;
      registry_.counter(prefix + ".cleared").inc();
      registry_.events().record(
          now, "slo", "clear",
          strings::format("%s burn short=%.2f long=%.2f", state.objective.name.c_str(),
                          state.burn_short, state.burn_long));
    }
    registry_.gauge(prefix + ".firing").set(state.firing ? 1 : 0);
    registry_.gauge(prefix + ".burn_short").set(state.burn_short);
    registry_.gauge(prefix + ".burn_long").set(state.burn_long);
  }
}

bool SloMonitor::firing(std::string_view name) const {
  for (const State& state : states_) {
    if (state.objective.name == name) return state.firing;
  }
  return false;
}

bool SloMonitor::any_firing() const {
  return std::any_of(states_.begin(), states_.end(),
                     [](const State& state) { return state.firing; });
}

std::string SloMonitor::snapshot_json() const {
  util::JsonWriter w;
  w.begin_array();
  for (const State& state : states_) {
    w.begin_object().field("name", state.objective.name).field("firing", state.firing);
    w.key("burn_short").fixed(state.burn_short, 3).key("burn_long").fixed(state.burn_long, 3);
    w.key("target").fixed(state.objective.target, 4);
    w.field("fired", state.fired).field("cleared", state.cleared).end_object();
  }
  w.end_array();
  return w.take();
}

std::vector<SloObjective> SloMonitor::default_proxy_objectives() {
  std::vector<SloObjective> objectives;

  SloObjective availability;
  availability.name = "availability";
  availability.bad_counters = {"proxy.errors", "proxy.timeouts", "proxy.strict_unavailable"};
  availability.total_counters = {"proxy.requests"};
  availability.target = 0.9;
  availability.burn_threshold = 2.0;  // fires at >20% bad over both windows
  objectives.push_back(std::move(availability));

  SloObjective shed;
  shed.name = "shed-rate";
  shed.bad_counters = {"overload.rejected_rate", "overload.rejected_capacity",
                       "overload.shed_requests"};
  shed.total_counters = {"proxy.requests"};
  shed.target = 0.9;
  shed.burn_threshold = 2.0;
  objectives.push_back(std::move(shed));

  SloObjective latency;
  latency.name = "plt-p95";
  latency.latency_histogram = "proxy.request_total";
  latency.latency_threshold = seconds(2);
  latency.target = 0.95;
  latency.burn_threshold = 2.0;  // fires when >10% of requests run over 2 s
  objectives.push_back(std::move(latency));

  return objectives;
}

}  // namespace pan::obs
