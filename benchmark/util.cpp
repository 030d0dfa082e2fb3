#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "util/strings.hpp"

namespace pan::benchmark {

void Digest::add(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    state_ ^= (word >> (8 * i)) & 0xff;
    state_ *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  return strings::format("%016llx", static_cast<unsigned long long>(state_));
}

double percentile_of(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = pct / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  // Interpolating toward an infinite neighbour would give inf or NaN; the
  // nearer sample decides instead.
  const double frac = rank - static_cast<double>(lo);
  if (std::isinf(samples[hi])) return frac < 0.5 ? samples[lo] : samples[hi];
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

void record_trace(obs::TraceCollector& collector, std::initializer_list<WallSpan> spans) {
  // Traces are finalized as they are recorded, so the retained count names
  // the next id.
  const std::uint64_t trace = collector.traces().size() + 1;
  const auto at = [](Clock::time_point t) {
    return TimePoint{std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
                         .count()};
  };
  std::uint64_t id = 0;
  for (const WallSpan& span : spans) {
    obs::CollectedSpan out;
    out.trace_id = trace;
    out.span_id = ++id;
    out.parent_id = id == 1 ? 0 : 1;
    out.name = span.name;
    out.component = "benchmark";
    out.start = at(span.start);
    out.duration = at(span.end) - at(span.start);
    collector.record_span(std::move(out));
  }
  collector.finalize(trace, "ok", /*keep=*/true);
}

Rig::Rig(bool traced_run) : traced(traced_run) {
  if (!traced) return;
  registry = std::make_unique<obs::MetricsRegistry>();
  router_metrics = std::make_unique<obs::MetricsRegistry>();
  collector = std::make_unique<obs::TraceCollector>();
}

void Rig::configure(browser::WorldConfig& config) const {
  if (!traced) return;
  config.router_metrics = router_metrics.get();
  config.reverse_proxy.metrics = registry.get();
  config.reverse_proxy.collector = collector.get();
}

void Rig::attach_tracer() {
  if (!traced) return;
  world->topology().network().set_tracer([this](const net::TraceEvent& event) {
    if (event.kind == net::TraceEvent::Kind::kSend) ++packets_sent;
  });
}

}  // namespace pan::benchmark
