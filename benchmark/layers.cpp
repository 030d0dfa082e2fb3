// Per-layer metrics, all read from outside the system: counters and
// histograms the layers already keep, deltas taken around the timed phase,
// and probes that time one public call in isolation.
#include <algorithm>

#include "bench.hpp"
#include "util/strings.hpp"

namespace pan::benchmark {
namespace {

const char* const kProxyPhases[] = {"ipc", "detect", "select", "handshake", "fetch"};

/// Percentile in ms of a registry histogram (0 when absent or empty).
[[nodiscard]] double percentile_ms(const obs::MetricsRegistry* registry, const std::string& name,
                                   double pct) {
  const obs::Histogram* histogram = registry == nullptr ? nullptr : registry->find_histogram(name);
  return histogram == nullptr || histogram->count() == 0 ? 0.0
                                                         : histogram->percentile(pct).millis();
}

/// Median of `reps` runs of `once`, which returns a time per operation.
template <typename Fn>
[[nodiscard]] double median_of_runs(int reps, Fn once) {
  std::vector<double> runs;
  for (int i = 0; i < reps; ++i) runs.push_back(once());
  return percentile_of(std::move(runs), 50);
}

}  // namespace

LayerMark mark_layers(Rig& rig) {
  LayerMark mark;
  scion::Topology& topo = rig.world->topology();
  const net::Network& network = topo.network();
  mark.net_bytes = network.total_bytes_sent();
  const net::Network::DropTotals drops = network.drop_totals();
  mark.net_drops = drops.loss + drops.queue + drops.mtu + drops.down;
  mark.packets = rig.packets_sent;
  for (const scion::IsdAsn ia : topo.all_ases()) {
    const scion::BorderRouterStats& stats = topo.border_router_stats(ia);
    mark.hops += stats.forwarded;
    mark.scion_drops += stats.total_drops();
  }
  for (const http::FileServer* origin : rig.origins) mark.origin_hits += origin->hits();
  if (rig.fleet) mark.failovers = rig.fleet->cluster().stats().failovers;
  if (rig.registry) {
    const obs::MetricsRegistry& registry = *rig.registry;
    mark.retries = registry.counter_value("proxy.retries");
    // Every connection pool (proxy, reverse proxy, direct browser) counts
    // into pool.<name>.hits / .misses.
    for (const auto& [name, counter] : registry.counters()) {
      if (!strings::starts_with(name, "pool.")) continue;
      if (strings::ends_with(name, ".hits")) mark.pool_hits += counter.value();
      if (strings::ends_with(name, ".misses")) mark.pool_misses += counter.value();
    }
    if (const obs::Histogram* handshakes = registry.find_histogram("transport.handshake")) {
      mark.handshakes = handshakes->count();
    }
  }
  return mark;
}

std::map<std::string, double> layer_metrics(Rig& rig, const LayerMark& before,
                                            const PhaseResult& phase) {
  // Only traced rigs have the registries read below.
  const LayerMark after = mark_layers(rig);
  const double units = static_cast<double>(std::max<std::size_t>(1, phase.attempted));
  const auto per_unit = [units](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b) / units;
  };
  const auto p50_or_zero = [](const std::vector<double>& values) {
    return values.empty() ? 0.0 : percentile_of(values, 50);
  };

  std::map<std::string, double> m;
  m["sim.events_per_unit"] = static_cast<double>(phase.events) / units;
  m["sim.wall_ns_per_event"] =
      phase.events == 0 ? 0 : phase.wall_s * 1e9 / static_cast<double>(phase.events);
  m["sim.wall_growth_q4_q1"] = phase.wall_growth_q4_q1;
  m["core.session_build_us"] = p50_or_zero(phase.build_us);
  m["core.load_wall_us"] = p50_or_zero(phase.load_us);
  m["core.session_teardown_us"] = p50_or_zero(phase.teardown_us);
  m["net.packets_per_unit"] = per_unit(after.packets, before.packets);
  m["net.bytes_per_unit"] = per_unit(after.net_bytes, before.net_bytes);
  m["net.drops_per_unit"] = per_unit(after.net_drops, before.net_drops);
  m["scion.hops_forwarded_per_unit"] = per_unit(after.hops, before.hops);
  m["scion.drops_per_unit"] = per_unit(after.scion_drops, before.scion_drops);
  obs::Histogram forward;  // every border router's, merged
  for (const auto& [name, histogram] : rig.router_metrics->histograms()) {
    if (strings::ends_with(name, ".forward_latency")) (void)forward.merge(histogram);
  }
  m["scion.forward_latency_p50_us"] = forward.count() == 0 ? 0.0 : forward.percentile(50).micros();
  m["crypto.beacon_verifications"] =
      static_cast<double>(rig.world->topology().beacon_verifications());
  const obs::MetricsRegistry* registry = rig.registry.get();
  m["transport.handshake_p50_ms"] = percentile_ms(registry, "transport.handshake", 50);
  m["transport.handshakes_per_unit"] = per_unit(after.handshakes, before.handshakes);
  m["http.pool_queue_wait_p99_ms"] = percentile_ms(registry, "pool.queue_wait", 99);
  const std::uint64_t hits = after.pool_hits - before.pool_hits;
  const std::uint64_t misses = after.pool_misses - before.pool_misses;
  m["http.pool_hit_ratio"] =
      hits + misses == 0 ? 0 : static_cast<double>(hits) / static_cast<double>(hits + misses);
  m["http.origin_responses_per_unit"] = per_unit(after.origin_hits, before.origin_hits);
  for (const char* phase_name : kProxyPhases) {
    m[std::string("proxy.") + phase_name + "_p50_ms"] =
        percentile_ms(registry, std::string("proxy.phase.") + phase_name, 50);
  }
  m["proxy.request_total_p99_ms"] = percentile_ms(registry, "proxy.request_total", 99);
  m["proxy.retries_per_unit"] = per_unit(after.retries, before.retries);
  m["proxy.fleet_failovers"] = static_cast<double>(after.failovers - before.failovers);
  return m;
}

double probe_event_ns() {
  constexpr int kBatches = 100;
  constexpr int kBatch = 10'000;
  return median_of_runs(3, [] {
    sim::Simulator sim;
    std::uint64_t fired = 0;
    const auto start = Clock::now();
    for (int b = 0; b < kBatches; ++b) {
      for (int i = 0; i < kBatch; ++i) {
        sim.schedule_after(Duration{i}, [&fired] { ++fired; });
      }
      sim.run();
    }
    return seconds_between(start, Clock::now()) * 1e9 / static_cast<double>(fired);
  });
}

double probe_cancel_ns() {
  constexpr int kBatches = 100;
  constexpr int kBatch = 10'000;
  return median_of_runs(3, [] {
    sim::Simulator sim;
    std::vector<sim::EventId> ids(kBatch);
    const auto start = Clock::now();
    for (int b = 0; b < kBatches; ++b) {
      for (int i = 0; i < kBatch; ++i) ids[i] = sim.schedule_after(Duration{i}, [] {});
      for (const sim::EventId id : ids) sim.cancel(id);
      sim.run();  // pops the tombstones
    }
    return seconds_between(start, Clock::now()) * 1e9 / (kBatches * kBatch);
  });
}

double probe_origin_handler_us(const Workload& workload) {
  constexpr int kCalls = 200;
  sim::Simulator sim;
  http::FileServer origin(sim);
  http::HttpRequest request;
  request.method = "GET";
  request.target = workload.add_probe_resource(origin);
  const http::HttpServer::Handler handler = origin.handler();
  return median_of_runs(5, [&] {
    std::size_t served = 0;
    const auto start = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      handler(request, [&served](http::HttpResponse response) {
        served += response.status == 200 ? 1 : 0;
      });
    }
    const double us = seconds_between(start, Clock::now()) * 1e6 / kCalls;
    return served == kCalls ? us : 0.0;
  });
}

}  // namespace pan::benchmark
