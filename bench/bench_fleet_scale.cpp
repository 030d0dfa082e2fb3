// Fleet scaling + recovery bench (the ProxyCluster tentpole).
//
// Part 1 — scale: a strict document stream (one fetch every few ms, 2 s
// deadline each) runs against the local world's Strict-SCION origin through
// a ProxyCluster at N = 1 / 4 / 8 replicas while a scripted chaos plan
// exercises all three replica fault verbs on the replica that owns the
// loaded origin:
//
//   at=2s dur=1s   replica-crash    (process dies, later revives warm)
//   at=4s dur=500ms replica-hang    (answers vanish; probes + hedges rescue)
//   at=6s          replica-restart  (one-shot bounce)
//
// Guarantees checked on every arm, fleet-shed 503s included:
//   * zero strict downgrades (a strict request never completes over IP),
//   * every request resolves within its deadline budget,
//   * N >= 4: the chaos window is fully absorbed (no sheds, no timeouts —
//     failover re-hashing hides rep-0's death entirely).
//
// Part 2 — warm vs cold TTR: the fleet learns the origin's Strict-SCION pin
// from response headers, then the owner replica is bounced *during a DNS
// brownout*. A warm restart (peer cache import) serves strict traffic again
// in ~one request latency; a cold restart (warm_handoff=false) must sit out
// the brownout because the learned pin and the DNS cache died with the
// process. The bench fails unless warm recovery is >= 5x faster.
//
// Run with --smoke for the CI-sized run (the bench_fleet_scale_smoke ctest).
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <algorithm>

#include "core/scenarios.hpp"
#include "obs/metrics.hpp"
#include "proxy/cluster.hpp"
#include "util/stats.hpp"

using namespace pan;

namespace {

constexpr Duration kLoadWindow = seconds(10);
constexpr Duration kDocDeadline = seconds(2);

struct ScaleRun {
  std::size_t replicas = 0;
  std::size_t launched = 0;
  std::size_t completed = 0;
  std::size_t ok = 0;
  std::size_t shed = 0;       // 503 (fleet shed or strict fail-closed)
  std::size_t timed_out = 0;  // 504
  std::size_t failed = 0;
  std::size_t downgrades = 0;          // strict answered over IP: must be 0
  std::size_t deadline_violations = 0; // answered past the budget: must be 0
  double p50_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  proxy::FleetStats fleet;
};

ScaleRun run_scale_once(std::size_t replicas, Duration launch_period) {
  auto world = browser::make_local_world();
  world->site("scion-fs.local")->add_text("/", "document");

  proxy::ClusterConfig config;
  config.replicas = replicas;
  browser::FleetSession session(*world, config);
  proxy::ProxyCluster& cluster = session.cluster();
  // Aim the chaos at the replica that actually owns the loaded origin, so
  // the crash / hang / restart all land on the hot path and failover (not
  // luck of the ring) is what keeps the stream alive.
  const std::string owner = cluster.owner_of("scion-fs.local");
  const std::string chaos = "at=2s dur=1s replica-crash " + owner + "\n" +
                            "at=4s dur=500ms replica-hang " + owner + "\n" +
                            "at=6s replica-restart " + owner + "\n";
  if (!world->schedule_chaos(chaos).ok()) {
    std::fprintf(stderr, "bad scale chaos plan\n");
    return {};
  }

  ScaleRun run;
  run.replicas = replicas;
  std::vector<double> ok_latency_ms;
  sim::Simulator& sim = world->sim();
  const std::size_t total =
      static_cast<std::size_t>(kLoadWindow.nanos() / launch_period.nanos());
  for (std::size_t i = 0; i < total; ++i) {
    sim.schedule_after(launch_period * static_cast<std::int64_t>(i),
                       [&run, &cluster, &sim, &ok_latency_ms] {
      ++run.launched;
      http::HttpRequest request;
      request.method = "GET";
      request.target = "http://scion-fs.local/";
      proxy::ProxyRequestOptions options;
      options.strict = true;
      const TimePoint start = sim.now();
      const TimePoint deadline = start + kDocDeadline;
      options.deadline = deadline;
      cluster.fetch(std::move(request), options,
                    [&run, &sim, &ok_latency_ms, start, deadline](proxy::ProxyResult result) {
                      ++run.completed;
                      if (sim.now() > deadline + milliseconds(1)) ++run.deadline_violations;
                      if (result.transport == proxy::TransportUsed::kIp) ++run.downgrades;
                      const int status = result.response.status;
                      if (status == 200) {
                        ++run.ok;
                        ok_latency_ms.push_back((sim.now() - start).millis());
                      } else if (status == 503) {
                        ++run.shed;
                      } else if (status == 504) {
                        ++run.timed_out;
                      } else {
                        ++run.failed;
                      }
                    });
    });
  }
  // The load window plus a generous drain for the last deadlines.
  sim.run_until(sim.now() + kLoadWindow + seconds(3));

  if (!ok_latency_ms.empty()) {
    run.p50_ms = percentile(ok_latency_ms, 50);
    run.p99_ms = percentile(ok_latency_ms, 99);
    run.p999_ms = percentile(ok_latency_ms, 99.9);
  }
  run.fleet = cluster.stats();
  return run;
}

struct TtrRun {
  double warm_ms = -1;
  double cold_ms = -1;
  std::size_t brownout_downgrades = 0;  // strict over IP during recovery: 0
};

/// One restart-under-brownout recovery measurement. Returns ms from the
/// bounce to the first strict 200 over SCION (-1 = never recovered).
double measure_ttr(bool warm, std::size_t* downgrades) {
  auto world = browser::make_local_world();
  world->site("scion-fs.local")->add_text("/", "document");
  // The origin pins itself via the Strict-SCION response header, so the
  // fleet *learns* it — the pin (not DNS) is what a warm restart preserves.
  world->site("scion-fs.local")->enable_strict_scion(seconds(3600));

  proxy::ClusterConfig config;
  config.replicas = 4;
  config.warm_handoff = warm;
  browser::FleetSession session(*world, config);
  proxy::ProxyCluster& cluster = session.cluster();
  sim::Simulator& sim = world->sim();

  // Warm-up: the owner fetches over SCION, sees the header, learns the pin
  // and broadcasts it fleet-wide.
  for (int i = 0; i < 10; ++i) {
    const proxy::ProxyResult result = session.fetch("http://scion-fs.local/", /*strict=*/true);
    if (result.response.status != 200) {
      std::fprintf(stderr, "warm-up fetch failed (%d)\n", result.response.status);
      return -1;
    }
  }
  const std::string owner = cluster.owner_of("scion-fs.local");
  if (cluster.replica(owner)->detector().learned_size() == 0) {
    std::fprintf(stderr, "owner never learned the Strict-SCION pin\n");
    return -1;
  }

  // DNS goes dark at t=1s for 4s; the owner is bounced at t=2s, mid-brownout.
  const std::string plan = "at=1s dur=4s dns-brownout scion-fs.local mode=servfail\n"
                           "at=2s replica-restart " + owner + "\n";
  if (!world->schedule_chaos(plan).ok()) {
    std::fprintf(stderr, "bad TTR chaos plan\n");
    return -1;
  }
  const TimePoint bounce_at = TimePoint{} + seconds(2);
  sim.run_until(bounce_at + milliseconds(1));

  // Probe every 10 ms until strict traffic flows over SCION again.
  const TimePoint give_up = bounce_at + seconds(10);
  while (sim.now() < give_up) {
    http::HttpRequest request;
    request.method = "GET";
    request.target = "http://scion-fs.local/";
    proxy::ProxyRequestOptions options;
    options.strict = true;
    options.deadline = sim.now() + seconds(1);
    bool done = false;
    proxy::ProxyResult result;
    cluster.fetch(std::move(request), options, [&](proxy::ProxyResult r) {
      result = std::move(r);
      done = true;
    });
    sim.run_until_condition([&] { return done; }, sim.now() + seconds(2));
    if (done && result.transport == proxy::TransportUsed::kIp) ++*downgrades;
    if (done && result.response.status == 200 &&
        result.transport == proxy::TransportUsed::kScion) {
      return (sim.now() - bounce_at).millis();
    }
    sim.run_until(sim.now() + milliseconds(10));
  }
  return -1;
}

TtrRun run_ttr() {
  TtrRun run;
  run.warm_ms = measure_ttr(/*warm=*/true, &run.brownout_downgrades);
  run.cold_ms = measure_ttr(/*warm=*/false, &run.brownout_downgrades);
  return run;
}

/// Part 3 — the deterministic fleet load generator: a `surge` fault verb
/// drives browser::SurgeLoad through the cluster front (consistent hashing +
/// failover) while the owner replica dies mid-surge. The fleet may shed
/// (rejected) but must never let a request hang to 504.
browser::SurgeLoad::Stats run_surge_once(double rate) {
  auto world = browser::make_local_world();
  world->site("scion-fs.local")->add_text("/", "document");

  proxy::ClusterConfig config;
  config.replicas = 4;
  browser::FleetSession session(*world, config);
  proxy::ProxyCluster& cluster = session.cluster();
  browser::SurgeLoad surge(*world, cluster);

  const std::string owner = cluster.owner_of("scion-fs.local");
  const std::string plan =
      "at=100ms dur=4s surge scion-fs.local rate=" + std::to_string(rate) + " conc=64\n" +
      "at=2s dur=1s replica-crash " + owner + "\n";
  if (!world->schedule_chaos(plan).ok()) {
    std::fprintf(stderr, "bad surge plan\n");
    return {};
  }
  world->sim().run_until(world->sim().now() + seconds(8));
  return surge.stats();
}

/// Part 4 — fleet-merge fidelity: every replica records proxy.request_total
/// into its own registry; /skip/fleet/metrics merges those histograms
/// bucket-wise. Because dispatch through the cluster front costs zero sim
/// time on the happy path, the client-observed latency of each request *is*
/// the sample the owning replica recorded — so the pooled client latencies
/// are exact ground truth for the merged histogram, and the merged
/// percentile must land within one bucket width of the pooled-sample
/// percentile (the log-linear layout's resolution; DESIGN.md section 5l).
struct MergeFidelity {
  std::size_t samples = 0;
  std::uint64_t merged_count = 0;
  std::size_t replicas_reporting = 0;
  double worst_error_ms = 0;
  double worst_bound_ms = 0;
  bool pass = false;
};

MergeFidelity run_merge_fidelity_once(std::size_t requests) {
  auto world = browser::make_local_world();
  // Several origins on the same host so consistent hashing spreads the load
  // over multiple replicas — a merge over one replica would test nothing.
  std::vector<std::string> origins;
  for (int i = 0; i < 8; ++i) {
    const std::string domain = "origin-" + std::to_string(i) + ".local";
    const std::uint16_t port = static_cast<std::uint16_t>(8080 + i);
    // Distinct ports: the sites share the scion-fs host and a host's SCION
    // stack has one listener per port.
    browser::SiteOptions options;
    options.legacy = false;
    options.native_scion = true;
    options.port = port;
    world->add_site(world->topology().host_by_name("scion-fs"), domain, options);
    world->site(domain)->add_text("/", "document");
    origins.push_back("http://" + domain + ":" + std::to_string(port) + "/");
  }

  proxy::ClusterConfig config;
  config.replicas = 4;
  // No health probes: /skip/ping rides through each replica's request path
  // and would land in proxy.request_total too, spoiling the exact
  // count-vs-pooled-samples comparison. The scrape-time pull in
  // refresh_fleet_metrics() feeds the aggregator instead.
  config.probe_interval = Duration::zero();
  browser::FleetSession session(*world, config);
  proxy::ProxyCluster& cluster = session.cluster();
  sim::Simulator& sim = world->sim();

  MergeFidelity out;
  std::vector<Duration> pooled;
  for (std::size_t i = 0; i < requests; ++i) {
    sim.schedule_after(milliseconds(3) * static_cast<std::int64_t>(i),
                       [&cluster, &sim, &pooled, &origins, i] {
      http::HttpRequest request;
      request.method = "GET";
      request.target = origins[i % origins.size()];
      const TimePoint start = sim.now();
      cluster.fetch(std::move(request), {}, [&sim, &pooled, start](proxy::ProxyResult result) {
        if (result.response.status == 200) pooled.push_back(sim.now() - start);
      });
    });
  }
  sim.run_until(sim.now() + milliseconds(3) * static_cast<std::int64_t>(requests) + seconds(3));
  out.samples = pooled.size();
  if (pooled.empty()) return out;

  cluster.refresh_fleet_metrics();
  obs::MetricsRegistry merged;
  cluster.fleet_metrics().build_merged(merged);
  const obs::Histogram* hist = merged.find_histogram("proxy.request_total");
  if (hist == nullptr) return out;
  out.merged_count = hist->count();
  for (const std::string& name : cluster.replica_names()) {
    obs::MetricsRegistry replica;
    if (cluster.fleet_metrics().build_replica(name, replica)) {
      const obs::Histogram* h = replica.find_histogram("proxy.request_total");
      if (h != nullptr && h->count() > 0) ++out.replicas_reporting;
    }
  }

  std::sort(pooled.begin(), pooled.end());
  out.pass = out.merged_count == pooled.size() && out.replicas_reporting >= 2;
  for (const double pct : {50.0, 90.0, 99.0, 99.9}) {
    // Nearest-rank ground truth over the pooled samples.
    const std::size_t rank = std::min(
        pooled.size() - 1,
        static_cast<std::size_t>(pct / 100.0 * static_cast<double>(pooled.size())));
    const Duration truth = pooled[rank];
    // Width of the layout bucket containing the true value = the promised
    // resolution at that point of the distribution.
    const auto& bounds = hist->bounds();
    const auto it = std::lower_bound(bounds.begin(), bounds.end(), truth);
    const Duration upper = it == bounds.end() ? truth : *it;
    const Duration lower = it == bounds.begin() ? Duration::zero() : *(it - 1);
    const double bound_ms = (upper - lower).millis();
    const double error_ms =
        std::abs((hist->percentile(pct) - truth).millis());
    if (error_ms > out.worst_error_ms) {
      out.worst_error_ms = error_ms;
      out.worst_bound_ms = bound_ms;
    }
    if (error_ms > bound_ms) out.pass = false;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  // Smoke keeps the same 10 s sim window (the chaos plan needs it) but
  // launches fewer requests; p99.9 is coarser and the run is CI-cheap.
  const Duration launch_period = smoke ? milliseconds(5) : milliseconds(2);

  std::printf("fleet scale: strict stream @ 1/%.0f ms, chaos on the owner replica (%s)\n",
              launch_period.millis(), smoke ? "smoke" : "full");
  std::printf("%4s %8s %8s %6s %6s %6s %9s %9s %9s %9s %7s\n", "N", "launched", "ok",
              "shed", "504", "downgr", "p50ms", "p99ms", "p99.9ms", "failovers", "crashes");

  bool pass = true;
  std::vector<ScaleRun> runs;
  for (const std::size_t replicas : {1u, 4u, 8u}) {
    const ScaleRun run = run_scale_once(replicas, launch_period);
    runs.push_back(run);
    std::printf("%4zu %8zu %8zu %6zu %6zu %6zu %9.2f %9.2f %9.2f %9llu %7llu\n",
                run.replicas, run.launched, run.ok, run.shed, run.timed_out,
                run.downgrades, run.p50_ms, run.p99_ms, run.p999_ms,
                static_cast<unsigned long long>(run.fleet.failovers),
                static_cast<unsigned long long>(run.fleet.crashes));

    if (run.completed != run.launched) {
      std::fprintf(stderr, "FAIL N=%zu: %zu of %zu requests never resolved\n",
                   run.replicas, run.launched - run.completed, run.launched);
      pass = false;
    }
    if (run.downgrades != 0) {
      std::fprintf(stderr, "FAIL N=%zu: %zu strict request(s) downgraded to IP\n",
                   run.replicas, run.downgrades);
      pass = false;
    }
    if (run.deadline_violations != 0) {
      std::fprintf(stderr, "FAIL N=%zu: %zu request(s) resolved past the deadline\n",
                   run.replicas, run.deadline_violations);
      pass = false;
    }
    if (run.replicas >= 4 && (run.shed != 0 || run.timed_out != 0 || run.ok != run.launched)) {
      std::fprintf(stderr,
                   "FAIL N=%zu: chaos leaked through failover (ok=%zu shed=%zu 504=%zu)\n",
                   run.replicas, run.ok, run.shed, run.timed_out);
      pass = false;
    }
    if (run.replicas >= 4 && run.fleet.failovers == 0) {
      std::fprintf(stderr, "FAIL N=%zu: chaos on the owner never exercised failover\n",
                   run.replicas);
      pass = false;
    }
    // Fixed p99.9 regression bound: a successful request costs at most one
    // ProxyCluster::kFailoverTimeout hedge plus generous fetch slack. Today's numbers are
    // ~401 ms (N>=4, the hedged hang window) and ~5 ms (N=1, no hedging).
    const double p999_bound_ms = run.replicas >= 4 ? 500.0 : 100.0;
    if (run.p999_ms > p999_bound_ms) {
      std::fprintf(stderr, "FAIL N=%zu: p99.9 %.2f ms over the %.0f ms bound\n",
                   run.replicas, run.p999_ms, p999_bound_ms);
      pass = false;
    }
  }

  const browser::SurgeLoad::Stats surge = run_surge_once(smoke ? 200.0 : 500.0);
  std::printf("\nsurge through the fleet (N=4, owner crashed mid-surge):\n");
  std::printf("  launched %llu  completed %llu  rejected %llu  timed-out %llu  failed %llu\n",
              static_cast<unsigned long long>(surge.launched),
              static_cast<unsigned long long>(surge.completed),
              static_cast<unsigned long long>(surge.rejected),
              static_cast<unsigned long long>(surge.timed_out),
              static_cast<unsigned long long>(surge.failed));
  if (surge.launched == 0 || surge.timed_out != 0 || surge.failed != 0 ||
      surge.completed < surge.launched * 9 / 10) {
    std::fprintf(stderr, "FAIL: surge leaked through the fleet (see stats above)\n");
    pass = false;
  }

  const TtrRun ttr = run_ttr();
  std::printf("\nrestart under DNS brownout (N=4, owner bounced mid-brownout):\n");
  std::printf("  warm handoff: TTR %8.1f ms\n", ttr.warm_ms);
  std::printf("  cold restart: TTR %8.1f ms\n", ttr.cold_ms);
  if (ttr.warm_ms > 0 && ttr.cold_ms > 0) {
    std::printf("  warm is %.1fx faster\n", ttr.cold_ms / ttr.warm_ms);
  }
  if (ttr.warm_ms < 0 || ttr.cold_ms < 0) {
    std::fprintf(stderr, "FAIL: recovery never observed (warm=%.1f cold=%.1f)\n",
                 ttr.warm_ms, ttr.cold_ms);
    pass = false;
  } else if (ttr.cold_ms < 5.0 * ttr.warm_ms) {
    std::fprintf(stderr, "FAIL: warm handoff only %.1fx faster than cold (need >= 5x)\n",
                 ttr.cold_ms / ttr.warm_ms);
    pass = false;
  }
  if (ttr.brownout_downgrades != 0) {
    std::fprintf(stderr, "FAIL: %zu strict downgrade(s) during brownout recovery\n",
                 ttr.brownout_downgrades);
    pass = false;
  }

  const MergeFidelity fidelity = run_merge_fidelity_once(smoke ? 400 : 2000);
  std::printf("\nfleet-merge fidelity (N=4, %zu pooled samples, %zu replicas reporting):\n",
              fidelity.samples, fidelity.replicas_reporting);
  std::printf("  merged count %llu, worst percentile error %.3f ms "
              "(bucket-width bound %.3f ms)\n",
              static_cast<unsigned long long>(fidelity.merged_count),
              fidelity.worst_error_ms, fidelity.worst_bound_ms);
  if (!fidelity.pass) {
    std::fprintf(stderr,
                 "FAIL: fleet-merged percentiles drift past one bucket width "
                 "of the pooled ground truth (or a replica went missing)\n");
    pass = false;
  }

  std::printf("\nfleet-scale: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
