// Ablation 6: native inter-domain multipath (paper, Section 1).
//
// Section A — path aggregation. In a bandwidth-bound regime (20 Mbps core
// links) a single SCION path caps throughput; striping HTTP exchanges across
// disjoint paths aggregates it. We download a batch of objects through one
// connection on the best path vs a MultipathScionConnection over the
// disjoint path pair, for each scheduling policy, and report completion time
// plus the per-channel split.
//
// Section B — intent-aware vs intent-blind access scheduling. A multi-access
// client (wired + LTE-class access into different first-hop ASes) loads
// documents (latency-critical) concurrently with bulk objects. Intent-aware
// scheduling pins documents to the fast access and stripes only the bulk;
// the intent-blind ablation stripes everything, putting a share of the
// documents on the slow access. Hard assertion: intent-aware mean document
// latency must beat intent-blind.
//
// Section C — mid-load access failure. The primary access link dies while a
// batch of strict documents is mid-flight. The multi-access proxy must
// finish 100% of them within their deadline on the surviving access with
// zero strict downgrades (hard assertions); the single-access baseline
// demonstrably cannot.
#include <cstdio>

#include "bench_util.hpp"
#include "core/scenarios.hpp"
#include "http/multipath.hpp"
#include "net/multi_access.hpp"
#include "proxy/skip_proxy.hpp"

using namespace pan;

namespace {

constexpr int kObjects = 24;
constexpr std::size_t kObjectBytes = 250'000;

double run_single(browser::World& world) {
  auto& topo = world.topology();
  const auto rp = topo.host_by_name("far-rp1");
  const auto paths = topo.daemon_for(world.client).query_now(topo.as_of(rp));
  http::ScionHttpConnection conn(topo.scion_stack(world.client),
                                 scion::ScionEndpoint{topo.scion_addr(rp), 80},
                                 paths.front().dataplane());
  int done = 0;
  const TimePoint t0 = world.sim().now();
  for (int i = 0; i < kObjects; ++i) {
    http::HttpRequest req;
    req.target = "/obj" + std::to_string(i) + ".bin";
    req.headers.set("Host", "www.far.example");
    conn.fetch(req, [&](Result<http::HttpResponse> r) {
      if (r.ok() && r.value().ok()) ++done;
    });
  }
  world.sim().run_until_condition([&] { return done == kObjects; },
                                  world.sim().now() + seconds(300));
  const double elapsed = (world.sim().now() - t0).millis();
  conn.close();
  world.sim().run_for(seconds(1));
  return done == kObjects ? elapsed : -1;
}

double run_multipath(browser::World& world, http::MultipathConfig::Schedule schedule,
                     std::string* split) {
  auto& topo = world.topology();
  const auto rp = topo.host_by_name("far-rp1");
  auto paths = topo.daemon_for(world.client).query_now(topo.as_of(rp));
  // Keep the two disjoint 3-link paths (drop the 4-link detours).
  std::vector<scion::Path> disjoint;
  for (const auto& p : paths) {
    if (p.link_count() == 3) disjoint.push_back(p);
  }
  http::MultipathConfig config;
  config.schedule = schedule;
  http::MultipathScionConnection conn(topo.scion_stack(world.client),
                                      scion::ScionEndpoint{topo.scion_addr(rp), 80},
                                      disjoint, config);
  int done = 0;
  const TimePoint t0 = world.sim().now();
  for (int i = 0; i < kObjects; ++i) {
    http::HttpRequest req;
    req.target = "/obj" + std::to_string(i) + ".bin";
    req.headers.set("Host", "www.far.example");
    conn.fetch(req, [&](Result<http::HttpResponse> r) {
      if (r.ok() && r.value().ok()) ++done;
    });
  }
  world.sim().run_until_condition([&] { return done == kObjects; },
                                  world.sim().now() + seconds(300));
  const double elapsed = (world.sim().now() - t0).millis();
  if (split != nullptr) {
    split->clear();
    for (const auto& stats : conn.channel_stats()) {
      if (!split->empty()) *split += " / ";
      *split += std::to_string(stats.requests) + " reqs";
    }
  }
  conn.close();
  world.sim().run_for(seconds(1));
  return done == kObjects ? elapsed : -1;
}

std::unique_ptr<browser::World> make_world() {
  browser::WorldConfig config;
  config.seed = 77;
  config.link_jitter = 0.03;
  config.core_bandwidth_bps = 20e6;   // the bottleneck
  config.child_bandwidth_bps = 1e9;   // shared segments stay wide
  auto world = browser::make_remote_world(config);
  auto& site = *world->site("www.far.example");
  for (int i = 0; i < kObjects; ++i) {
    site.add_blob("/obj" + std::to_string(i) + ".bin", kObjectBytes);
  }
  return world;
}

// ----------------------------------------------------------- Section B/C --

/// A multi-access client bundle: SKIP proxy on the wired browser host plus
/// the LTE attachment registered as a second access. `single_access` skips
/// the registration for the baseline arm.
struct AccessClient {
  std::unique_ptr<browser::World> world;
  std::unique_ptr<dns::Resolver> resolver;
  std::unique_ptr<proxy::SkipProxy> proxy;

  AccessClient(bool multi, bool intent_aware, std::size_t blobs, std::size_t blob_bytes) {
    browser::WorldConfig config;
    config.seed = 99;
    config.link_jitter = 0.02;
    config.multi_access = true;  // the LTE host exists even for the baseline
    world = browser::make_remote_world(config);
    auto& site = *world->site("www.far.example");
    site.add_blob("/doc.html", 16'000);
    for (std::size_t i = 0; i < blobs; ++i) {
      site.add_blob("/obj" + std::to_string(i) + ".bin", blob_bytes);
    }
    auto& topo = world->topology();
    resolver = std::make_unique<dns::Resolver>(world->sim(), world->zone(),
                                               dns::ResolverConfig{});
    proxy::ProxyConfig proxy_config;
    proxy_config.intent_aware = intent_aware;
    proxy_config.access.probe_interval = milliseconds(20);
    proxy_config.access.probe_timeout = milliseconds(50);
    proxy_config.access.down_after_misses = 2;
    proxy = std::make_unique<proxy::SkipProxy>(
        world->sim(), topo.host(world->client), topo.scion_stack(world->client),
        topo.daemon_for(world->client), *resolver, proxy_config);
    if (multi) {
      proxy->add_access("lte", topo.host(*world->client_lte),
                        topo.scion_stack(*world->client_lte),
                        topo.daemon_for(*world->client_lte));
    }
    world->sim().run_for(seconds(1));  // probe warm-up
  }

  void fetch(const std::string& path, const std::string& intent, bool strict,
             TimePoint deadline, std::function<void(proxy::ProxyResult)> on_result) {
    http::HttpRequest request;
    request.target = "http://www.far.example" + path;
    request.headers.set(std::string(net::kIntentHeader), intent);
    proxy::ProxyRequestOptions options;
    options.strict = strict;
    options.deadline = deadline;
    proxy->fetch(std::move(request), options, std::move(on_result));
  }
};

struct IntentRunStats {
  double doc_mean_ms = 0;
  double doc_max_ms = 0;
  std::size_t docs_on_primary = 0;
  std::size_t docs_total = 0;
};

/// Measures document latency against a continuous bulk backdrop: a window
/// of bulk transfers is kept in flight (each completion re-issues one) so
/// the striping wheel keeps turning, and documents are fetched one after
/// another through the churn. Intent-aware pins every document to the fast
/// wired access; the intent-blind ablation sends all traffic round the
/// striping wheel, so a share of the documents pays the LTE access's extra
/// 15 ms each way. The bulk window is sized to keep both accesses busy
/// without saturating either — the ablation isolates the placement effect,
/// not self-induced bufferbloat.
IntentRunStats run_intent_arm(bool intent_aware) {
  constexpr int kDocs = 12;
  constexpr int kBulkWindow = 4;
  AccessClient client(/*multi=*/true, intent_aware, kBulkWindow, 60'000);
  sim::Simulator& sim = client.world->sim();
  IntentRunStats stats;
  std::vector<double> doc_ms;

  bool bulk_running = true;
  int bulk_inflight = 0;
  std::function<void(int)> issue_bulk = [&](int slot) {
    if (!bulk_running) return;
    ++bulk_inflight;
    client.fetch("/obj" + std::to_string(slot) + ".bin", "bulk", false,
                 sim.now() + seconds(30), [&, slot](proxy::ProxyResult) {
                   --bulk_inflight;
                   issue_bulk(slot);  // keep the window full while docs run
                 });
  };
  for (int i = 0; i < kBulkWindow; ++i) issue_bulk(i);
  sim.run_for(milliseconds(100));  // let the striping wheel reach steady state

  for (int i = 0; i < kDocs; ++i) {
    bool done = false;
    const TimePoint begun = sim.now();
    client.fetch("/doc.html", "latency-critical", false, sim.now() + seconds(30),
                 [&](proxy::ProxyResult result) {
                   done = true;
                   if (result.response.ok()) {
                     doc_ms.push_back((sim.now() - begun).millis());
                     ++stats.docs_total;
                     if (result.access == "primary") ++stats.docs_on_primary;
                   }
                 });
    sim.run_until_condition([&] { return done; }, sim.now() + seconds(60));
  }
  bulk_running = false;
  sim.run_until_condition([&] { return bulk_inflight == 0; }, sim.now() + seconds(60));

  for (const double ms : doc_ms) {
    stats.doc_mean_ms += ms;
    stats.doc_max_ms = std::max(stats.doc_max_ms, ms);
  }
  if (!doc_ms.empty()) stats.doc_mean_ms /= static_cast<double>(doc_ms.size());
  return stats;
}

struct FailoverRunStats {
  std::size_t docs = 0;
  std::size_t within_deadline = 0;
  std::size_t gateway_timeouts = 0;  // 504s — the hang-to-deadline outcome
  std::uint64_t strict_unavailable = 0;
  std::uint64_t failovers = 0;
};

/// Launches a batch of strict documents, kills the primary access 5 ms in,
/// and counts how many complete within their original deadline.
FailoverRunStats run_failover_arm(bool multi) {
  constexpr int kDocs = 8;
  AccessClient client(multi, /*intent_aware=*/true, 0, 0);
  sim::Simulator& sim = client.world->sim();
  FailoverRunStats stats;
  stats.docs = kDocs;
  client.world->site("www.far.example")->add_blob("/page.html", 100'000);
  int outstanding = 0;
  const TimePoint deadline = sim.now() + seconds(2);
  for (int i = 0; i < kDocs; ++i) {
    ++outstanding;
    client.fetch("/page.html", "latency-critical", /*strict=*/true, deadline,
                 [&](proxy::ProxyResult result) {
                   --outstanding;
                   if (result.response.ok() && sim.now() <= deadline) {
                     ++stats.within_deadline;
                   }
                   if (result.response.status == 504) ++stats.gateway_timeouts;
                 });
  }
  // Cut the primary access mid-flight (the verb the chaos plans use).
  sim.schedule_after(milliseconds(5), [&] {
    net::Network& net = client.world->topology().network();
    net.set_link_up(net.find_node("browser"), 0, false);
  });
  sim.run_until_condition([&] { return outstanding == 0; }, sim.now() + seconds(30));
  const obs::MetricsRegistry& registry = client.proxy->metrics();
  stats.strict_unavailable = registry.counter_value("proxy.strict_unavailable");
  stats.failovers = registry.counter_value("proxy.access_failovers");
  return stats;
}

}  // namespace

int main() {
  std::printf("Ablation — multipath aggregation: %d x %zu kB over 20 Mbps core links\n\n",
              kObjects, kObjectBytes / 1000);
  std::printf("%-34s %12s  %s\n", "configuration", "total ms", "request split");

  {
    auto world = make_world();
    std::printf("%-34s %12.1f  %s\n", "single path (best latency)", run_single(*world), "-");
  }
  for (const auto schedule : {http::MultipathConfig::Schedule::kRoundRobin,
                              http::MultipathConfig::Schedule::kLeastOutstanding,
                              http::MultipathConfig::Schedule::kWeightedLatency}) {
    auto world = make_world();
    std::string split;
    const double elapsed = run_multipath(*world, schedule, &split);
    std::printf("%-34s %12.1f  %s\n",
                ("multipath, " + std::string(to_string(schedule))).c_str(), elapsed,
                split.c_str());
  }

  std::printf("\nAggregating the disjoint path pair cuts the bandwidth-bound completion time;\n"
              "the gain is sub-2x because the second path has ~3x the RTT (84 ms vs 30 ms)\n"
              "and ramps its window slower. The weighted-latency scheduler shifts load onto\n"
              "the fast path (18/6 split) and wins — path metadata steering the transport.\n");

  int failures = 0;

  std::printf("\nSection B — intent-aware vs intent-blind access scheduling\n");
  std::printf("(wired 200us + LTE 15ms accesses; 12 documents against a 4-deep bulk window)\n\n");
  std::printf("%-34s %14s %14s %18s\n", "configuration", "doc mean ms", "doc max ms",
              "docs on primary");
  const IntentRunStats aware = run_intent_arm(/*intent_aware=*/true);
  const IntentRunStats blind = run_intent_arm(/*intent_aware=*/false);
  std::printf("%-34s %14.1f %14.1f %11zu / %zu\n", "intent-aware", aware.doc_mean_ms,
              aware.doc_max_ms, aware.docs_on_primary, aware.docs_total);
  std::printf("%-34s %14.1f %14.1f %11zu / %zu\n", "intent-blind (ablation)",
              blind.doc_mean_ms, blind.doc_max_ms, blind.docs_on_primary, blind.docs_total);
  if (aware.docs_total != 12 || blind.docs_total != 12) {
    std::printf("FAIL: not every document completed (%zu aware, %zu blind)\n",
                aware.docs_total, blind.docs_total);
    ++failures;
  }
  if (aware.docs_on_primary != aware.docs_total) {
    std::printf("FAIL: intent-aware let %zu documents off the fast access\n",
                aware.docs_total - aware.docs_on_primary);
    ++failures;
  }
  if (aware.doc_mean_ms >= blind.doc_mean_ms) {
    std::printf("FAIL: intent-aware doc latency (%.1f ms) must beat intent-blind (%.1f ms)\n",
                aware.doc_mean_ms, blind.doc_mean_ms);
    ++failures;
  }

  std::printf("\nSection C — mid-load primary access failure (8 strict documents, 2 s deadline)\n\n");
  std::printf("%-34s %16s %8s %18s %10s\n", "configuration", "within deadline", "504s",
              "strict downgrades", "failovers");
  const FailoverRunStats multi = run_failover_arm(/*multi=*/true);
  const FailoverRunStats single = run_failover_arm(/*multi=*/false);
  std::printf("%-34s %11zu / %zu %8zu %18llu %10llu\n", "multi-access (wired + lte)",
              multi.within_deadline, multi.docs, multi.gateway_timeouts,
              static_cast<unsigned long long>(multi.strict_unavailable),
              static_cast<unsigned long long>(multi.failovers));
  std::printf("%-34s %11zu / %zu %8zu %18llu %10llu\n", "single access (baseline)",
              single.within_deadline, single.docs, single.gateway_timeouts,
              static_cast<unsigned long long>(single.strict_unavailable),
              static_cast<unsigned long long>(single.failovers));
  if (multi.within_deadline != multi.docs) {
    std::printf("FAIL: multi-access must land every document within its deadline (%zu/%zu)\n",
                multi.within_deadline, multi.docs);
    ++failures;
  }
  if (multi.gateway_timeouts != 0 || multi.strict_unavailable != 0) {
    std::printf("FAIL: multi-access saw %zu x 504 and %llu strict downgrades (want zero)\n",
                multi.gateway_timeouts,
                static_cast<unsigned long long>(multi.strict_unavailable));
    ++failures;
  }
  if (multi.failovers == 0) {
    std::printf("FAIL: the cut must have forced mid-flight failovers (saw none)\n");
    ++failures;
  }
  if (single.within_deadline * 2 >= single.docs &&
      single.gateway_timeouts == 0 && single.strict_unavailable == 0) {
    std::printf("FAIL: the single-access baseline should visibly suffer the cut\n");
    ++failures;
  }

  if (failures > 0) {
    std::printf("\n%d hard assertion(s) failed\n", failures);
    return 1;
  }
  std::printf("\nIntent-aware scheduling keeps every document on the fast access while bulk\n"
              "stripes across both; when the primary dies mid-load, in-flight documents\n"
              "migrate to the surviving access inside their original deadline with strict\n"
              "mode intact — the single-access baseline just times out.\n");
  return 0;
}
