// ProxyCluster fleet tests: consistent-hash routing, crash failover (idle and
// mid-flight), fail-closed shedding within the deadline budget, drain
// stickiness + handoff, warm vs cold replica-restart, breaker state handoff,
// /skip/fleet JSON robustness under hostile names, the 405 method gates,
// retry-jitter divergence between replicas, learn-broadcast/invalidation, and
// a randomized chaos interleaving property suite.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/scenarios.hpp"
#include "proxy/cluster.hpp"
#include "util/rng.hpp"

namespace pan::browser {
namespace {

std::string body_of(const proxy::ProxyResult& result) {
  return std::string(reinterpret_cast<const char*>(result.response.body.data()),
                     result.response.body.size());
}

struct FleetFixture {
  std::unique_ptr<World> world;
  std::unique_ptr<FleetSession> session;

  explicit FleetFixture(proxy::ClusterConfig config = {}) {
    world = make_local_world();
    world->site("scion-fs.local")->add_text("/", "scion page");
    world->site("tcpip-fs.local")->add_text("/", "legacy page");
    session = std::make_unique<FleetSession>(*world, std::move(config));
  }

  [[nodiscard]] proxy::ProxyCluster& cluster() { return session->cluster(); }
  [[nodiscard]] sim::Simulator& sim() { return world->sim(); }

  proxy::ProxyResult fetch(const std::string& url, bool strict = false) {
    return session->fetch(url, strict);
  }

  /// Like fetch() but with an explicit absolute deadline and a custom method.
  proxy::ProxyResult fetch_with(const std::string& target, bool strict,
                                TimePoint deadline, const std::string& method = "GET") {
    http::HttpRequest request;
    request.method = method;
    request.target = target;
    proxy::ProxyRequestOptions options;
    options.strict = strict;
    options.deadline = deadline;
    proxy::ProxyResult out;
    bool done = false;
    cluster().fetch(std::move(request), options, [&](proxy::ProxyResult r) {
      out = std::move(r);
      done = true;
    });
    sim().run_until_condition([&] { return done; }, sim().now() + seconds(120));
    EXPECT_TRUE(done) << target;
    return out;
  }

  /// Hosts a native-SCION site with no DNS footprint at all: reachable over
  /// SCION but detectable only through the learned Strict-SCION cache.
  void add_hidden_site(const std::string& domain, std::uint16_t port) {
    SiteOptions options;
    options.legacy = false;
    options.native_scion = true;
    options.advertise_scion_txt = false;
    options.port = port;
    world->add_site(world->topology().host_by_name("scion-fs"), domain, options)
        .add_text("/", "hidden page");
  }

  [[nodiscard]] scion::ScionAddr scion_fs_addr() {
    scion::Topology& topo = world->topology();
    return topo.scion_addr(topo.host_by_name("scion-fs"));
  }
};

TEST(Fleet, RoutesConsistentlyAndSpreadsOrigins) {
  FleetFixture fix;
  proxy::ProxyCluster& cluster = fix.cluster();
  ASSERT_EQ(cluster.replica_count(), 4u);

  const std::string owner = cluster.owner_of("scion-fs.local");
  ASSERT_FALSE(owner.empty());
  EXPECT_EQ(cluster.owner_of("scion-fs.local"), owner);  // stable

  const proxy::ProxyResult result = fix.fetch("http://scion-fs.local/");
  EXPECT_EQ(result.response.status, 200);
  EXPECT_EQ(result.transport, proxy::TransportUsed::kScion);
  EXPECT_EQ(body_of(result), "scion page");

  // Consistent hashing actually shards: synthetic origins land on more than
  // one replica.
  std::set<std::string> owners;
  for (int i = 0; i < 32; ++i) {
    owners.insert(cluster.owner_of("origin-" + std::to_string(i) + ".example"));
  }
  EXPECT_GE(owners.size(), 2u);
}

TEST(Fleet, CrashRehashesAndRoutesAround) {
  FleetFixture fix;
  proxy::ProxyCluster& cluster = fix.cluster();

  EXPECT_EQ(fix.fetch("http://scion-fs.local/").response.status, 200);
  const std::string owner = cluster.owner_of("scion-fs.local");

  cluster.crash_replica(owner);
  EXPECT_EQ(cluster.replica_health(owner), proxy::ReplicaHealth::kDown);
  EXPECT_EQ(cluster.replica(owner), nullptr);

  const std::string successor = cluster.owner_of("scion-fs.local");
  EXPECT_FALSE(successor.empty());
  EXPECT_NE(successor, owner);

  const proxy::ProxyResult result = fix.fetch("http://scion-fs.local/", /*strict=*/true);
  EXPECT_EQ(result.response.status, 200);
  EXPECT_EQ(result.transport, proxy::TransportUsed::kScion);
  EXPECT_EQ(cluster.stats().crashes, 1u);
  EXPECT_GE(cluster.stats().handoffs, 1u);
}

TEST(Fleet, CrashMidFlightFailsOverWithinDeadline) {
  FleetFixture fix;
  proxy::ProxyCluster& cluster = fix.cluster();
  const std::string owner = cluster.owner_of("scion-fs.local");

  // Kill the owner while the request is still in DNS/detection (the world's
  // resolver takes ~4ms; 500us is safely mid-flight).
  fix.sim().schedule_after(microseconds(500),
                           [&] { cluster.crash_replica(owner); });
  const TimePoint start = fix.sim().now();
  const proxy::ProxyResult result =
      fix.fetch_with("http://scion-fs.local/", /*strict=*/true, start + seconds(2));
  EXPECT_EQ(result.response.status, 200);
  EXPECT_EQ(result.transport, proxy::TransportUsed::kScion);
  EXPECT_LE(fix.sim().now(), start + seconds(2));
  EXPECT_GE(cluster.stats().failovers, 1u);
}

TEST(Fleet, AllReplicasDownFailsClosedWithRetryAfter) {
  proxy::ClusterConfig config;
  config.replicas = 2;
  FleetFixture fix(std::move(config));
  proxy::ProxyCluster& cluster = fix.cluster();
  for (const std::string& name : cluster.replica_names()) cluster.crash_replica(name);

  const TimePoint start = fix.sim().now();
  const proxy::ProxyResult result =
      fix.fetch_with("http://scion-fs.local/", /*strict=*/true, start + seconds(2));
  EXPECT_EQ(result.response.status, 503);
  EXPECT_EQ(result.transport, proxy::TransportUsed::kError);  // never kIp
  EXPECT_EQ(result.outcome, "fleet-shed");
  EXPECT_TRUE(result.response.headers.get("Retry-After").has_value());
  EXPECT_LE(fix.sim().now(), start + seconds(2));
  EXPECT_EQ(fix.cluster().stats().no_replica, 1u);
}

TEST(Fleet, HungReplicaIsHedgedAroundWithinDeadline) {
  proxy::ClusterConfig config;
  config.replicas = 2;
  FleetFixture fix(std::move(config));
  proxy::ProxyCluster& cluster = fix.cluster();
  const std::string owner = cluster.owner_of("scion-fs.local");
  cluster.set_replica_hung(owner, true);

  const TimePoint start = fix.sim().now();
  const proxy::ProxyResult result =
      fix.fetch_with("http://scion-fs.local/", /*strict=*/true, start + seconds(2));
  EXPECT_EQ(result.response.status, 200);
  EXPECT_EQ(result.transport, proxy::TransportUsed::kScion);
  // The hedge waited out kFailoverTimeout on the wedged owner, then won well
  // inside the deadline.
  EXPECT_GE(fix.sim().now(), start + proxy::ProxyCluster::kFailoverTimeout);
  EXPECT_LE(fix.sim().now(), start + seconds(2));
  EXPECT_GE(cluster.stats().failovers, 1u);
}

TEST(Fleet, HungReplicaGoesDownViaProbesThenRecovers) {
  proxy::ClusterConfig config;
  config.replicas = 2;
  FleetFixture fix(std::move(config));
  proxy::ProxyCluster& cluster = fix.cluster();
  const std::string victim = cluster.replica_names()[0];

  cluster.set_replica_hung(victim, true);
  // kProbeMissDown=3 at 250ms probe spacing (+200ms timeout) => down well
  // inside 2s.
  fix.sim().run_until(fix.sim().now() + seconds(2));
  EXPECT_EQ(cluster.replica_health(victim), proxy::ReplicaHealth::kDown);
  EXPECT_GE(cluster.stats().probe_misses, 3u);

  // The ring routes every origin around a down replica.
  for (int i = 0; i < 16; ++i) {
    EXPECT_NE(cluster.owner_of("key-" + std::to_string(i)), victim);
  }

  cluster.set_replica_hung(victim, false);
  fix.sim().run_until(fix.sim().now() + seconds(2));
  EXPECT_EQ(cluster.replica_health(victim), proxy::ReplicaHealth::kHealthy);
}

TEST(Fleet, DrainIsStickyThenHandsOff) {
  FleetFixture fix;
  proxy::ProxyCluster& cluster = fix.cluster();

  EXPECT_EQ(fix.fetch("http://scion-fs.local/").response.status, 200);
  const std::string owner = cluster.owner_of("scion-fs.local");
  cluster.drain_replica(owner);
  EXPECT_EQ(cluster.replica_health(owner), proxy::ReplicaHealth::kDraining);
  EXPECT_EQ(cluster.stats().drains, 1u);

  // During the grace period the owned origin sticks to the draining replica;
  // new origins avoid it.
  EXPECT_EQ(cluster.owner_of("scion-fs.local"), owner);
  EXPECT_EQ(fix.fetch("http://scion-fs.local/").response.status, 200);
  for (int i = 0; i < 16; ++i) {
    EXPECT_NE(cluster.owner_of("fresh-" + std::to_string(i) + ".example"), owner);
  }

  // After kDrainGrace ownership is handed off.
  fix.sim().run_until(fix.sim().now() + proxy::ProxyCluster::kDrainGrace + milliseconds(100));
  const std::string successor = cluster.owner_of("scion-fs.local");
  EXPECT_FALSE(successor.empty());
  EXPECT_NE(successor, owner);
  EXPECT_EQ(fix.fetch("http://scion-fs.local/").response.status, 200);

  cluster.undrain_replica(owner);
  EXPECT_EQ(cluster.replica_health(owner), proxy::ReplicaHealth::kHealthy);
}

TEST(Fleet, LearnBroadcastTeachesAllReplicas) {
  FleetFixture fix;
  fix.add_hidden_site("hidden.local", 81);
  proxy::ProxyCluster& cluster = fix.cluster();

  cluster.replica("rep-0")->detector().learn("hidden.local", fix.scion_fs_addr(),
                                             seconds(3600));
  for (const std::string& name : cluster.replica_names()) {
    EXPECT_EQ(cluster.replica(name)->detector().learned_size(), 1u) << name;
  }
  EXPECT_GE(cluster.stats().cache_broadcasts, 1u);

  // Any replica can now serve the learned-only origin strictly over SCION —
  // there is no DNS record to find it by.
  const proxy::ProxyResult result = fix.fetch("http://hidden.local:81/", /*strict=*/true);
  EXPECT_EQ(result.response.status, 200);
  EXPECT_EQ(result.transport, proxy::TransportUsed::kScion);
  EXPECT_EQ(body_of(result), "hidden page");
}

TEST(Fleet, WithdrawalBroadcastInvalidatesAllReplicas) {
  FleetFixture fix;
  proxy::ProxyCluster& cluster = fix.cluster();
  proxy::SkipProxy* first = cluster.replica("rep-0");
  first->detector().learn("hidden.local", fix.scion_fs_addr(), seconds(3600));
  ASSERT_EQ(cluster.replica("rep-3")->detector().learned_size(), 1u);

  first->detector().learn("hidden.local", fix.scion_fs_addr(), Duration::zero());
  for (const std::string& name : cluster.replica_names()) {
    EXPECT_EQ(cluster.replica(name)->detector().learned_size(), 0u) << name;
  }
  EXPECT_GE(cluster.stats().cache_invalidations, 1u);
}

TEST(Fleet, WarmRestartRestoresLearnedCache) {
  FleetFixture fix;
  fix.add_hidden_site("hidden.local", 81);
  proxy::ProxyCluster& cluster = fix.cluster();
  cluster.replica("rep-0")->detector().learn("hidden.local", fix.scion_fs_addr(),
                                             seconds(3600));
  ASSERT_EQ(fix.fetch("http://hidden.local:81/", true).response.status, 200);
  const std::string owner = cluster.owner_of("hidden.local:81");

  // Let the prober take warm snapshots, then bounce the owner.
  fix.sim().run_until(fix.sim().now() + milliseconds(600));
  cluster.restart_replica(owner);
  EXPECT_EQ(cluster.stats().restarts_warm, 1u);
  EXPECT_EQ(cluster.replica(owner)->detector().learned_size(), 1u);

  const proxy::ProxyResult result = fix.fetch("http://hidden.local:81/", /*strict=*/true);
  EXPECT_EQ(result.response.status, 200);
  EXPECT_EQ(result.transport, proxy::TransportUsed::kScion);
}

TEST(Fleet, ColdRestartFailsClosedOnLearnedOnlyOrigin) {
  proxy::ClusterConfig config;
  config.replicas = 1;  // no peer to re-teach the cold process
  config.warm_handoff = false;
  FleetFixture fix(std::move(config));
  fix.add_hidden_site("hidden.local", 81);
  proxy::ProxyCluster& cluster = fix.cluster();

  cluster.replica("rep-0")->detector().learn("hidden.local", fix.scion_fs_addr(),
                                             seconds(3600));
  ASSERT_EQ(fix.fetch("http://hidden.local:81/", true).response.status, 200);

  fix.sim().run_until(fix.sim().now() + milliseconds(600));
  cluster.restart_replica("rep-0");
  EXPECT_EQ(cluster.stats().restarts_cold, 1u);
  EXPECT_EQ(cluster.replica("rep-0")->detector().learned_size(), 0u);

  // The learned pin is gone and there is no DNS trail: strict fails closed —
  // an honest 5xx, never a downgrade to IP.
  const proxy::ProxyResult result = fix.fetch("http://hidden.local:81/", /*strict=*/true);
  EXPECT_GE(result.response.status, 500);
  EXPECT_NE(result.transport, proxy::TransportUsed::kIp);
  EXPECT_NE(result.transport, proxy::TransportUsed::kScion);
}

TEST(Fleet, WarmRestartRestoresBreakerState) {
  proxy::ClusterConfig config;
  config.replicas = 2;
  FleetFixture fix(std::move(config));
  proxy::ProxyCluster& cluster = fix.cluster();

  proxy::SkipProxy* proxy = cluster.replica("rep-0");
  for (int i = 0; i < 4; ++i) proxy->breaker().record_failure("sick.example:443");
  ASSERT_TRUE(proxy->breaker().is_open("sick.example:443"));

  // The prober ships the snapshot; the bounced process inherits the open
  // breaker instead of re-probing an origin the fleet knows is sick.
  fix.sim().run_until(fix.sim().now() + milliseconds(600));
  cluster.restart_replica("rep-0");
  EXPECT_TRUE(cluster.replica("rep-0")->breaker().is_open("sick.example:443"));
}

TEST(Fleet, FleetEndpointEscapesHostileNames) {
  proxy::ClusterConfig config;
  config.replicas = 2;
  config.replica_name_prefix = "re\"p\\";  // hostile: quote + backslash
  FleetFixture fix(std::move(config));

  // Park a hostile origin key in the ownership table (the fetch itself may
  // fail; the key still lands in /skip/fleet's owners dump).
  fix.fetch("ev\"il.local", /*strict=*/false);

  const proxy::ProxyResult result = fix.fetch("/skip/fleet");
  EXPECT_EQ(result.response.status, 200);
  const std::string body = body_of(result);
  // json_quote'd forms present; raw unescaped quotes absent.
  EXPECT_NE(body.find("\"re\\\"p\\\\0\""), std::string::npos) << body;
  EXPECT_NE(body.find("ev\\\"il.local"), std::string::npos) << body;
  EXPECT_EQ(body.find("\"ev\"il.local\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"replicas\""), std::string::npos);
  EXPECT_NE(body.find("\"owners\""), std::string::npos);
  EXPECT_NE(body.find("\"stats\""), std::string::npos);
}

TEST(Fleet, MethodGatesOnControlEndpoints) {
  FleetFixture fix;
  const TimePoint deadline = fix.sim().now() + seconds(5);

  // The cluster's own endpoint.
  const proxy::ProxyResult fleet_post = fix.fetch_with("/skip/fleet", false, deadline, "POST");
  EXPECT_EQ(fleet_post.response.status, 405);
  EXPECT_EQ(fleet_post.response.headers.get("Allow").value_or(""), "GET");

  // Forwarded to a replica: known endpoint, wrong method.
  const proxy::ProxyResult metrics_post =
      fix.fetch_with("/skip/metrics", false, deadline, "POST");
  EXPECT_EQ(metrics_post.response.status, 405);
  EXPECT_EQ(metrics_post.response.headers.get("Allow").value_or(""), "GET");

  // Unknown paths are still 404, whatever the method, in both control spaces.
  EXPECT_EQ(fix.fetch_with("/skip/nonexistent", false, deadline, "POST").response.status,
            404);
  EXPECT_EQ(fix.fetch_with("/skip/fleet/unknown", false, deadline, "POST").response.status,
            404);

  // The happy paths still work through the forwarder.
  EXPECT_EQ(fix.fetch("/skip/metrics").response.status, 200);
  const proxy::ProxyResult ping = fix.fetch("/skip/ping");
  EXPECT_EQ(ping.response.status, 200);
  EXPECT_NE(body_of(ping).find("\"ok\":true"), std::string::npos);
}

TEST(Fleet, FleetMetricsMergesReplicaRegistries) {
  FleetFixture fix;
  // Drive traffic so replicas accumulate real counters and histograms.
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(fix.fetch("http://scion-fs.local/").response.status, 200);
  }

  const proxy::ProxyResult result = fix.fetch("/skip/fleet/metrics");
  ASSERT_EQ(result.response.status, 200);
  EXPECT_EQ(result.response.headers.get("Content-Type").value_or(""), "application/json");
  const std::string body = body_of(result);
  EXPECT_NE(body.find("\"replicas\""), std::string::npos);
  EXPECT_NE(body.find("\"fleet\""), std::string::npos);
  EXPECT_NE(body.find("\"generation\""), std::string::npos);
  EXPECT_NE(body.find("proxy.request_total"), std::string::npos);

  // The merged registry really is the sum of the per-replica ones.
  proxy::ProxyCluster& cluster = fix.cluster();
  cluster.refresh_fleet_metrics();
  obs::MetricsRegistry merged;
  cluster.fleet_metrics().build_merged(merged);
  std::uint64_t per_replica_sum = 0;
  for (const std::string name : {"rep-0", "rep-1", "rep-2", "rep-3"}) {
    per_replica_sum += cluster.replica(name)->metrics().counter_value("proxy.requests");
  }
  EXPECT_GT(per_replica_sum, 0u);
  EXPECT_EQ(merged.counter_value("proxy.requests"), per_replica_sum);

  // The merged request histogram pools every replica's samples.
  const obs::Histogram* hist = merged.find_histogram("proxy.request_total");
  ASSERT_NE(hist, nullptr);
  std::uint64_t hist_count = 0;
  for (const std::string name : {"rep-0", "rep-1", "rep-2", "rep-3"}) {
    const obs::Histogram* h =
        cluster.replica(name)->metrics().find_histogram("proxy.request_total");
    if (h != nullptr) hist_count += h->count();
  }
  EXPECT_EQ(hist->count(), hist_count);

  // ?prefix= filters both the fleet view and the per-replica drill-downs.
  const proxy::ProxyResult filtered = fix.fetch("/skip/fleet/metrics?prefix=proxy.phase.");
  ASSERT_EQ(filtered.response.status, 200);
  const std::string filtered_body = body_of(filtered);
  EXPECT_NE(filtered_body.find("proxy.phase."), std::string::npos);
  EXPECT_EQ(filtered_body.find("\"proxy.requests\""), std::string::npos);
}

TEST(Fleet, FleetMetricsSurviveRestartWithoutSteppingBackward) {
  FleetFixture fix;
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(fix.fetch("http://scion-fs.local/").response.status, 200);
  }
  proxy::ProxyCluster& cluster = fix.cluster();
  cluster.refresh_fleet_metrics();
  obs::MetricsRegistry before;
  cluster.fleet_metrics().build_merged(before);
  const std::uint64_t requests_before = before.counter_value("proxy.requests");
  ASSERT_GT(requests_before, 0u);

  // Bounce every replica: each fresh process restarts its registry at zero.
  for (const std::string name : {"rep-0", "rep-1", "rep-2", "rep-3"}) {
    cluster.restart_replica(name);
  }
  cluster.refresh_fleet_metrics();
  EXPECT_GE(cluster.fleet_metrics().generation_folds(), 4u);

  obs::MetricsRegistry after;
  cluster.fleet_metrics().build_merged(after);
  // The folded bases keep the dead generations' counts: monotonic, so any
  // windowed rate computed over the fleet view never goes negative.
  EXPECT_GE(after.counter_value("proxy.requests"), requests_before);

  // And new traffic keeps accumulating on top.
  ASSERT_EQ(fix.fetch("http://scion-fs.local/").response.status, 200);
  cluster.refresh_fleet_metrics();
  obs::MetricsRegistry later;
  cluster.fleet_metrics().build_merged(later);
  EXPECT_GT(later.counter_value("proxy.requests"), requests_before);
}

TEST(Fleet, FleetPromExpositionCarriesFleetScope) {
  FleetFixture fix;
  ASSERT_EQ(fix.fetch("http://scion-fs.local/").response.status, 200);
  const proxy::ProxyResult result = fix.fetch("/skip/fleet/metrics.prom");
  ASSERT_EQ(result.response.status, 200);
  EXPECT_EQ(result.response.headers.get("Content-Type").value_or(""),
            "text/plain; version=0.0.4");
  const std::string body = body_of(result);
  EXPECT_NE(body.find("# TYPE pan_proxy_requests counter"), std::string::npos);
  EXPECT_NE(body.find("scope=\"fleet\""), std::string::npos);
  EXPECT_NE(body.find("pan_proxy_request_total_bucket"), std::string::npos);
}

TEST(Fleet, FleetMetricsWindowQueryAndErrors) {
  FleetFixture fix;
  ASSERT_EQ(fix.fetch("http://scion-fs.local/").response.status, 200);
  // Let the probe heartbeat tick the cluster's time-series store.
  fix.sim().run_until(fix.sim().now() + seconds(2));

  const proxy::ProxyResult windowed = fix.fetch("/skip/fleet/metrics?window=1000");
  ASSERT_EQ(windowed.response.status, 200);
  const std::string body = body_of(windowed);
  EXPECT_NE(body.find("\"interval_ms\""), std::string::npos);
  EXPECT_NE(body.find("\"rate_per_s\""), std::string::npos);

  EXPECT_EQ(fix.fetch("/skip/fleet/metrics?window=banana").response.status, 400);
  EXPECT_EQ(fix.fetch("/skip/fleet/unknown").response.status, 404);

  const TimePoint deadline = fix.sim().now() + seconds(5);
  const proxy::ProxyResult post =
      fix.fetch_with("/skip/fleet/metrics", false, deadline, "POST");
  EXPECT_EQ(post.response.status, 405);
}

TEST(Fleet, RetryJitterStreamsDivergeAcrossReplicas) {
  proxy::ClusterConfig config;
  config.replicas = 2;
  FleetFixture fix(std::move(config));
  proxy::ProxyCluster& cluster = fix.cluster();

  // Both replicas share one ProxyConfig (and thus kRetryJitterSeed); the
  // per-instance salt must still decorrelate their retry backoff streams or
  // a fleet-wide path flap retries in lockstep.
  Rng& a = cluster.replica("rep-0")->retry_rng();
  Rng& b = cluster.replica("rep-1")->retry_rng();
  std::vector<Duration> da, db;
  for (int i = 0; i < 8; ++i) {
    da.push_back(a.jittered(milliseconds(40), 0.5));
    db.push_back(b.jittered(milliseconds(40), 0.5));
  }
  EXPECT_NE(da, db);
}

TEST(Fleet, RandomChaosInterleavingsKeepGuarantees) {
  for (const std::uint64_t seed : {11ull, 29ull, 83ull}) {
    auto world = make_local_world();
    world->site("scion-fs.local")->add_text("/", "scion page");
    world->site("tcpip-fs.local")->add_text("/", "legacy page");
    FleetSession session(*world);
    proxy::ProxyCluster& cluster = session.cluster();
    sim::Simulator& sim = world->sim();
    Rng rng(seed);
    const std::vector<std::string> names = cluster.replica_names();

    struct Probe {
      TimePoint deadline;
      TimePoint completed_at;
      bool strict = false;
      bool done = false;
      proxy::ProxyResult result;
    };
    std::vector<std::shared_ptr<Probe>> probes;

    auto launch = [&](bool strict) {
      auto probe = std::make_shared<Probe>();
      probe->strict = strict;
      probe->deadline = sim.now() + seconds(2);
      http::HttpRequest request;
      request.method = "GET";
      request.target = strict ? "http://scion-fs.local/" : "http://tcpip-fs.local/";
      proxy::ProxyRequestOptions options;
      options.strict = strict;
      options.deadline = probe->deadline;
      cluster.fetch(std::move(request), options, [probe, &sim](proxy::ProxyResult r) {
        probe->done = true;
        probe->completed_at = sim.now();
        probe->result = std::move(r);
      });
      probes.push_back(std::move(probe));
    };

    for (int op = 0; op < 48; ++op) {
      const std::string& name = names[rng.next_below(names.size())];
      switch (rng.next_below(12)) {
        case 0: cluster.crash_replica(name); break;
        case 1: cluster.revive_replica(name); break;
        case 2: cluster.restart_replica(name); break;
        case 3: cluster.set_replica_hung(name, true); break;
        case 4: cluster.set_replica_hung(name, false); break;
        case 5: cluster.drain_replica(name); break;
        case 6: cluster.undrain_replica(name); break;
        default: launch(rng.chance(0.5)); break;
      }
      sim.run_until(sim.now() + microseconds(rng.next_below(200'000)));
    }

    // Quiet the chaos, let probes and revivals settle the fleet.
    for (const std::string& name : names) {
      cluster.revive_replica(name);
      cluster.set_replica_hung(name, false);
      cluster.undrain_replica(name);
    }
    sim.run_until(sim.now() + seconds(5));

    for (const auto& probe : probes) {
      ASSERT_TRUE(probe->done) << "seed " << seed;
      // Every request resolves inside its deadline budget (the replica's own
      // 504 deadline timer is the latest possible answer).
      EXPECT_LE(probe->completed_at, probe->deadline + milliseconds(1)) << "seed " << seed;
      if (probe->strict) {
        // Strict pins never downgrade: either SCION succeeded or the fleet
        // answered an honest 5xx.
        EXPECT_NE(probe->result.transport, proxy::TransportUsed::kIp) << "seed " << seed;
        if (probe->result.response.status == 200) {
          EXPECT_EQ(probe->result.transport, proxy::TransportUsed::kScion) << "seed " << seed;
        } else {
          EXPECT_GE(probe->result.response.status, 500) << "seed " << seed;
        }
      }
    }

    for (const std::string& name : names) {
      EXPECT_EQ(cluster.replica_health(name), proxy::ReplicaHealth::kHealthy)
          << "seed " << seed << " " << name;
    }
    const proxy::ProxyResult after = session.fetch("http://scion-fs.local/", true);
    EXPECT_EQ(after.response.status, 200) << "seed " << seed;
    EXPECT_EQ(after.transport, proxy::TransportUsed::kScion) << "seed " << seed;
  }
}

}  // namespace
}  // namespace pan::browser
