// Multi-access resilience: intent-aware access picks on the MultiAccessHost
// bundle, probe-driven health transitions (including the access-down /
// access-degrade fault verbs), the SKIP proxy's mid-load failover of
// in-flight latency-critical fetches to a surviving access, strict-mode
// fail-closed when every access is down, bulk striping asymmetry, a
// randomized access-flap property suite, and the multipath connection's
// bounded re-dial.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/scenarios.hpp"
#include "http/multipath.hpp"
#include "net/multi_access.hpp"
#include "util/rng.hpp"

namespace pan::proxy {
namespace {

using browser::make_remote_world;
using browser::World;
using net::AccessHealth;
using net::FetchIntent;

browser::WorldConfig multi_access_config() {
  browser::WorldConfig config;
  config.multi_access = true;
  return config;
}

/// Kills (or restores) a host's access link — interface 0 — directly,
/// bypassing the fault plan, for tests that need exact cut timing.
void set_access_up(World& world, const std::string& host, bool up) {
  net::Network& net = world.topology().network();
  const net::NodeId node = net.find_node(host);
  ASSERT_NE(node, net::kInvalidNodeId) << host;
  net.set_link_up(node, 0, up);
}

// ------------------------------------------------- intent taxonomy --------

TEST(FetchIntent, RoundTripsAndRejectsGarbage) {
  EXPECT_STREQ(net::to_string(FetchIntent::kLatencyCritical), "latency-critical");
  EXPECT_STREQ(net::to_string(FetchIntent::kBulk), "bulk");
  EXPECT_STREQ(net::to_string(FetchIntent::kBackground), "background");
  EXPECT_EQ(net::parse_fetch_intent("latency-critical"), FetchIntent::kLatencyCritical);
  EXPECT_EQ(net::parse_fetch_intent("bulk"), FetchIntent::kBulk);
  EXPECT_EQ(net::parse_fetch_intent("background"), FetchIntent::kBackground);
  EXPECT_FALSE(net::parse_fetch_intent("").has_value());
  EXPECT_FALSE(net::parse_fetch_intent("urgent").has_value());
}

// ------------------------------------------------- MultiAccessHost --------

struct BundleFixture {
  std::unique_ptr<World> world;
  net::MultiAccessHost bundle;

  explicit BundleFixture(net::MultiAccessConfig config = {})
      : world(make_remote_world(multi_access_config())),
        bundle(world->sim(), config) {
    auto& topo = world->topology();
    bundle.add_access("wired", topo.host(world->client));
    bundle.add_access("lte", topo.host(*world->client_lte));
  }
};

TEST(MultiAccessHost, PrimaryWinsDeterministicallyBeforeProbes) {
  BundleFixture fx;
  // No probe has run: every EWMA is zero. Latency-critical must still pick
  // the first-registered access, background the spare, and striping must
  // treat the accesses as equals.
  EXPECT_EQ(fx.bundle.pick(FetchIntent::kLatencyCritical), "wired");
  EXPECT_EQ(fx.bundle.pick(FetchIntent::kBackground), "lte");
  const auto weights = fx.bundle.striping_weights();
  ASSERT_EQ(weights.size(), 2u);
  EXPECT_DOUBLE_EQ(weights[0].second, weights[1].second);
}

TEST(MultiAccessHost, ProbesMeasureAsymmetricAccesses) {
  BundleFixture fx;
  fx.bundle.start_probes();
  fx.world->sim().run_for(seconds(1));
  // Wired access link is 200us, LTE 15ms: probe RTT (2x link latency,
  // reflected off the AS router) must separate them cleanly.
  EXPECT_GT(fx.bundle.ewma_rtt("wired").nanos(), 0);
  EXPECT_LT(fx.bundle.ewma_rtt("wired"), milliseconds(5));
  EXPECT_GT(fx.bundle.ewma_rtt("lte"), milliseconds(20));
  EXPECT_EQ(fx.bundle.pick(FetchIntent::kLatencyCritical), "wired");
  EXPECT_EQ(fx.bundle.pick(FetchIntent::kBackground), "lte");
  EXPECT_EQ(fx.bundle.health("wired"), AccessHealth::kHealthy);
  EXPECT_EQ(fx.bundle.health("lte"), AccessHealth::kHealthy);
}

TEST(MultiAccessHost, StripingWeightsClampedToRatio) {
  net::MultiAccessConfig config;
  config.max_weight_ratio = 4.0;
  BundleFixture fx(config);
  fx.bundle.start_probes();
  fx.world->sim().run_for(seconds(1));
  // Raw inverse RTT would be ~75:1 for 200us vs 15ms; the clamp keeps the
  // slow-but-fat access at a meaningful share.
  const auto weights = fx.bundle.striping_weights();
  ASSERT_EQ(weights.size(), 2u);
  double sum = 0;
  for (const auto& [name, w] : weights) sum += w;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  const double hi = std::max(weights[0].second, weights[1].second);
  const double lo = std::min(weights[0].second, weights[1].second);
  EXPECT_GT(lo, 0.0);
  EXPECT_LE(hi / lo, 4.0 + 1e-9);
  // The fast access still pulls the larger share.
  EXPECT_GT(weights[0].second, weights[1].second);  // registration order: wired first
}

TEST(MultiAccessHost, BulkStripingVisitsEveryUsableAccess) {
  BundleFixture fx;
  fx.bundle.start_probes();
  fx.world->sim().run_for(seconds(1));
  std::map<std::string, int> picks;
  for (int i = 0; i < 20; ++i) ++picks[fx.bundle.pick(FetchIntent::kBulk)];
  ASSERT_EQ(picks.size(), 2u);
  EXPECT_GT(picks["wired"], picks["lte"]);  // weighted toward the fast access
  EXPECT_GE(picks["lte"], 2);               // but the clamp guarantees a share
}

TEST(MultiAccessHost, PickAvoidsTheAccessThatJustFailed) {
  BundleFixture fx;
  fx.bundle.start_probes();
  fx.world->sim().run_for(seconds(1));
  EXPECT_EQ(fx.bundle.pick(FetchIntent::kLatencyCritical, "wired"), "lte");
  EXPECT_EQ(fx.bundle.pick(FetchIntent::kBackground, "lte"), "wired");
}

TEST(MultiAccessHost, PassiveFailuresDegradeAndSuccessRestores) {
  net::MultiAccessConfig config;
  config.degrade_after_failures = 3;
  BundleFixture fx(config);
  fx.bundle.start_probes();
  fx.world->sim().run_for(milliseconds(500));
  for (int i = 0; i < 3; ++i) {
    fx.bundle.record_result("wired", false, Duration::zero());
  }
  EXPECT_EQ(fx.bundle.health("wired"), AccessHealth::kDegraded);
  // Degraded by *failing fetches*: avoided by every intent — a latency
  // comparison cannot vouch for an access whose fetches are erroring.
  EXPECT_EQ(fx.bundle.pick(FetchIntent::kLatencyCritical), "lte");
  EXPECT_EQ(fx.bundle.pick(FetchIntent::kBackground), "lte");
  fx.bundle.record_result("wired", true, milliseconds(1));
  EXPECT_EQ(fx.bundle.health("wired"), AccessHealth::kHealthy);
}

TEST(MultiAccessHost, FaultVerbDrivesDownAndRecovery) {
  BundleFixture fx;
  fx.bundle.start_probes();
  std::vector<std::pair<std::string, AccessHealth>> transitions;
  const std::uint64_t sub = fx.bundle.subscribe(
      [&](const std::string& name, AccessHealth, AccessHealth cur) {
        transitions.emplace_back(name, cur);
      });
  // The access-down verb cuts the browser host's access link for 1s; the
  // probe loop must observe the outage (3 misses) and the recovery (2 hits).
  ASSERT_TRUE(fx.world->schedule_chaos("at=500ms dur=1s access-down browser").ok());
  fx.world->sim().run_for(milliseconds(1400));
  EXPECT_EQ(fx.bundle.health("wired"), AccessHealth::kDown);
  EXPECT_EQ(fx.bundle.pick(FetchIntent::kLatencyCritical), "lte");
  fx.world->sim().run_for(milliseconds(1200));
  EXPECT_EQ(fx.bundle.health("wired"), AccessHealth::kHealthy);
  const std::pair<std::string, AccessHealth> down{"wired", AccessHealth::kDown};
  const std::pair<std::string, AccessHealth> up{"wired", AccessHealth::kHealthy};
  EXPECT_NE(std::find(transitions.begin(), transitions.end(), down), transitions.end());
  EXPECT_NE(std::find(transitions.begin(), transitions.end(), up), transitions.end());
  fx.bundle.unsubscribe(sub);
  EXPECT_NE(fx.bundle.snapshot_json().find("\"wired\""), std::string::npos);
}

// --------------------------------------------- proxy integration ----------

struct ProxyFixture {
  std::unique_ptr<World> world;
  std::unique_ptr<dns::Resolver> resolver;
  std::unique_ptr<SkipProxy> proxy;

  explicit ProxyFixture(ProxyConfig config = {}, const std::string& spare = "lte") {
    world = make_remote_world(multi_access_config());
    auto& topo = world->topology();
    resolver = std::make_unique<dns::Resolver>(world->sim(), world->zone(),
                                               dns::ResolverConfig{});
    proxy = std::make_unique<SkipProxy>(world->sim(), topo.host(world->client),
                                        topo.scion_stack(world->client),
                                        topo.daemon_for(world->client), *resolver, config);
    world->injector().set_metrics(&proxy->metrics());
    proxy->add_access(spare, topo.host(*world->client_lte),
                      topo.scion_stack(*world->client_lte),
                      topo.daemon_for(*world->client_lte));
  }

  void fetch_async(const std::string& url, const std::string& intent,
                   std::function<void(ProxyResult)> on_result,
                   ProxyRequestOptions options = {}) {
    http::HttpRequest request;
    request.target = url;
    if (!intent.empty()) {
      request.headers.set(std::string(net::kIntentHeader), intent);
    }
    proxy->fetch(std::move(request), options, std::move(on_result));
  }

  ProxyResult fetch(const std::string& url, const std::string& intent = {},
                    ProxyRequestOptions options = {}) {
    ProxyResult out;
    bool done = false;
    fetch_async(url, intent, [&](ProxyResult r) {
      out = std::move(r);
      done = true;
    }, options);
    world->sim().run_until_condition([&] { return done; },
                                     world->sim().now() + seconds(60));
    EXPECT_TRUE(done);
    return out;
  }
};

TEST(MultiAccessProxy, IntentsMapToAccesses) {
  ProxyFixture fx;
  fx.world->site("www.far.example")->add_blob("/doc.html", 8'000);
  fx.world->sim().run_for(seconds(1));  // let the probe loop measure

  const ProxyResult doc = fx.fetch("http://www.far.example/doc.html", "latency-critical");
  EXPECT_TRUE(doc.response.ok());
  EXPECT_EQ(doc.access, "primary");
  EXPECT_EQ(doc.response.headers.get("X-Skip-Access").value_or(""), "primary");

  const ProxyResult bg = fx.fetch("http://www.far.example/doc.html", "background");
  EXPECT_TRUE(bg.response.ok());
  EXPECT_EQ(bg.access, "lte");
}

TEST(MultiAccessProxy, PriorityClassDerivesIntentWhenHeaderAbsent) {
  ProxyFixture fx;
  fx.world->site("www.far.example")->add_blob("/doc.html", 8'000);
  fx.world->sim().run_for(seconds(1));
  http::HttpRequest request;
  request.target = "http://www.far.example/doc.html";
  request.headers.set(std::string(kPriorityHeader), "document");
  ProxyResult out;
  bool done = false;
  fx.proxy->fetch(std::move(request), {}, [&](ProxyResult r) {
    out = std::move(r);
    done = true;
  });
  fx.world->sim().run_until_condition([&] { return done; },
                                      fx.world->sim().now() + seconds(60));
  ASSERT_TRUE(done);
  EXPECT_TRUE(out.response.ok());
  EXPECT_EQ(out.access, "primary");  // documents are latency-critical
}

TEST(MultiAccessProxy, BulkFetchesStripeAcrossAccesses) {
  ProxyFixture fx;
  auto& site = *fx.world->site("www.far.example");
  for (int i = 0; i < 12; ++i) {
    site.add_blob("/obj" + std::to_string(i) + ".bin", 12'000);
  }
  fx.world->sim().run_for(seconds(1));
  std::set<std::string> accesses;
  for (int i = 0; i < 12; ++i) {
    const ProxyResult r =
        fx.fetch("http://www.far.example/obj" + std::to_string(i) + ".bin", "bulk");
    EXPECT_TRUE(r.response.ok());
    accesses.insert(r.access);
  }
  EXPECT_EQ(accesses, (std::set<std::string>{"primary", "lte"}));
}

TEST(MultiAccessProxy, IntentBlindModeStripesEverything) {
  ProxyConfig config;
  config.intent_aware = false;
  ProxyFixture fx(config);
  fx.world->site("www.far.example")->add_blob("/doc.html", 8'000);
  fx.world->sim().run_for(seconds(1));
  // Intent-blind striping sends even latency-critical fetches round the WRR
  // wheel: over a batch, some documents land on the slow access.
  std::set<std::string> accesses;
  for (int i = 0; i < 12; ++i) {
    const ProxyResult r = fx.fetch("http://www.far.example/doc.html", "latency-critical");
    EXPECT_TRUE(r.response.ok());
    accesses.insert(r.access);
  }
  EXPECT_EQ(accesses, (std::set<std::string>{"primary", "lte"}));
}

TEST(MultiAccessProxy, PinOverridesIntentMapping) {
  ProxyConfig config;
  config.pin_intent_access["background"] = "primary";
  ProxyFixture fx(config);
  fx.world->site("www.far.example")->add_blob("/doc.html", 8'000);
  fx.world->sim().run_for(seconds(1));
  const ProxyResult bg = fx.fetch("http://www.far.example/doc.html", "background");
  EXPECT_TRUE(bg.response.ok());
  EXPECT_EQ(bg.access, "primary");
}

TEST(MultiAccessProxy, MidLoadAccessFailureMigratesWithinDeadline) {
  ProxyConfig config;
  // Fast probe loop so failover detection fits inside the transfer.
  config.access.probe_interval = milliseconds(20);
  config.access.probe_timeout = milliseconds(50);
  config.access.down_after_misses = 2;
  ProxyFixture fx(config);
  fx.world->site("www.far.example")->add_blob("/big.bin", 2'000'000);
  fx.world->sim().run_for(seconds(1));

  const TimePoint started = fx.world->sim().now();
  ProxyRequestOptions options;
  options.deadline = started + seconds(10);
  ProxyResult out;
  bool done = false;
  fx.fetch_async("http://www.far.example/big.bin", "latency-critical",
                 [&](ProxyResult r) {
                   out = std::move(r);
                   done = true;
                 },
                 options);
  // Cut the primary access 5ms into the transfer (the 2MB body takes ~16ms
  // on the wired link alone, so the fetch is mid-flight).
  fx.world->sim().schedule_after(milliseconds(5), [&] {
    set_access_up(*fx.world, "browser", false);
  });
  fx.world->sim().run_until_condition([&] { return done; }, started + seconds(30));
  ASSERT_TRUE(done);
  EXPECT_TRUE(out.response.ok()) << out.response.status << " " << out.outcome;
  EXPECT_EQ(out.access, "lte");  // finished on the surviving access
  EXPECT_LE(fx.world->sim().now(), *options.deadline);
  const obs::MetricsRegistry& registry = fx.proxy->metrics();
  EXPECT_GE(registry.counter_value("proxy.access_down_events"), 1u);
  EXPECT_GE(registry.counter_value("proxy.access_failovers"), 1u);
  EXPECT_EQ(registry.counter_value("proxy.strict_unavailable"), 0u);
}

TEST(MultiAccessProxy, AllAccessesDownFailsClosed) {
  ProxyConfig config;
  config.access.probe_interval = milliseconds(20);
  config.access.probe_timeout = milliseconds(50);
  config.access.down_after_misses = 2;
  ProxyFixture fx(config);
  fx.world->site("www.far.example")->add_blob("/doc.html", 8'000);
  fx.world->sim().run_for(seconds(1));
  set_access_up(*fx.world, "browser", false);
  set_access_up(*fx.world, "browser-lte", false);
  fx.world->sim().run_for(milliseconds(500));  // probes declare both down

  ProxyRequestOptions strict;
  strict.strict = true;
  const ProxyResult s = fx.fetch("http://www.far.example/doc.html", "latency-critical",
                                 strict);
  // Strict mode never downgrades: fail closed with 503 + Retry-After.
  EXPECT_EQ(s.response.status, 503);
  EXPECT_TRUE(s.response.headers.get("Retry-After").has_value());
  EXPECT_NE(s.transport, TransportUsed::kIp);
  EXPECT_GE(fx.proxy->metrics().counter_value("proxy.strict_unavailable"), 1u);

  const ProxyResult lax = fx.fetch("http://www.far.example/doc.html", "bulk");
  EXPECT_EQ(lax.response.status, 503);
  EXPECT_TRUE(lax.response.headers.get("Retry-After").has_value());

  // Restore an access: the proxy must recover without a restart.
  set_access_up(*fx.world, "browser-lte", true);
  fx.world->sim().run_for(milliseconds(500));
  const ProxyResult back = fx.fetch("http://www.far.example/doc.html", "latency-critical");
  EXPECT_TRUE(back.response.ok());
  EXPECT_EQ(back.access, "lte");
}

TEST(MultiAccessProxy, AccessEndpointEscapesNames) {
  // add_access() takes any name; GET /skip/access must stay valid JSON.
  ProxyFixture fx({}, "l\"t\\e");
  fx.world->sim().run_for(seconds(1));  // let the probe loop measure
  const ProxyResult result = fx.fetch("/skip/access");
  ASSERT_EQ(result.response.status, 200);
  const std::string body = to_string_view_copy(result.response.body);
  EXPECT_NE(body.find(R"({"name":"l\"t\\e","health":"healthy","ewma_rtt_us":)"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find(R"({"access":"l\"t\\e","weight":0.2})"), std::string::npos) << body;
  EXPECT_EQ(body.find("l\"t\\e"), std::string::npos) << body;  // never unescaped
}

TEST(MultiAccessProxy, RandomAccessFlapsNeverHangRequests) {
  for (const std::uint64_t seed : {7ULL, 21ULL, 63ULL}) {
    ProxyConfig config;
    config.access.probe_interval = milliseconds(20);
    config.access.probe_timeout = milliseconds(50);
    config.access.down_after_misses = 2;
    ProxyFixture fx(config);
    auto& site = *fx.world->site("www.far.example");
    for (int i = 0; i < 8; ++i) {
      site.add_blob("/obj" + std::to_string(i) + ".bin", 60'000);
    }
    fx.world->sim().run_for(seconds(1));
    Rng rng(seed);
    // Random flap schedule over both accesses for the next ~3s.
    const std::string hosts[] = {"browser", "browser-lte"};
    for (const std::string& host : hosts) {
      bool up = true;
      Duration when = milliseconds(50 + rng.next_below(200));
      while (when < seconds(3)) {
        up = !up;
        const bool target = up;
        fx.world->sim().schedule_after(when, [&fx, host, target] {
          set_access_up(*fx.world, host, target);
        });
        when = when + milliseconds(150 + rng.next_below(700));
      }
      // Whatever the flap schedule did, end with the link up.
      fx.world->sim().schedule_after(seconds(3), [&fx, host] {
        set_access_up(*fx.world, host, true);
      });
    }
    const char* intents[] = {"latency-critical", "bulk", "background"};
    int done = 0;
    int responded = 0;
    const TimePoint begun = fx.world->sim().now();
    for (int i = 0; i < 8; ++i) {
      const std::string url = "http://www.far.example/obj" + std::to_string(i) + ".bin";
      const std::string intent = intents[rng.next_below(3)];
      ProxyRequestOptions options;
      options.deadline = begun + seconds(8);
      fx.world->sim().schedule_after(milliseconds(rng.next_below(2500)), [&, url, intent,
                                                                          options] {
        fx.fetch_async(url, intent, [&](ProxyResult r) {
          ++done;
          // The invariant: every request terminates with an explicit
          // response — success, shed, or timeout — never a silent hang.
          if (r.response.status > 0) ++responded;
        }, options);
      });
    }
    fx.world->sim().run_until_condition([&] { return done == 8; }, begun + seconds(20));
    EXPECT_EQ(done, 8) << "seed " << seed;
    EXPECT_EQ(responded, done) << "seed " << seed;
  }
}

// --------------------------------------------- multipath re-dial ----------

struct RedialFixture {
  std::unique_ptr<World> world;
  scion::HostId rp;
  std::vector<scion::Path> paths;

  RedialFixture() {
    browser::WorldConfig config;
    config.seed = 17;
    world = make_remote_world(config);
    auto& site = *world->site("www.far.example");
    for (int i = 0; i < 16; ++i) {
      site.add_blob("/obj" + std::to_string(i) + ".bin", 10'000);
    }
    auto& topo = world->topology();
    rp = topo.host_by_name("far-rp1");
    for (const auto& p : topo.daemon_for(world->client).query_now(topo.as_of(rp))) {
      if (p.link_count() == 3) paths.push_back(p);  // the disjoint pair
    }
  }

  [[nodiscard]] http::MultipathScionConnection make_conn(http::MultipathConfig config) {
    auto& topo = world->topology();
    return http::MultipathScionConnection(
        topo.scion_stack(world->client),
        scion::ScionEndpoint{topo.scion_addr(rp), 80}, paths, config);
  }

  bool fetch_one(http::MultipathScionConnection& conn, int i,
                 std::optional<net::FetchIntent> intent = std::nullopt) {
    bool ok = false;
    bool done = false;
    http::HttpRequest req;
    req.target = "/obj" + std::to_string(i % 16) + ".bin";
    req.headers.set("Host", "www.far.example");
    const auto cb = [&](Result<http::HttpResponse> r) {
      ok = r.ok() && r.value().ok();
      done = true;
    };
    if (intent.has_value()) {
      conn.fetch(req, *intent, cb);
    } else {
      conn.fetch(req, cb);
    }
    world->sim().run_until_condition([&] { return done; },
                                     world->sim().now() + seconds(60));
    return ok;
  }
};

TEST(MultipathRedial, DeadChannelIsRedialedAndRejoinsStriping) {
  RedialFixture fx;
  ASSERT_EQ(fx.paths.size(), 2u);
  http::MultipathConfig config;
  config.schedule = http::MultipathConfig::Schedule::kRoundRobin;
  config.max_redials = 3;
  config.redial_backoff = milliseconds(10);
  auto conn = fx.make_conn(config);
  EXPECT_TRUE(fx.fetch_one(conn, 0));
  EXPECT_TRUE(fx.fetch_one(conn, 1));
  EXPECT_EQ(conn.usable_count(), 2u);

  conn.channel_transport(0).close("test: channel died");
  EXPECT_EQ(conn.usable_count(), 1u);
  // The next fetch rides the survivor and queues the re-dial.
  EXPECT_TRUE(fx.fetch_one(conn, 2));
  fx.world->sim().run_for(milliseconds(100));
  EXPECT_EQ(conn.usable_count(), 2u);
  const auto stats = conn.channel_stats();
  EXPECT_EQ(stats[0].redials, 1u);

  // The re-dialed channel carries traffic again.
  const std::uint64_t before = stats[0].requests;
  for (int i = 3; i < 7; ++i) EXPECT_TRUE(fx.fetch_one(conn, i));
  EXPECT_GT(conn.channel_stats()[0].requests, before);
}

TEST(MultipathRedial, RedialBudgetIsBounded) {
  RedialFixture fx;
  http::MultipathConfig config;
  config.schedule = http::MultipathConfig::Schedule::kRoundRobin;
  config.max_redials = 1;
  config.redial_backoff = milliseconds(10);
  auto conn = fx.make_conn(config);
  EXPECT_TRUE(fx.fetch_one(conn, 0));

  conn.channel_transport(0).close("test: first death");
  EXPECT_TRUE(fx.fetch_one(conn, 1));  // queues re-dial 1/1
  fx.world->sim().run_for(milliseconds(100));
  ASSERT_EQ(conn.usable_count(), 2u);

  // No fetch succeeded over channel 0 since the re-dial, so the budget is
  // still spent: a second death must NOT re-dial again.
  conn.channel_transport(0).close("test: second death");
  EXPECT_TRUE(fx.fetch_one(conn, 2));
  fx.world->sim().run_for(milliseconds(300));
  EXPECT_EQ(conn.usable_count(), 1u);
  EXPECT_EQ(conn.channel_stats()[0].redials, 1u);
}

TEST(MultipathRedial, SuccessRefillsTheBudget) {
  RedialFixture fx;
  http::MultipathConfig config;
  config.schedule = http::MultipathConfig::Schedule::kRoundRobin;
  config.max_redials = 1;
  config.redial_backoff = milliseconds(10);
  auto conn = fx.make_conn(config);
  EXPECT_TRUE(fx.fetch_one(conn, 0));

  conn.channel_transport(0).close("test: first death");
  EXPECT_TRUE(fx.fetch_one(conn, 1));
  fx.world->sim().run_for(milliseconds(100));
  ASSERT_EQ(conn.usable_count(), 2u);
  // Drive fetches until one lands on the re-dialed channel 0 (round-robin
  // reaches it within two picks), refilling its budget.
  for (int i = 2; i < 4; ++i) EXPECT_TRUE(fx.fetch_one(conn, i));
  conn.channel_transport(0).close("test: second death");
  EXPECT_TRUE(fx.fetch_one(conn, 4));
  fx.world->sim().run_for(milliseconds(100));
  EXPECT_EQ(conn.usable_count(), 2u);  // budget was refilled; re-dialed again
}

TEST(MultipathIntent, IntentPicksChannelByPathLatency) {
  RedialFixture fx;
  ASSERT_EQ(fx.paths.size(), 2u);
  http::MultipathConfig config;
  config.schedule = http::MultipathConfig::Schedule::kRoundRobin;
  auto conn = fx.make_conn(config);
  // paths[0] is the fast (30ms) path, paths[1] the slow (84ms) one: daemon
  // results are latency-sorted.
  ASSERT_LT(fx.paths[0].meta().latency, fx.paths[1].meta().latency);
  EXPECT_TRUE(fx.fetch_one(conn, 0, net::FetchIntent::kLatencyCritical));
  EXPECT_TRUE(fx.fetch_one(conn, 1, net::FetchIntent::kBackground));
  const auto stats = conn.channel_stats();
  EXPECT_EQ(stats[0].requests, 1u);  // latency-critical rode the fast path
  EXPECT_EQ(stats[1].requests, 1u);  // background rode the slow path
}

}  // namespace
}  // namespace pan::proxy
