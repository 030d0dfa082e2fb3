// Tests for the extension features beyond the paper's prototype (its stated
// future work): multipath HTTP, server<->browser path negotiation, path
// performance feedback, and control-plane refresh (re-beaconing + hop-field
// expiry).
#include <gtest/gtest.h>

#include "core/scenarios.hpp"
#include "crypto/sha256.hpp"
#include "http/file_server.hpp"
#include "http/multipath.hpp"
#include "ppl/parser.hpp"
#include "proxy/negotiation.hpp"

namespace pan {
namespace {

using browser::make_remote_world;
using browser::World;

// ----------------------------------------------------------- negotiation --

TEST(NegotiationTest, ParsePathPreference) {
  const auto keys = proxy::parse_path_preference("co2 asc, latency");
  ASSERT_TRUE(keys.ok()) << keys.error();
  ASSERT_EQ(keys.value().size(), 2u);
  EXPECT_EQ(keys.value()[0].metric, ppl::Metric::kCo2);
  EXPECT_TRUE(keys.value()[0].ascending);
  EXPECT_EQ(keys.value()[1].metric, ppl::Metric::kLatency);

  const auto desc = proxy::parse_path_preference("bandwidth desc");
  ASSERT_TRUE(desc.ok());
  EXPECT_FALSE(desc.value()[0].ascending);
}

TEST(NegotiationTest, ParseErrors) {
  EXPECT_FALSE(proxy::parse_path_preference("").ok());
  EXPECT_FALSE(proxy::parse_path_preference("warp asc").ok());
  EXPECT_FALSE(proxy::parse_path_preference("latency sideways").ok());
  EXPECT_FALSE(proxy::parse_path_preference("latency asc extra").ok());
}

TEST(NegotiationTest, SerializeRoundTrip) {
  const auto keys = proxy::parse_path_preference("co2 asc, latency desc").take();
  const std::string text = proxy::serialize_path_preference(keys);
  const auto reparsed = proxy::parse_path_preference(text);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(proxy::serialize_path_preference(reparsed.value()), text);
}

struct NegotiationFixture {
  std::unique_ptr<World> world = make_remote_world();
  std::unique_ptr<dns::Resolver> resolver;
  std::unique_ptr<proxy::SkipProxy> proxy;

  NegotiationFixture() {
    auto& topo = world->topology();
    resolver = std::make_unique<dns::Resolver>(world->sim(), world->zone(),
                                               dns::ResolverConfig{});
    proxy = std::make_unique<proxy::SkipProxy>(world->sim(), topo.host(world->client),
                                               topo.scion_stack(world->client),
                                               topo.daemon_for(world->client), *resolver);
  }

  proxy::ProxyResult fetch(const std::string& url) {
    http::HttpRequest request;
    request.target = url;
    proxy::ProxyResult out;
    bool done = false;
    proxy->fetch(request, {}, [&](proxy::ProxyResult r) {
      out = std::move(r);
      done = true;
    });
    world->sim().run_until_condition([&] { return done; },
                                     world->sim().now() + seconds(60));
    EXPECT_TRUE(done);
    return out;
  }
};

TEST(NegotiationTest, ServerPreferenceSteersSubsequentRequests) {
  NegotiationFixture fx;
  auto& site = *fx.world->site("www.far.example");
  site.set_extra_header("Path-Preference", "co2 asc");
  site.add_text("/a", "first");
  site.add_text("/b", "second");

  // First request: no preference known yet -> fastest path (30 ms, dirty).
  const auto first = fx.fetch("http://www.far.example/a");
  EXPECT_EQ(first.transport, proxy::TransportUsed::kScion);
  ASSERT_TRUE(fx.proxy->origin_preferences().contains("www.far.example"));

  // Second request: the server's green preference now applies.
  const auto second = fx.fetch("http://www.far.example/b");
  EXPECT_EQ(second.transport, proxy::TransportUsed::kScion);
  EXPECT_NE(second.path_fingerprint, first.path_fingerprint);

  auto& topo = fx.world->topology();
  const auto paths = topo.daemon_for(fx.world->client)
                         .query_now(topo.as_by_name("server-as"));
  double best_co2 = 1e18;
  std::string greenest;
  for (const auto& p : paths) {
    if (p.meta().co2_g_per_gb < best_co2) {
      best_co2 = p.meta().co2_g_per_gb;
      greenest = p.fingerprint();
    }
  }
  EXPECT_EQ(second.path_fingerprint, greenest);
}

TEST(NegotiationTest, UserPolicyOutranksServerPreference) {
  NegotiationFixture fx;
  auto& site = *fx.world->site("www.far.example");
  site.set_extra_header("Path-Preference", "co2 asc");
  site.add_text("/a", "x");
  site.add_text("/b", "y");
  // User explicitly wants latency.
  fx.proxy->set_policies(
      ppl::PolicySet{{ppl::parse_policy("policy { order latency asc; }").value()}});
  const auto first = fx.fetch("http://www.far.example/a");
  const auto second = fx.fetch("http://www.far.example/b");
  // Both requests stay on the latency-optimal path despite the server's ask.
  EXPECT_EQ(second.path_fingerprint, first.path_fingerprint);
}

TEST(NegotiationTest, MalformedPreferenceIgnored) {
  NegotiationFixture fx;
  auto& site = *fx.world->site("www.far.example");
  site.set_extra_header("Path-Preference", "warp-speed yes");
  site.add_text("/a", "x");
  fx.fetch("http://www.far.example/a");
  EXPECT_FALSE(fx.proxy->origin_preferences().contains("www.far.example"));
}

TEST(NegotiationTest, ReverseProxyCanInjectPreference) {
  // A world where the reverse proxy injects the preference on behalf of the
  // backend operator.
  auto world = std::make_unique<World>(browser::WorldConfig{});
  auto& topo = world->topology();
  scion::AsSpec core;
  core.name = "core";
  core.ia = scion::IsdAsn{1, 0x110};
  core.core = true;
  topo.add_as(core);
  world->client = topo.add_host("core", "client");
  const auto backend = topo.add_host("core", "backend");
  const auto rp_host = topo.add_host("core", "rp");
  topo.finalize();
  auto& fs = world->add_site(backend, "site.example",
                             browser::SiteOptions{.legacy = true, .native_scion = false});
  fs.add_text("/x", "content");
  proxy::ReverseProxyConfig rp_config;
  rp_config.inject_path_preference = "latency asc";
  world->add_reverse_proxy(rp_host, "site.example", backend, rp_config);

  dns::Resolver resolver(world->sim(), world->zone(), {});
  proxy::SkipProxy skip(world->sim(), topo.host(world->client),
                        topo.scion_stack(world->client), topo.daemon_for(world->client),
                        resolver);
  http::HttpRequest request;
  request.target = "http://site.example/x";
  bool done = false;
  skip.fetch(request, {}, [&](proxy::ProxyResult r) {
    EXPECT_EQ(r.transport, proxy::TransportUsed::kScion);
    done = true;
  });
  world->sim().run_until_condition([&] { return done; }, world->sim().now() + seconds(30));
  ASSERT_TRUE(done);
  EXPECT_TRUE(skip.origin_preferences().contains("site.example"));
}

// ------------------------------------------------------------- feedback --

TEST(FeedbackTest, ObservedRttRecordedPerPath) {
  NegotiationFixture fx;
  fx.world->site("www.far.example")->add_blob("/blob.bin", 40'000);
  fx.fetch("http://www.far.example/blob.bin");
  const auto& usage = fx.proxy->selector().usage();
  ASSERT_EQ(usage.size(), 1u);
  const proxy::PathUsage& u = usage.begin()->second;
  EXPECT_GT(u.observed_rtt.nanos(), 0);
  // The 30ms path: observed RTT should be in the right ballpark.
  EXPECT_NEAR(u.observed_rtt.millis(), 60.0, 30.0);
  EXPECT_GT(u.last_used.nanos(), 0);
}

// ------------------------------------------------------------ multipath --

struct MultipathFixture {
  std::unique_ptr<World> world;
  scion::HostId rp;
  std::vector<scion::Path> paths;

  MultipathFixture() {
    browser::WorldConfig config;
    config.seed = 9;
    world = make_remote_world(config);
    auto& site = *world->site("www.far.example");
    for (int i = 0; i < 8; ++i) {
      site.add_blob("/obj" + std::to_string(i) + ".bin", 20'000);
    }
    auto& topo = world->topology();
    rp = topo.host_by_name("far-rp1");
    for (const auto& p : topo.daemon_for(world->client).query_now(topo.as_of(rp))) {
      if (p.link_count() == 3) paths.push_back(p);  // the disjoint pair
    }
  }

  [[nodiscard]] http::MultipathScionConnection make_conn(
      http::MultipathConfig config = {}) {
    auto& topo = world->topology();
    return http::MultipathScionConnection(
        topo.scion_stack(world->client),
        scion::ScionEndpoint{topo.scion_addr(rp), 80}, paths, config);
  }

  int fetch_all(http::MultipathScionConnection& conn, int count) {
    int done = 0;
    for (int i = 0; i < count; ++i) {
      http::HttpRequest req;
      req.target = "/obj" + std::to_string(i) + ".bin";
      req.headers.set("Host", "www.far.example");
      conn.fetch(req, [&](Result<http::HttpResponse> r) {
        if (r.ok() && r.value().ok()) ++done;
      });
    }
    world->sim().run_until_condition([&] { return done == count; },
                                     world->sim().now() + seconds(120));
    return done;
  }
};

TEST(MultipathTest, FetchesSpreadAcrossChannels) {
  MultipathFixture fx;
  ASSERT_EQ(fx.paths.size(), 2u);
  http::MultipathConfig config;
  config.schedule = http::MultipathConfig::Schedule::kRoundRobin;
  auto conn = fx.make_conn(config);
  EXPECT_EQ(fx.fetch_all(conn, 8), 8);
  const auto stats = conn.channel_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].requests, 4u);
  EXPECT_EQ(stats[1].requests, 4u);
  EXPECT_GT(stats[0].bytes, 0u);
  EXPECT_GT(stats[1].bytes, 0u);
}

TEST(MultipathTest, WeightedLatencyPrefersFastPath) {
  MultipathFixture fx;
  http::MultipathConfig config;
  config.schedule = http::MultipathConfig::Schedule::kWeightedLatency;
  auto conn = fx.make_conn(config);
  EXPECT_EQ(fx.fetch_all(conn, 8), 8);
  const auto stats = conn.channel_stats();
  // paths[0] is the 30ms path (daemon order); it must carry more requests.
  EXPECT_GT(stats[0].requests, stats[1].requests);
}

TEST(MultipathTest, FailoverToSurvivingChannel) {
  MultipathFixture fx;
  auto conn = fx.make_conn();
  // Kill channel 0's transport; fetches must succeed via channel 1.
  conn.channel_transport(0).close("induced failure");
  EXPECT_EQ(fx.fetch_all(conn, 4), 4);
  const auto stats = conn.channel_stats();
  EXPECT_EQ(stats[0].requests + stats[1].requests, 4u);
  EXPECT_EQ(stats[1].requests, 4u);
}

TEST(MultipathTest, AllChannelsDeadErrors) {
  MultipathFixture fx;
  auto conn = fx.make_conn();
  conn.channel_transport(0).close("dead");
  conn.channel_transport(1).close("dead");
  bool errored = false;
  http::HttpRequest req;
  req.target = "/obj0.bin";
  req.headers.set("Host", "www.far.example");
  conn.fetch(req, [&](Result<http::HttpResponse> r) { errored = !r.ok(); });
  fx.world->sim().run_for(seconds(1));
  EXPECT_TRUE(errored);
}

/// Multipath must deliver every object intact even when both paths lose
/// packets.
class MultipathLoss : public ::testing::TestWithParam<double> {};

TEST_P(MultipathLoss, LossyChannelsStillDeliverIntact) {
  browser::WorldConfig config;
  config.seed = 17;
  config.inter_as_loss = GetParam();
  auto world = make_remote_world(config);
  auto& site = *world->site("www.far.example");
  for (int i = 0; i < 6; ++i) {
    site.add_blob("/obj" + std::to_string(i) + ".bin", 15'000);
  }
  auto& topo = world->topology();
  const auto rp = topo.host_by_name("far-rp1");
  std::vector<scion::Path> paths;
  for (const auto& p : topo.daemon_for(world->client).query_now(topo.as_of(rp))) {
    if (p.link_count() == 3) paths.push_back(p);
  }
  ASSERT_EQ(paths.size(), 2u);

  http::MultipathScionConnection conn(topo.scion_stack(world->client),
                                      scion::ScionEndpoint{topo.scion_addr(rp), 80}, paths);
  int done = 0;
  bool intact = true;
  for (int i = 0; i < 6; ++i) {
    http::HttpRequest req;
    req.target = "/obj" + std::to_string(i) + ".bin";
    req.headers.set("Host", "www.far.example");
    const Bytes expected = http::generate_blob(
        15'000, [&] {
          const auto tag = crypto::sha256("/obj" + std::to_string(i) + ".bin");
          std::uint64_t seed = 0;
          for (int b = 0; b < 8; ++b) seed = (seed << 8) | tag[static_cast<std::size_t>(b)];
          return seed;
        }());
    conn.fetch(req, [&, expected](Result<http::HttpResponse> r) {
      if (!r.ok() || r.value().body != expected) intact = false;
      ++done;
    });
  }
  world->sim().run_until_condition([&] { return done == 6; },
                                   world->sim().now() + seconds(300));
  EXPECT_EQ(done, 6);
  EXPECT_TRUE(intact);
  if (GetParam() > 0) {
    EXPECT_GT(topo.network().drop_totals().loss, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(LossRates, MultipathLoss, ::testing::Values(0.0, 0.03));

// --------------------------------------------------- rebeacon and expiry --

TEST(RebeaconTest, ExpiredHopFieldsDropped) {
  auto world = make_remote_world();
  auto& topo = world->topology();
  const auto server = topo.host_by_name("far-www");
  const auto paths = topo.daemon_for(world->client).query_now(topo.as_of(server));
  ASSERT_FALSE(paths.empty());

  std::string got;
  auto socket = topo.scion_stack(server).bind(
      9000,
      [&](const scion::ScionEndpoint&, const scion::ScionHeaderView&, net::PacketView payload) {
        got = to_string_view_copy(payload.span());
      });
  auto client = topo.scion_stack(world->client).bind(0, nullptr);

  // Advance the data-plane clock beyond beacon_ts + hop expiry (24h).
  topo.set_data_plane_time(1'000'000 + 24 * 3600 + 1);
  client->send_to(scion::ScionEndpoint{topo.scion_addr(server), 9000},
                  scion::WirePath(paths.front().dataplane()), from_string("stale"));
  world->sim().run();
  EXPECT_EQ(got, "");
  std::uint64_t expired_drops = 0;
  for (const auto ia : topo.all_ases()) {
    expired_drops += topo.border_router_stats(ia).drop_expired;
  }
  EXPECT_GE(expired_drops, 1u);

  // Re-beacon with a fresh timestamp: new paths work under the same clock.
  topo.rebeacon(1'000'000 + 24 * 3600);
  const auto fresh = topo.daemon_for(world->client).query_now(topo.as_of(server));
  ASSERT_FALSE(fresh.empty());
  client->send_to(scion::ScionEndpoint{topo.scion_addr(server), 9000},
                  scion::WirePath(fresh.front().dataplane()), from_string("fresh"));
  world->sim().run();
  EXPECT_EQ(got, "fresh");
}

TEST(RebeaconTest, DaemonCachesFlushOnRebeacon) {
  auto world = make_remote_world();
  auto& topo = world->topology();
  scion::Daemon& daemon = topo.daemon_for(world->client);
  bool done = false;
  daemon.query(topo.as_by_name("server-as"), [&](std::vector<scion::Path>) { done = true; });
  world->sim().run();
  ASSERT_TRUE(done);
  EXPECT_EQ(daemon.cache_misses(), 1u);

  topo.rebeacon(2'000'000);
  bool done2 = false;
  std::uint32_t seen_ts = 0;
  daemon.query(topo.as_by_name("server-as"), [&](std::vector<scion::Path> paths) {
    done2 = true;
    ASSERT_FALSE(paths.empty());
    seen_ts = paths.front().dataplane().segments.front().origin_ts;
  });
  world->sim().run();
  ASSERT_TRUE(done2);
  EXPECT_EQ(daemon.cache_misses(), 2u);  // cache was flushed
  EXPECT_EQ(seen_ts, 2'000'000u);        // fresh segments
}

TEST(RebeaconTest, OldPathsRejectedAfterKeyEpochChange) {
  // Paths carrying the old timestamp fail MAC verification once beacons are
  // re-originated (the MAC input includes the origination timestamp, so the
  // data plane cleanly distinguishes epochs).
  auto world = make_remote_world();
  auto& topo = world->topology();
  const auto server = topo.host_by_name("far-www");
  const auto old_paths = topo.daemon_for(world->client).query_now(topo.as_of(server));
  topo.rebeacon(3'000'000);

  // Old dataplane paths still verify (MAC covers ts, key unchanged) — expiry
  // is what retires them. Fresh paths must carry the new timestamp.
  const auto fresh = topo.daemon_for(world->client).query_now(topo.as_of(server));
  ASSERT_FALSE(fresh.empty());
  EXPECT_EQ(fresh.front().dataplane().segments.front().origin_ts, 3'000'000u);
  ASSERT_FALSE(old_paths.empty());
  EXPECT_NE(old_paths.front().dataplane().segments.front().origin_ts, 3'000'000u);
}

}  // namespace
}  // namespace pan
