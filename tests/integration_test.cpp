// Cross-module integration tests: full page loads through browser ->
// extension -> SKIP proxy -> QUIC/SCION or TCP/IP -> file servers / reverse
// proxies, checking the paper's qualitative results end to end.
#include <gtest/gtest.h>

#include "core/scenarios.hpp"
#include "http/file_server.hpp"
#include "ppl/parser.hpp"
#include "scion/border_router.hpp"

namespace pan::browser {
namespace {

std::vector<std::string> publish_page(http::FileServer& fs, const std::string& prefix,
                                      int resources, std::size_t bytes_each) {
  std::vector<std::string> urls;
  for (int i = 0; i < resources; ++i) {
    const std::string path = "/" + prefix + std::to_string(i) + ".bin";
    fs.add_blob(path, bytes_each);
    urls.push_back(path);
  }
  fs.add_text("/", render_document(urls));
  return urls;
}

TEST(IntegrationTest, Figure3OrderingHoldsInLocalWorld) {
  // The paper's local-setup finding: SCION-only and mixed loads through the
  // extension+proxy pay an overhead vs. the BGP/IP-only baseline; the
  // strict-SCION run (blocked legacy resources never fetched) is fastest.
  auto world = make_local_world();
  auto& scion_fs = *world->site("scion-fs.local");
  auto& tcpip_fs = *world->site("tcpip-fs.local");

  // SCION-only page.
  publish_page(scion_fs, "s", 6, 20'000);
  // Mixed page: doc + 1 resource on SCION FS, 5 on the TCP/IP FS.
  std::vector<std::string> mixed;
  scion_fs.add_blob("/mixed0.bin", 20'000);
  mixed.push_back("/mixed0.bin");
  for (int i = 1; i < 6; ++i) {
    const std::string path = "/m" + std::to_string(i) + ".bin";
    tcpip_fs.add_blob(path, 20'000);
    mixed.push_back("http://tcpip-fs.local" + path);
  }
  scion_fs.add_text("/mixed", render_document(mixed));
  // Baseline page on the TCP/IP FS.
  publish_page(tcpip_fs, "b", 6, 20'000);

  const PageLoadResult scion_only = ClientSession(*world).load("http://scion-fs.local/");
  const PageLoadResult mixed_load = ClientSession(*world).load("http://scion-fs.local/mixed");
  ClientSession strict_session(*world);
  strict_session.extension().set_mode(OperationMode::kStrict);
  const PageLoadResult strict = strict_session.load("http://scion-fs.local/mixed");
  const PageLoadResult baseline = DirectSession(*world).load("http://tcpip-fs.local/");

  ASSERT_TRUE(scion_only.ok);
  ASSERT_TRUE(mixed_load.ok);
  ASSERT_TRUE(baseline.ok);
  EXPECT_EQ(strict.blocked, 5u);

  // Orderings (generous epsilon; exact numbers are the bench's job).
  EXPECT_GT(scion_only.plt.nanos(), baseline.plt.nanos());
  EXPECT_GT(mixed_load.plt.nanos(), baseline.plt.nanos());
  EXPECT_LT(strict.plt.nanos(), mixed_load.plt.nanos());
}

TEST(IntegrationTest, Figure5ScionWinsForDistantSingleOrigin) {
  auto world = make_remote_world();
  publish_page(*world->site("www.far.example"), "r", 5, 30'000);
  const PageLoadResult over_scion = ClientSession(*world).load("http://www.far.example/");
  const PageLoadResult over_ip = DirectSession(*world).load("http://www.far.example/");
  ASSERT_TRUE(over_scion.ok);
  ASSERT_TRUE(over_ip.ok);
  EXPECT_EQ(over_scion.over_scion, over_scion.resources.size());
  // SCION's latency-optimized path beats the BGP route decisively.
  EXPECT_LT(over_scion.plt.nanos() * 3, over_ip.plt.nanos() * 2);
}

TEST(IntegrationTest, Figure6NearPageSmallOverhead) {
  auto world = make_remote_world();
  publish_page(*world->site("www.near.example"), "n", 5, 30'000);
  const PageLoadResult over_scion = ClientSession(*world).load("http://www.near.example/");
  const PageLoadResult over_ip = DirectSession(*world).load("http://www.near.example/");
  ASSERT_TRUE(over_scion.ok);
  ASSERT_TRUE(over_ip.ok);
  // Paths are equivalent; the extension+proxy must cost only a small
  // overhead (well under 2x).
  EXPECT_LT(over_scion.plt.nanos(), over_ip.plt.nanos() * 2);
}

TEST(IntegrationTest, ContentIntegrityThroughReverseProxy) {
  auto world = make_remote_world();
  auto& fs = *world->site("www.far.example");
  fs.add_blob("/blob.bin", 60'000);
  fs.add_text("/", render_document({"/blob.bin"}));
  ClientSession session(*world);
  const PageLoadResult result = session.load("http://www.far.example/");
  ASSERT_TRUE(result.ok);
  ASSERT_EQ(result.resources.size(), 2u);
  EXPECT_EQ(result.resources[1].bytes, 60'000u);
  EXPECT_EQ(result.resources[1].transport, proxy::TransportUsed::kScion);
}

TEST(IntegrationTest, GeofencedBrowsingAvoidsBlockedIsdOpportunistically) {
  auto world = make_remote_world();
  publish_page(*world->site("www.far.example"), "g", 3, 10'000);
  ClientSession session(*world);
  // Block nothing relevant: ISD 3 does not exist on any path.
  ppl::Geofence fence;
  fence.mode = ppl::GeofenceMode::kBlocklist;
  fence.isds = {3};
  session.extension().set_geofence(fence);
  const PageLoadResult result = session.load("http://www.far.example/");
  ASSERT_TRUE(result.ok);
  EXPECT_TRUE(result.fully_policy_compliant);
}

TEST(IntegrationTest, GeofenceForcesDetourAroundBlockedCoreAs) {
  auto world = make_remote_world();
  publish_page(*world->site("www.far.example"), "g", 3, 10'000);
  auto& topo = world->topology();

  // Baseline: best path goes through core-2b (the fast detour).
  ClientSession free_session(*world);
  const PageLoadResult free_load = free_session.load("http://www.far.example/");
  ASSERT_TRUE(free_load.ok);
  bool used_c2b = false;
  for (const auto& [fp, usage] : free_session.proxy().selector().usage()) {
    if (usage.description.find(topo.as_by_name("core-2b").to_string()) != std::string::npos) {
      used_c2b = true;
    }
  }
  EXPECT_TRUE(used_c2b);

  // Policy: avoid core-2b entirely -> longer but compliant path.
  ClientSession fenced_session(*world);
  fenced_session.extension().set_policies(ppl::PolicySet{
      {ppl::parse_policy("policy { acl { deny 2-ff00:0:220; allow *; } }").value()}});
  const PageLoadResult fenced_load = fenced_session.load("http://www.far.example/");
  ASSERT_TRUE(fenced_load.ok);
  EXPECT_TRUE(fenced_load.fully_policy_compliant);
  for (const auto& [fp, usage] : fenced_session.proxy().selector().usage()) {
    EXPECT_EQ(usage.description.find(topo.as_by_name("core-2b").to_string()),
              std::string::npos);
  }
  EXPECT_GT(fenced_load.plt.nanos(), free_load.plt.nanos());
}

TEST(IntegrationTest, Co2OrderedPolicyPicksGreenestPath) {
  auto world = make_remote_world();
  publish_page(*world->site("www.far.example"), "c", 2, 5'000);
  auto& topo = world->topology();
  ClientSession session(*world);
  session.extension().set_policies(
      ppl::PolicySet{{ppl::parse_policy("policy { order co2 asc; }").value()}});
  const PageLoadResult result = session.load("http://www.far.example/");
  ASSERT_TRUE(result.ok);
  // Greenest route is via core-2b (10+... gCO2) rather than the 30g direct link.
  const auto paths = topo.daemon_for(world->client).query_now(topo.as_by_name("server-as"));
  double best_co2 = 1e18;
  for (const auto& p : paths) best_co2 = std::min(best_co2, p.meta().co2_g_per_gb);
  for (const auto& [fp, usage] : session.proxy().selector().usage()) {
    (void)fp;
    EXPECT_GT(usage.requests, 0u);
  }
  // The used path's fingerprint matches the greenest candidate.
  const auto& usage = session.proxy().selector().usage();
  ASSERT_FALSE(usage.empty());
  bool used_greenest = false;
  for (const auto& p : paths) {
    if (p.meta().co2_g_per_gb == best_co2 && usage.contains(p.fingerprint())) {
      used_greenest = true;
    }
  }
  EXPECT_TRUE(used_greenest);
}

TEST(IntegrationTest, DaemonCacheWarmupSpeedsUpSecondLoad) {
  auto world = make_remote_world();
  publish_page(*world->site("www.far.example"), "w", 2, 5'000);
  ClientSession session(*world);
  const PageLoadResult cold = session.load("http://www.far.example/");
  const PageLoadResult warm = session.load("http://www.far.example/");
  ASSERT_TRUE(cold.ok);
  ASSERT_TRUE(warm.ok);
  // Warm load reuses DNS + daemon caches + the QUIC connection.
  EXPECT_LT(warm.plt.nanos(), cold.plt.nanos());
}

TEST(IntegrationTest, PathMigrationMidConnection) {
  auto world = make_remote_world();
  auto& topo = world->topology();
  const auto far_www = topo.host_by_name("far-www");
  auto& fs = *world->site("www.far.example");
  fs.add_blob("/a", 2'000);
  fs.add_blob("/b", 2'000);

  const auto paths = topo.daemon_for(world->client).query_now(topo.as_of(far_www));
  ASSERT_GE(paths.size(), 2u);
  http::ScionHttpConnection conn(topo.scion_stack(world->client),
                                 scion::ScionEndpoint{topo.scion_addr(far_www), 80},
                                 paths[0].dataplane());
  // far-www runs a legacy server only; talk to its reverse proxy instead.
  // Use the native-scion test shape: fetch via rp host.
  const auto rp = topo.host_by_name("far-rp1");
  http::ScionHttpConnection rp_conn(topo.scion_stack(world->client),
                                    scion::ScionEndpoint{topo.scion_addr(rp), 80},
                                    paths.size() > 1 ? paths[0].dataplane()
                                                     : paths[0].dataplane());
  http::HttpRequest req;
  req.target = "/a";
  req.headers.set("Host", "www.far.example");
  int done = 0;
  rp_conn.fetch(req, [&](Result<http::HttpResponse> r) {
    ASSERT_TRUE(r.ok()) << r.error();
    EXPECT_EQ(r.value().body.size(), 2'000u);
    ++done;
  });
  world->sim().run_until_condition([&] { return done == 1; },
                                   world->sim().now() + seconds(30));
  ASSERT_EQ(done, 1);

  // Migrate to the second-best path and fetch again on the same connection.
  const auto rp_paths = topo.daemon_for(world->client).query_now(topo.as_of(rp));
  ASSERT_GE(rp_paths.size(), 2u);
  rp_conn.set_path(rp_paths[1].dataplane());
  req.target = "/b";
  rp_conn.fetch(req, [&](Result<http::HttpResponse> r) {
    ASSERT_TRUE(r.ok()) << r.error();
    EXPECT_EQ(r.value().body.size(), 2'000u);
    ++done;
  });
  world->sim().run_until_condition([&] { return done == 2; },
                                   world->sim().now() + seconds(30));
  EXPECT_EQ(done, 2);
}

TEST(IntegrationTest, ServerFollowsMigrationWhenOldPathDies) {
  // PathMigrationMidConnection keeps both paths alive, so a server that
  // kept replying over the old path would pass it. Here the old path loses a
  // link right after the client migrates: the fetch completes only if the
  // server re-derives its reply path from the client's new one.
  auto world = make_remote_world();
  auto& topo = world->topology();
  const auto rp = topo.host_by_name("far-rp1");
  auto& fs = *world->site("www.far.example");
  fs.add_blob("/a", 2'000);
  fs.add_blob("/b", 20'000);

  const auto paths = topo.daemon_for(world->client).query_now(topo.as_of(rp));
  ASSERT_GE(paths.size(), 2u);
  const scion::Path& old_path = paths[0];
  // A new path that avoids one inter-AS link of the old path.
  const scion::Path* new_path = nullptr;
  scion::PathHop dead_hop;
  for (std::size_t i = 1; i < paths.size() && new_path == nullptr; ++i) {
    for (const scion::PathHop& hop : old_path.hops()) {
      if (hop.egress != scion::kNoIface && !paths[i].uses_interface(hop.isd_as, hop.egress)) {
        new_path = &paths[i];
        dead_hop = hop;
        break;
      }
    }
  }
  ASSERT_NE(new_path, nullptr);

  http::ScionHttpConnection conn(topo.scion_stack(world->client),
                                 scion::ScionEndpoint{topo.scion_addr(rp), 80},
                                 old_path.dataplane());
  http::HttpRequest req;
  req.target = "/a";
  req.headers.set("Host", "www.far.example");
  int done = 0;
  const auto expect_body = [&](std::size_t size) {
    return [&done, size](Result<http::HttpResponse> r) {
      ASSERT_TRUE(r.ok()) << r.error();
      EXPECT_EQ(r.value().body.size(), size);
      ++done;
    };
  };
  conn.fetch(req, expect_body(2'000));
  world->sim().run_until_condition([&] { return done == 1; },
                                   world->sim().now() + seconds(30));
  ASSERT_EQ(done, 1);

  // The path section of every datagram the server sends from here on, read
  // off the wire as it leaves the server's host.
  const net::NodeId rp_node = topo.host(rp).node();
  std::vector<Bytes> sent_paths;
  topo.network().set_tracer([&](const net::TraceEvent& event) {
    if (event.kind != net::TraceEvent::Kind::kSend || event.from != rp_node ||
        event.proto != net::Protocol::kScion) {
      return;
    }
    const auto view = scion::ScionHeaderView::parse(event.packet->payload.span());
    ASSERT_TRUE(view.ok());
    const auto path = view.value().path_bytes();
    sent_paths.emplace_back(path.begin(), path.end());
  });

  conn.set_path(new_path->dataplane());
  net::Network& network = topo.network();
  bool link_taken_down = false;
  for (net::NodeId node = 0; node < network.node_count(); ++node) {
    const std::string& name = network.node_name(node);
    if (name.starts_with("br-") && topo.as_by_name(name.substr(3)) == dead_hop.isd_as) {
      network.set_link_up(node, scion::BorderRouter::to_net_if(dead_hop.egress), false);
      link_taken_down = true;
    }
  }
  ASSERT_TRUE(link_taken_down);
  req.target = "/b";
  conn.fetch(req, expect_body(20'000));
  world->sim().run_until_condition([&] { return done == 2; },
                                   world->sim().now() + seconds(30));
  network.set_tracer(nullptr);
  EXPECT_EQ(done, 2);

  // Once the server switched to the new reply path it never went back.
  const scion::WirePath reply(new_path->dataplane().reversed());
  const Bytes expected(reply.bytes().begin(), reply.bytes().end());
  const auto first_new = std::find(sent_paths.begin(), sent_paths.end(), expected);
  ASSERT_NE(first_new, sent_paths.end());
  EXPECT_TRUE(std::all_of(first_new, sent_paths.end(),
                          [&](const Bytes& path) { return path == expected; }));
  EXPECT_GT(sent_paths.end() - first_new, 10);
}

TEST(IntegrationTest, ManyTrialsAreDeterministicPerSeed) {
  const auto run_once = [] {
    auto world = make_remote_world();
    publish_page(*world->site("www.far.example"), "d", 4, 15'000);
    return ClientSession(*world).load("http://www.far.example/").plt.nanos();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}

TEST(IntegrationTest, LossyRemoteWorldStillCompletes) {
  WorldConfig config;
  config.link_jitter = 0.1;
  auto world = make_remote_world(config);
  // Inject loss by fetching many resources (stress) — the FIFO+recovery
  // machinery must still deliver every byte.
  publish_page(*world->site("www.far.example"), "l", 10, 25'000);
  const PageLoadResult result = ClientSession(*world).load("http://www.far.example/");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.resources.size(), 11u);
}

}  // namespace
}  // namespace pan::browser
