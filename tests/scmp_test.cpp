// Tests for SCMP error reporting, path revocation, and failover: link
// failures and expired hop fields must produce reports that travel back to
// the source, and the SKIP proxy must steer around the broken interface —
// including migrating live QUIC connections.
#include <gtest/gtest.h>

#include "core/scenarios.hpp"
#include "scion/scmp.hpp"

namespace pan {
namespace {

using browser::make_remote_world;
using browser::World;

TEST(ScmpMessageTest, SerializeParseRoundTrip) {
  scion::ScmpMessage msg;
  msg.type = scion::ScmpType::kLinkDown;
  msg.origin_as = scion::IsdAsn{1, 0x110};
  msg.interface = 3;
  msg.original_dst = scion::ScionAddr{scion::IsdAsn{2, 0x211}, net::IpAddr{0x0a000001}};
  msg.original_dst_port = 443;
  const auto parsed = scion::ScmpMessage::parse(msg.serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().type, msg.type);
  EXPECT_EQ(parsed.value().origin_as, msg.origin_as);
  EXPECT_EQ(parsed.value().interface, 3);
  EXPECT_EQ(parsed.value().original_dst, msg.original_dst);
  EXPECT_EQ(parsed.value().original_dst_port, 443);
}

TEST(ScmpMessageTest, RejectsGarbage) {
  EXPECT_FALSE(scion::ScmpMessage::parse(Bytes{}).ok());
  EXPECT_FALSE(scion::ScmpMessage::parse(Bytes{0x63, 0x01}).ok());
  scion::ScmpMessage msg;
  Bytes wire = msg.serialize();
  wire.push_back(0x00);  // trailing junk
  EXPECT_FALSE(scion::ScmpMessage::parse(wire).ok());
}

TEST(ReversedPrefixTest, PrefixDeliversBackToSource) {
  auto world = make_remote_world();
  auto& topo = world->topology();
  const auto client = world->client;
  const auto server = topo.host_by_name("far-www");
  const auto paths = topo.daemon_for(client).query_now(topo.as_of(server));
  ASSERT_FALSE(paths.empty());
  const scion::DataplanePath& forward = paths.front().dataplane();

  // The prefix ending at the last hop of the last segment, reversed, must
  // equal the full reversed path.
  const std::size_t last_seg = forward.segments.size() - 1;
  const std::size_t last_hop = forward.segments[last_seg].length() - 1;
  const scion::DataplanePath full = forward.reversed_prefix(last_seg, last_hop);
  EXPECT_EQ(full.total_hops(), forward.reversed().total_hops());

  // A mid-path prefix has fewer hops and still starts/ends correctly.
  const scion::DataplanePath mid = forward.reversed_prefix(0, 0);
  EXPECT_EQ(mid.total_hops(), 1u);
}

struct FailoverWorld {
  std::unique_ptr<World> world = make_remote_world();
  scion::HostId server;
  net::NodeId c1_node;

  FailoverWorld() {
    auto& topo = world->topology();
    server = topo.host_by_name("far-www");
  }

  /// Takes down the core-1 <-> core-2b link (the fast detour used by the
  /// best path). Returns the (AS, egress interface) as seen from core-1.
  std::pair<scion::IsdAsn, scion::IfaceId> kill_fast_link() {
    auto& topo = world->topology();
    // Find it via the best path's hop at core-1.
    const auto paths = topo.daemon_for(world->client).query_now(topo.as_of(server));
    const scion::Path& best = paths.front();
    const scion::IsdAsn c1 = topo.as_by_name("core-1");
    for (const scion::PathHop& hop : best.hops()) {
      if (hop.isd_as == c1) {
        // The egress interface id maps to the router's net interface.
        const net::IfId net_if = scion::BorderRouter::to_net_if(hop.egress);
        // core-1's router node: find by sending via any path — instead use
        // the topology helper: the BR owns the router; we reach the network
        // through the host. Take the link down from core-1's side.
        // Topology does not expose router nodes, so walk the network: the
        // node name is "br-core-1".
        auto& network = topo.network();
        for (net::NodeId node = 0; node < network.node_count(); ++node) {
          if (network.node_name(node) == "br-core-1") {
            network.set_link_up(node, net_if, false);
            return {c1, hop.egress};
          }
        }
      }
    }
    ADD_FAILURE() << "fast link not found";
    return {scion::IsdAsn{}, 0};
  }
};

TEST(ScmpTest, LinkDownGeneratesReportToSource) {
  FailoverWorld fx;
  auto& topo = fx.world->topology();
  const auto paths = topo.daemon_for(fx.world->client).query_now(topo.as_of(fx.server));
  ASSERT_FALSE(paths.empty());
  fx.kill_fast_link();

  scion::ScionStack& stack = topo.scion_stack(fx.world->client);
  std::vector<scion::ScmpMessage> reports;
  const auto sub = stack.subscribe_scmp(
      [&](const scion::ScmpMessage& m) { reports.push_back(m); });
  auto socket = stack.bind(0, nullptr);
  socket->send_to(scion::ScionEndpoint{topo.scion_addr(fx.server), 9000},
                  scion::WirePath(paths.front().dataplane()), from_string("probe"));
  fx.world->sim().run();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].type, scion::ScmpType::kLinkDown);
  EXPECT_EQ(reports[0].origin_as, topo.as_by_name("core-1"));
  EXPECT_NE(reports[0].interface, scion::kNoIface);
  EXPECT_EQ(reports[0].original_dst.ia, topo.as_of(fx.server));
  stack.unsubscribe_scmp(sub);
}

TEST(ScmpTest, ExpiredHopGeneratesReport) {
  auto world = make_remote_world();
  auto& topo = world->topology();
  const auto server = topo.host_by_name("far-www");
  const auto paths = topo.daemon_for(world->client).query_now(topo.as_of(server));
  topo.set_data_plane_time(1'000'000 + 24 * 3600 + 1);  // past expiry

  scion::ScionStack& stack = topo.scion_stack(world->client);
  std::vector<scion::ScmpMessage> reports;
  stack.subscribe_scmp([&](const scion::ScmpMessage& m) { reports.push_back(m); });
  auto socket = stack.bind(0, nullptr);
  socket->send_to(scion::ScionEndpoint{topo.scion_addr(server), 9000},
                  scion::WirePath(paths.front().dataplane()), from_string("probe"));
  world->sim().run();
  ASSERT_GE(reports.size(), 1u);
  EXPECT_EQ(reports[0].type, scion::ScmpType::kExpiredHop);
}

TEST(ScmpTest, NoReportLoopsForScmpPackets) {
  // Kill the link *toward the client* after the packet passed: the SCMP
  // report itself cannot be forwarded, and that failure must not generate
  // another report. We simulate by killing the client's access... simpler:
  // kill the first inter-AS link; the source's own BR generates the report
  // and delivers it locally; total SCMP per probe is exactly one.
  FailoverWorld fx;
  auto& topo = fx.world->topology();
  const auto paths = topo.daemon_for(fx.world->client).query_now(topo.as_of(fx.server));
  fx.kill_fast_link();
  scion::ScionStack& stack = topo.scion_stack(fx.world->client);
  int reports = 0;
  stack.subscribe_scmp([&](const scion::ScmpMessage&) { ++reports; });
  auto socket = stack.bind(0, nullptr);
  for (int i = 0; i < 3; ++i) {
    socket->send_to(scion::ScionEndpoint{topo.scion_addr(fx.server), 9000},
                    scion::WirePath(paths.front().dataplane()), from_string("p"));
  }
  fx.world->sim().run();
  EXPECT_EQ(reports, 3);
  std::uint64_t scmp_sent = 0;
  for (const auto ia : topo.all_ases()) {
    scmp_sent += topo.border_router_stats(ia).scmp_sent;
  }
  EXPECT_EQ(scmp_sent, 3u);
}

TEST(ScmpTest, ProxyRevokesAndFailsOverNewRequests) {
  FailoverWorld fx;
  fx.world->site("www.far.example")->add_text("/a", "A");
  fx.world->site("www.far.example")->add_text("/b", "B");
  auto& topo = fx.world->topology();

  dns::Resolver resolver(fx.world->sim(), fx.world->zone(), {});
  proxy::SkipProxy proxy(fx.world->sim(), topo.host(fx.world->client),
                         topo.scion_stack(fx.world->client),
                         topo.daemon_for(fx.world->client), resolver, {});
  const auto fetch = [&](const char* target) {
    http::HttpRequest request;
    request.target = target;
    proxy::ProxyResult out;
    bool done = false;
    proxy.fetch(request, {}, [&](proxy::ProxyResult r) {
      out = std::move(r);
      done = true;
    });
    fx.world->sim().run_until_condition([&] { return done; },
                                        fx.world->sim().now() + seconds(120));
    EXPECT_TRUE(done);
    return out;
  };

  // Warm fetch over the fast path.
  const auto first = fetch("http://www.far.example/a");
  EXPECT_EQ(first.transport, proxy::TransportUsed::kScion);

  // Break the fast link. The next request initially heads down the broken
  // path; the SCMP report arrives, the proxy revokes + migrates, and QUIC
  // loss recovery redelivers over the alternate path.
  const auto [bad_as, bad_if] = fx.kill_fast_link();
  const auto second = fetch("http://www.far.example/b");
  EXPECT_EQ(second.transport, proxy::TransportUsed::kScion);
  EXPECT_EQ(to_string_view_copy(second.response.body), "B");
  EXPECT_NE(second.path_fingerprint, first.path_fingerprint);
  EXPECT_GT(proxy.metrics().counter_value("proxy.scmp_reports"), 0u);
  EXPECT_GE(proxy.selector().active_revocations(), 1u);

  // The revoked path is excluded from selection.
  const auto paths = topo.daemon_for(fx.world->client)
                         .query_now(topo.as_by_name("server-as"));
  for (const auto& p : paths) {
    if (p.uses_interface(bad_as, bad_if)) {
      EXPECT_TRUE(proxy.selector().is_revoked(p));
    }
  }
}

TEST(ScmpTest, RevocationExpiresAndPathReturns) {
  FailoverWorld fx;
  auto& topo = fx.world->topology();
  dns::Resolver resolver(fx.world->sim(), fx.world->zone(), {});
  proxy::ProxyConfig config;
  config.revocation_ttl = seconds(5);
  proxy::SkipProxy proxy(fx.world->sim(), topo.host(fx.world->client),
                         topo.scion_stack(fx.world->client),
                         topo.daemon_for(fx.world->client), resolver, config);
  const auto [bad_as, bad_if] = fx.kill_fast_link();
  proxy.selector().revoke(bad_as, bad_if, config.revocation_ttl);
  EXPECT_EQ(proxy.selector().active_revocations(), 1u);
  fx.world->sim().run_until(fx.world->sim().now() + seconds(6));
  EXPECT_EQ(proxy.selector().active_revocations(), 0u);
}

TEST(ScmpTest, MidTransferLinkFailureMigratesLiveConnection) {
  FailoverWorld fx;
  auto& site = *fx.world->site("www.far.example");
  site.add_blob("/big.bin", 400'000);
  auto& topo = fx.world->topology();

  dns::Resolver resolver(fx.world->sim(), fx.world->zone(), {});
  proxy::SkipProxy proxy(fx.world->sim(), topo.host(fx.world->client),
                         topo.scion_stack(fx.world->client),
                         topo.daemon_for(fx.world->client), resolver, {});
  http::HttpRequest request;
  request.target = "http://www.far.example/big.bin";
  proxy::ProxyResult out;
  bool done = false;
  proxy.fetch(request, {}, [&](proxy::ProxyResult r) {
    out = std::move(r);
    done = true;
  });
  // Let the transfer get going, then cut the link mid-flight.
  fx.world->sim().run_until(fx.world->sim().now() + milliseconds(150));
  ASSERT_FALSE(done);
  fx.kill_fast_link();
  fx.world->sim().run_until_condition([&] { return done; },
                                      fx.world->sim().now() + seconds(120));
  ASSERT_TRUE(done);
  EXPECT_EQ(out.transport, proxy::TransportUsed::kScion);
  EXPECT_EQ(out.response.body.size(), 400'000u);
  EXPECT_GE(proxy.metrics().counter_value("proxy.scmp_reroutes"), 1u);
}

}  // namespace
}  // namespace pan
