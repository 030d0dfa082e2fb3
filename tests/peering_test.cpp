// Tests for peering links: beacon peer entries, peering path construction,
// data-plane forwarding across the peering crossing, and policy interaction.
#include <gtest/gtest.h>

#include <unordered_set>

#include "ppl/parser.hpp"
#include "scion/topology.hpp"

namespace pan::scion {
namespace {

/// Two ISDs whose leaves peer directly:
///
///   ISD1: c1 -- a (child)        ISD2: c2 -- d (child)
///   core: c1 -- c2 (60 ms)       peering: a -- d (5 ms)
///
/// The core route a->c1->c2->d costs 2+60+2 ms; the peering shortcut a->d
/// costs 5 ms.
struct PeeringFixture {
  sim::Simulator sim;
  std::unique_ptr<Topology> topo;
  HostId host_a;
  HostId host_d;

  explicit PeeringFixture(bool with_peering = true, bool sign = false) {
    TopologyConfig config;
    config.seed = 3;
    config.sign_beacons = sign;
    config.verify_beacons = sign;
    topo = std::make_unique<Topology>(sim, config);
    const auto add = [&](const char* name, Isd isd, Asn asn, bool core) {
      AsSpec spec;
      spec.name = name;
      spec.ia = IsdAsn{isd, asn};
      spec.core = core;
      spec.meta.country = isd == 1 ? "CH" : "US";
      topo->add_as(spec);
    };
    add("c1", 1, 0x110, true);
    add("a", 1, 0x111, false);
    add("c2", 2, 0x210, true);
    add("d", 2, 0x211, false);
    const auto link = [&](const char* x, const char* y, LinkType type, std::int64_t ms) {
      AsLinkSpec spec;
      spec.a = x;
      spec.b = y;
      spec.type = type;
      spec.params.latency = milliseconds(ms);
      spec.co2_g_per_gb = 7;
      spec.cost_per_gb = 3;
      topo->add_link(spec);
    };
    link("c1", "c2", LinkType::kCore, 60);
    link("c1", "a", LinkType::kParentChild, 2);
    link("c2", "d", LinkType::kParentChild, 2);
    if (with_peering) link("a", "d", LinkType::kPeering, 5);

    host_a = topo->add_host("a", "host-a");
    host_d = topo->add_host("d", "host-d");
    topo->finalize();
  }

  [[nodiscard]] IsdAsn ia(const char* name) const { return topo->as_by_name(name); }
};

TEST(PeeringTest, BeaconsCarryPeerEntries) {
  PeeringFixture fx;
  const auto& segs = fx.topo->path_infra().down_segments(fx.ia("a"));
  ASSERT_FALSE(segs.empty());
  bool found = false;
  for (const PathSegment& seg : segs) {
    for (const AsEntry& entry : seg.entries) {
      if (entry.hop.isd_as != fx.ia("a")) continue;
      for (const PeerEntry& peer : entry.peers) {
        EXPECT_EQ(peer.peer_as, fx.ia("d"));
        EXPECT_NE(peer.peer_if, kNoIface);
        EXPECT_EQ(peer.peer_link.latency.nanos(), milliseconds(5).nanos());
        found = true;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(PeeringTest, SignedSegmentsWithPeersVerify) {
  PeeringFixture fx(/*with_peering=*/true, /*sign=*/true);
  for (const PathSegment& seg : fx.topo->path_infra().down_segments(fx.ia("a"))) {
    EXPECT_TRUE(verify_segment(seg, fx.topo->trust_store()));
  }
  // Tampering with a peer entry breaks the chain.
  PathSegment seg = fx.topo->path_infra().down_segments(fx.ia("a")).front();
  for (AsEntry& entry : seg.entries) {
    if (!entry.peers.empty()) {
      entry.peers[0].peer_link.latency += milliseconds(1);
      EXPECT_FALSE(verify_segment(seg, fx.topo->trust_store()));
      return;
    }
  }
  FAIL() << "no peer entry found to tamper with";
}

TEST(PeeringTest, DaemonOffersPeeringShortcut) {
  PeeringFixture fx;
  const auto paths = fx.topo->daemon(fx.ia("a")).query_now(fx.ia("d"));
  ASSERT_FALSE(paths.empty());
  // The best path is the 5 ms direct peering (a > d, 1 link).
  const Path& best = paths.front();
  EXPECT_EQ(best.link_count(), 1u);
  EXPECT_EQ(best.meta().latency.nanos(), milliseconds(5).nanos());
  EXPECT_EQ(best.hops().front().isd_as, fx.ia("a"));
  EXPECT_EQ(best.hops().back().isd_as, fx.ia("d"));
  // The core route is still offered.
  bool has_core_route = false;
  for (const Path& p : paths) {
    if (p.contains_as(fx.ia("c1"))) has_core_route = true;
  }
  EXPECT_TRUE(has_core_route);
}

TEST(PeeringTest, WithoutPeeringLinkNoShortcut) {
  PeeringFixture fx(/*with_peering=*/false);
  const auto paths = fx.topo->daemon(fx.ia("a")).query_now(fx.ia("d"));
  ASSERT_FALSE(paths.empty());
  EXPECT_EQ(paths.front().meta().latency.nanos(), milliseconds(64).nanos());
}

TEST(PeeringTest, PeeringPathForwardsEndToEnd) {
  PeeringFixture fx;
  const auto paths = fx.topo->daemon(fx.ia("a")).query_now(fx.ia("d"));
  const Path& best = paths.front();
  ASSERT_EQ(best.link_count(), 1u);

  std::string got;
  WirePath reply;
  auto server = fx.topo->scion_stack(fx.host_d).bind(
      7000, [&](const ScionEndpoint&, const ScionHeaderView& header, net::PacketView payload) {
        got = to_string_view_copy(payload.span());
        reply = WirePath::reply_to(header);
      });
  auto client = fx.topo->scion_stack(fx.host_a).bind(
      0, [&](const ScionEndpoint&, const ScionHeaderView&, net::PacketView payload) {
        got += "|" + to_string_view_copy(payload.span());
      });
  client->send_to(ScionEndpoint{fx.topo->scion_addr(fx.host_d), 7000}, WirePath(best.dataplane()),
                  from_string("over-peering"));
  fx.sim.run();
  ASSERT_EQ(got, "over-peering");
  // Round trip over the reply path (reversed peering path) too.
  server->send_to(ScionEndpoint{fx.topo->scion_addr(fx.host_a),
                                client->local_port()},
                  reply, from_string("pong"));
  fx.sim.run();
  EXPECT_EQ(got, "over-peering|pong");
  // Latency check: one way is 5 ms + access links.
  EXPECT_LT(fx.sim.now().nanos(), milliseconds(13).nanos());
}

TEST(PeeringTest, EveryOfferedPathForwards) {
  PeeringFixture fx;
  const auto paths = fx.topo->daemon(fx.ia("a")).query_now(fx.ia("d"));
  int received = 0;
  auto server = fx.topo->scion_stack(fx.host_d).bind(
      7000, [&](const ScionEndpoint&, const ScionHeaderView&, net::PacketView) { ++received; });
  auto client = fx.topo->scion_stack(fx.host_a).bind(0, nullptr);
  for (const Path& path : paths) {
    client->send_to(ScionEndpoint{fx.topo->scion_addr(fx.host_d), 7000}, WirePath(path.dataplane()),
                    from_string("x"));
  }
  fx.sim.run();
  EXPECT_EQ(received, static_cast<int>(paths.size()));
  for (const IsdAsn ia : fx.topo->all_ases()) {
    EXPECT_EQ(fx.topo->border_router_stats(ia).drop_mac, 0u);
    EXPECT_EQ(fx.topo->border_router_stats(ia).drop_malformed_path, 0u);
  }
}

TEST(PeeringTest, ForgedPeerHopRejected) {
  PeeringFixture fx;
  const auto paths = fx.topo->daemon(fx.ia("a")).query_now(fx.ia("d"));
  DataplanePath forged = paths.front().dataplane();
  ASSERT_EQ(forged.segments.size(), 2u);
  // Rewrite the peering interface without the AS key.
  forged.segments[0].hops.back().in_if ^= 0x5;
  int received = 0;
  auto server = fx.topo->scion_stack(fx.host_d).bind(
      7000, [&](const ScionEndpoint&, const ScionHeaderView&, net::PacketView) { ++received; });
  auto client = fx.topo->scion_stack(fx.host_a).bind(0, nullptr);
  client->send_to(ScionEndpoint{fx.topo->scion_addr(fx.host_d), 7000}, WirePath(forged),
                  from_string("evil"));
  fx.sim.run();
  EXPECT_EQ(received, 0);
}

TEST(PeeringTest, PolicyCanExcludePeeringPath) {
  PeeringFixture fx;
  auto paths = fx.topo->daemon(fx.ia("a")).query_now(fx.ia("d"));
  // Require traversing the core c1 (ASN 0x110 renders as decimal 272).
  const auto policy = ppl::parse_policy(
      "policy { sequence \"1-* 1-272 * 2-*\"; order latency asc; }");
  ASSERT_TRUE(policy.ok()) << policy.error();
  const auto filtered = policy.value().apply(paths);
  ASSERT_FALSE(filtered.empty());
  for (const auto& p : filtered) {
    EXPECT_TRUE(p.contains_as(fx.ia("c1")));
    EXPECT_GT(p.link_count(), 1u);
  }
}

TEST(PeeringTest, TopologyRejectsCorePeering) {
  sim::Simulator sim;
  Topology topo(sim);
  AsSpec core;
  core.name = "core";
  core.ia = IsdAsn{1, 1};
  core.core = true;
  topo.add_as(core);
  AsSpec leaf;
  leaf.name = "leaf";
  leaf.ia = IsdAsn{1, 2};
  topo.add_as(leaf);
  AsLinkSpec peering;
  peering.a = "core";
  peering.b = "leaf";
  peering.type = LinkType::kPeering;
  EXPECT_THROW(topo.add_link(peering), std::invalid_argument);
}

}  // namespace
}  // namespace pan::scion
