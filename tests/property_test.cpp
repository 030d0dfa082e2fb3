// Property tests over randomly generated topologies: control-plane and
// data-plane invariants that must hold for every seed.
#include <gtest/gtest.h>

#include <unordered_set>

#include "ppl/geofence.hpp"
#include "ppl/parser.hpp"
#include "proxy/overload.hpp"
#include "scion/header.hpp"
#include "scion/topo_gen.hpp"
#include "util/rng.hpp"

namespace pan::scion {
namespace {

class RandomTopology : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void build(TopoGenParams params = {}) {
    params.seed = GetParam();
    world_ = generate_topology(sim_, params);
  }

  sim::Simulator sim_;
  GeneratedTopology world_;
};

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTopology, ::testing::Range<std::uint64_t>(1, 13));

TEST_P(RandomTopology, AllPairsHavePaths) {
  build();
  Topology& topo = *world_.topo;
  for (const IsdAsn src : world_.leaf_ases) {
    for (const IsdAsn dst : world_.leaf_ases) {
      const auto paths = topo.daemon(src).query_now(dst);
      EXPECT_FALSE(paths.empty()) << src.to_string() << " -> " << dst.to_string();
    }
  }
}

TEST_P(RandomTopology, PathInvariants) {
  build();
  Topology& topo = *world_.topo;
  for (const IsdAsn src : world_.leaf_ases) {
    for (const IsdAsn dst : world_.leaf_ases) {
      if (src == dst) continue;
      std::unordered_set<std::string> fingerprints;
      for (const Path& path : topo.daemon(src).query_now(dst)) {
        // Endpoints.
        EXPECT_EQ(path.src(), src);
        EXPECT_EQ(path.dst(), dst);
        EXPECT_EQ(path.hops().front().isd_as, src);
        EXPECT_EQ(path.hops().back().isd_as, dst);
        // Loop-free.
        std::unordered_set<std::uint64_t> seen;
        for (const PathHop& hop : path.hops()) {
          EXPECT_TRUE(seen.insert(hop.isd_as.packed()).second) << path.to_string();
        }
        // Fingerprints unique.
        EXPECT_TRUE(fingerprints.insert(path.fingerprint()).second);
        // Metadata sanity.
        EXPECT_GT(path.meta().latency.nanos(), 0);
        EXPECT_GT(path.meta().bandwidth_bps, 0);
        EXPECT_GE(path.meta().mtu, 1400u);
        EXPECT_GE(path.meta().loss_rate, 0.0);
        EXPECT_LT(path.meta().loss_rate, 0.1);
        EXPECT_GT(path.meta().co2_g_per_gb, 0);
        // Dataplane structure matches hop count: the flattened AS-level hop
        // list merges junction ASes, so total dataplane hops >= AS hops.
        EXPECT_GE(path.dataplane().total_hops(), path.hops().size());
      }
    }
  }
}

TEST_P(RandomTopology, BestPathForwardsEndToEnd) {
  build();
  Topology& topo = *world_.topo;
  // Ping between the first and last leaf over the best path.
  const HostId src_host = world_.hosts.front();
  const HostId dst_host = world_.hosts.back();
  const auto paths = topo.daemon_for(src_host).query_now(topo.as_of(dst_host));
  ASSERT_FALSE(paths.empty());

  std::string got;
  auto server = topo.scion_stack(dst_host).bind(
      7777, [&](const ScionEndpoint&, const ScionHeaderView&, net::PacketView payload) {
        got = to_string_view_copy(payload.span());
      });
  auto client = topo.scion_stack(src_host).bind(0, nullptr);
  client->send_to(ScionEndpoint{topo.scion_addr(dst_host), 7777},
                  WirePath(paths.front().dataplane()), from_string("prop"));
  sim_.run();
  if (paths.front().meta().loss_rate == 0.0) {
    EXPECT_EQ(got, "prop") << paths.front().to_string();
  }
  // No MAC or malformed-path drops anywhere — the control plane only hands
  // out forwardable paths.
  for (const IsdAsn ia : topo.all_ases()) {
    const BorderRouterStats& stats = topo.border_router_stats(ia);
    EXPECT_EQ(stats.drop_mac, 0u) << ia.to_string();
    EXPECT_EQ(stats.drop_malformed_path, 0u) << ia.to_string();
    EXPECT_EQ(stats.drop_wrong_as, 0u) << ia.to_string();
  }
}

TEST_P(RandomTopology, EveryPathOfOnePairForwards) {
  TopoGenParams params;
  params.leaves_per_core = 1;  // keep the pair set small
  build(params);
  Topology& topo = *world_.topo;
  const HostId src_host = world_.hosts.front();
  const HostId dst_host = world_.hosts.back();
  const auto paths = topo.daemon_for(src_host).query_now(topo.as_of(dst_host));
  ASSERT_FALSE(paths.empty());

  int received = 0;
  auto server = topo.scion_stack(dst_host).bind(
      7777,
      [&](const ScionEndpoint&, const ScionHeaderView&, net::PacketView) { ++received; });
  auto client = topo.scion_stack(src_host).bind(0, nullptr);
  int sent_lossless = 0;
  bool any_lossy = false;
  for (const Path& path : paths) {
    if (path.meta().loss_rate == 0.0) {
      ++sent_lossless;
      client->send_to(ScionEndpoint{topo.scion_addr(dst_host), 7777}, WirePath(path.dataplane()),
                      from_string("x"));
    } else {
      any_lossy = true;
    }
  }
  sim_.run();
  EXPECT_EQ(received, sent_lossless);
  (void)any_lossy;
}

/// A SCION packet from `src` to `dst` over `path`, as an end host sends it.
Bytes wire_packet(const ScionAddr& src, const ScionAddr& dst, const WirePath& path) {
  ScionHeader header;
  header.src = src;
  header.dst = dst;
  header.src_port = 4000;
  header.dst_port = 7777;
  ByteWriter w;
  write_scion_header(w, header, path);
  w.raw(from_string("payload"));
  return std::move(w).take();
}

TEST_P(RandomTopology, WirePathMatchesMaterializedPath) {
  TopoGenParams params;
  params.leaves_per_core = 1;  // keep the pair set small
  build(params);
  Topology& topo = *world_.topo;
  const HostId src_host = world_.hosts.front();
  const HostId dst_host = world_.hosts.back();
  const ScionAddr src = topo.scion_addr(src_host);
  const ScionAddr dst = topo.scion_addr(dst_host);
  const auto paths = topo.daemon_for(src_host).query_now(topo.as_of(dst_host));
  ASSERT_FALSE(paths.empty());

  for (const Path& p : paths) {
    const DataplanePath& forward = p.dataplane();
    const Bytes wire = wire_packet(src, dst, WirePath(forward));
    // Encoding then parsing gives the path back.
    const auto parsed = parse_scion_packet(wire);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().header.path, forward) << p.to_string();
    EXPECT_EQ(to_string_view_copy(parsed.value().payload), "payload");
    const auto view = ScionHeaderView::parse(wire);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(view.value().header_size(), WirePath(forward).header_size());

    // Byte-level reversal equals encoding the materialized reversal.
    const WirePath reply = WirePath::reply_to(view.value());
    EXPECT_EQ(reply, WirePath(forward.reversed())) << p.to_string();
    EXPECT_FALSE(reply.empty());

    // The kept reply path recognises its own path and no other of the pair.
    for (const Path& q : paths) {
      EXPECT_EQ(WirePath(q.dataplane().reversed()).is_reply_to(view.value()),
                q.fingerprint() == p.fingerprint())
          << p.to_string() << " vs " << q.to_string();
    }

    // Junk in a flag byte's high bits: the reversed bit alone decides, so the
    // reply is the clean one (no spurious migration) and still equals the
    // materialized reversal.
    Bytes junk = wire;
    junk[kScionFixedHeaderSize] |= 0xF6;
    const auto junk_view = ScionHeaderView::parse(junk);
    ASSERT_TRUE(junk_view.ok());
    EXPECT_EQ(WirePath::reply_to(junk_view.value()), reply);
    EXPECT_TRUE(reply.is_reply_to(junk_view.value()));
    EXPECT_EQ(WirePath::reply_to(junk_view.value()),
              WirePath(junk_view.value().materialize().path.reversed()));
  }

  // The intra-AS path: one zero count byte, no storage, its own reply.
  const WirePath local;
  EXPECT_TRUE(local.empty());
  EXPECT_EQ(local, WirePath(DataplanePath{}));
  EXPECT_EQ(local.header_size(), kScionFixedHeaderSize);
  const Bytes local_wire = wire_packet(src, src, local);
  const auto local_view = ScionHeaderView::parse(local_wire);
  ASSERT_TRUE(local_view.ok());
  EXPECT_TRUE(WirePath::reply_to(local_view.value()).empty());
  EXPECT_TRUE(local.is_reply_to(local_view.value()));
  EXPECT_FALSE(WirePath(paths.front().dataplane().reversed()).is_reply_to(local_view.value()));
}

TEST_P(RandomTopology, GeofenceConsistentWithPathContents) {
  build();
  Topology& topo = *world_.topo;
  ppl::Geofence fence;
  fence.mode = ppl::GeofenceMode::kBlocklist;
  fence.isds = {2};
  const ppl::Policy compiled = fence.compile("no-isd2");
  for (const IsdAsn src : world_.leaf_ases) {
    for (const Path& path : topo.daemon(src).query_now(world_.leaf_ases.back())) {
      EXPECT_EQ(fence.permits(path), !path.contains_isd(2));
      EXPECT_EQ(compiled.permits(path), fence.permits(path));
    }
  }
}

TEST_P(RandomTopology, OrderingsAreTotalAndStable) {
  build();
  Topology& topo = *world_.topo;
  auto paths = topo.daemon(world_.leaf_ases.front()).query_now(world_.leaf_ases.back());
  if (paths.size() < 2) return;
  for (const char* text :
       {"policy { order latency asc; }", "policy { order co2 asc, latency desc; }",
        "policy { order hops asc, cost asc; }"}) {
    const auto policy = ppl::parse_policy(text);
    ASSERT_TRUE(policy.ok());
    auto sorted = policy.value().apply(paths);
    // Applying twice yields the same order (determinism).
    auto sorted_again = policy.value().apply(sorted);
    ASSERT_EQ(sorted.size(), sorted_again.size());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      EXPECT_EQ(sorted[i].fingerprint(), sorted_again[i].fingerprint());
    }
    // The primary key is actually non-decreasing / non-increasing.
    const ppl::OrderKey primary = policy.value().ordering.front();
    for (std::size_t i = 1; i < sorted.size(); ++i) {
      const double prev = ppl::metric_value(sorted[i - 1], primary.metric);
      const double cur = ppl::metric_value(sorted[i], primary.metric);
      if (primary.ascending) {
        EXPECT_LE(prev, cur);
      } else {
        EXPECT_GE(prev, cur);
      }
    }
  }
}

TEST_P(RandomTopology, SignedTopologyVerifiesEverySegment) {
  TopoGenParams params;
  params.cores_per_isd = 2;
  params.leaves_per_core = 1;
  params.sign_beacons = true;
  params.beacons_per_origin = 3;
  build(params);
  Topology& topo = *world_.topo;
  std::size_t checked = 0;
  for (const IsdAsn leaf : world_.leaf_ases) {
    for (const PathSegment& seg : topo.path_infra().down_segments(leaf)) {
      EXPECT_TRUE(verify_segment(seg, topo.trust_store())) << seg.id();
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST_P(RandomTopology, ReservationsAdmitAndPoliceOnRandomPaths) {
  build();
  Topology& topo = *world_.topo;
  ReservationManager& manager = topo.reservations();
  const IsdAsn src = world_.leaf_ases.front();
  const IsdAsn dst = world_.leaf_ases.back();
  const auto paths = topo.daemon(src).query_now(dst);
  ASSERT_FALSE(paths.empty());
  const Path& path = paths.front();

  // A tiny reservation always fits (links are >= 1 Gbps).
  const auto id = manager.reserve(path, 1e6, sim_.now(), seconds(60));
  ASSERT_TRUE(id.ok()) << id.error();
  // Every on-path AS accepts conforming traffic.
  for (const PathHop& hop : path.hops()) {
    EXPECT_EQ(manager.police(id.value(), hop.isd_as, sim_.now(), 100),
              PoliceResult::kAllow)
        << hop.isd_as.to_string();
  }
  // Off-path ASes reject it.
  for (const IsdAsn ia : topo.all_ases()) {
    if (path.contains_as(ia)) continue;
    EXPECT_EQ(manager.police(id.value(), ia, sim_.now(), 100), PoliceResult::kWrongAs);
    break;
  }
  // A reservation beyond any link's budget is refused with an explanation.
  const auto huge = manager.reserve(path, 1e18, sim_.now());
  ASSERT_FALSE(huge.ok());
  EXPECT_NE(huge.error().find("admission denied"), std::string::npos);
}

TEST_P(RandomTopology, ReservedProbeTraversesRandomWorld) {
  build();
  Topology& topo = *world_.topo;
  const HostId src_host = world_.hosts.front();
  const HostId dst_host = world_.hosts.back();
  const auto paths = topo.daemon_for(src_host).query_now(topo.as_of(dst_host));
  ASSERT_FALSE(paths.empty());
  const Path* lossless = nullptr;
  for (const Path& p : paths) {
    if (p.meta().loss_rate == 0.0) {
      lossless = &p;
      break;
    }
  }
  if (lossless == nullptr) return;  // all candidate paths lossy in this world

  const auto id = topo.reservations().reserve(*lossless, 1e6, sim_.now(), seconds(60));
  ASSERT_TRUE(id.ok()) << id.error();
  std::string got;
  auto server = topo.scion_stack(dst_host).bind(
      8800, [&](const ScionEndpoint&, const ScionHeaderView&, net::PacketView payload) {
        got = to_string_view_copy(payload.span());
      });
  auto client = topo.scion_stack(src_host).bind(0, nullptr);
  client->send_to(ScionEndpoint{topo.scion_addr(dst_host), 8800}, WirePath(lossless->dataplane()),
                  from_string("reserved"), id.value());
  sim_.run();
  EXPECT_EQ(got, "reserved");
}

TEST_P(RandomTopology, LegacyAndScionBothReachable) {
  build();
  Topology& topo = *world_.topo;
  const HostId a = world_.hosts.front();
  const HostId b = world_.hosts.back();
  // Legacy UDP ping.
  bool legacy_ok = false;
  auto server = topo.host(b).udp_bind(5000, [&](const net::Endpoint&, net::PacketView) {
    legacy_ok = true;
  });
  auto client = topo.host(a).udp_bind(0, nullptr);
  client->send_to(net::Endpoint{topo.ip(b), 5000}, from_string("x"));
  // Allow a long window: random topologies may have lossy links; retry a few
  // times for robustness.
  for (int attempt = 0; attempt < 5 && !legacy_ok; ++attempt) {
    sim_.run();
    if (!legacy_ok) {
      client->send_to(net::Endpoint{topo.ip(b), 5000}, from_string("x"));
    }
  }
  sim_.run();
  EXPECT_TRUE(legacy_ok);
}

// --- AIMD concurrency-controller invariants under randomized latency ------

class AimdRandomTrace : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, AimdRandomTrace, ::testing::Range<std::uint64_t>(1, 13));

TEST_P(AimdRandomTrace, LimitStaysWithinBoundsAndRecoversAfterPressure) {
  obs::MetricsRegistry metrics;
  proxy::AimdConfig config;
  config.min_limit = 2;
  config.max_limit = 24;
  config.latency_target = milliseconds(500);
  proxy::AimdController controller("p", config, metrics);
  Rng rng(GetParam());

  // Phase 1: a randomized mix of fast/slow/failed completions across two
  // origins. Whatever the trace, the limit must stay inside [min, max].
  for (int i = 0; i < 500; ++i) {
    const std::string key = rng.next_double() < 0.5 ? "a" : "b";
    const double roll = rng.next_double();
    const bool ok = roll > 0.1;
    const Duration latency =
        roll < 0.45
            ? milliseconds(600 + static_cast<std::int64_t>(rng.next_double() * 4400.0))
            : milliseconds(1 + static_cast<std::int64_t>(rng.next_double() * 449.0));
    controller.record(key, latency, ok);
    for (const char* origin : {"a", "b"}) {
      const std::size_t limit = controller.limit(origin);
      ASSERT_GE(limit, config.min_limit) << "seed " << GetParam() << " step " << i;
      ASSERT_LE(limit, config.max_limit) << "seed " << GetParam() << " step " << i;
    }
  }

  // Phase 2: latency normalizes. Additive increase at 0.1/completion must
  // reopen the window all the way to max within (24-2)/0.1 = 220 samples.
  for (int i = 0; i < 300; ++i) {
    controller.record("a", milliseconds(20), /*ok=*/true);
  }
  EXPECT_EQ(controller.limit("a"), config.max_limit);
  // Origin b saw no recovery traffic: its window is untouched by a's.
  EXPECT_GE(controller.limit("b"), config.min_limit);
  EXPECT_GT(metrics.counter("overload.p.widened").value(), 0u);
}

}  // namespace
}  // namespace pan::scion
