// Golden forwarding equivalence: the zero-copy border-router pipeline
// (lazy ScionHeaderView + in-place cursor patch) must be byte-for-byte
// indistinguishable on the wire from the legacy eager-reparse pipeline, on
// random topologies, across multi-hop forwards, SCMP error origination, and
// both traversal directions. Plus the performance contracts of the data
// plane: zero heap allocations on the steady-state hop path and in a host's
// header parse, a per-router hop-MAC memo that never changes a verdict, and
// zero signature re-verifications when re-beaconing an unchanged topology.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/trace.hpp"
#include "scion/border_router.hpp"
#include "scion/header.hpp"
#include "scion/topo_gen.hpp"
#include "support/alloc_probe.hpp"

namespace pan::scion {
namespace {

// ------------------------------------------------- wire-level equivalence --

/// Snapshot of every SCION packet event the network tracer sees: event kind,
/// link endpoints, and the full wire bytes of the packet at that moment.
struct WireLog {
  struct Entry {
    net::TraceEvent::Kind kind;
    net::NodeId from = 0;
    net::NodeId to = 0;
    Bytes bytes;
  };
  std::vector<Entry> entries;

  [[nodiscard]] net::TraceFn tracer() {
    return [this](const net::TraceEvent& e) {
      if (e.packet == nullptr || e.proto != net::Protocol::kScion) return;
      entries.push_back(Entry{e.kind, e.from, e.to, e.packet->payload.to_bytes()});
    };
  }
};

struct DriveResult {
  WireLog log;
  int delivered = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t scmp_sent = 0;
};

/// Builds the seed's random world with the requested router pipeline and
/// drives identical traffic through it: every path between the first and
/// last leaf, both directions, then an expired-hop SCMP round. Returns the
/// complete wire log.
DriveResult drive(std::uint64_t seed, bool legacy_reparse) {
  sim::Simulator sim;
  TopoGenParams params;
  params.seed = seed;
  params.border_router.legacy_reparse = legacy_reparse;
  GeneratedTopology world = generate_topology(sim, params);
  Topology& topo = *world.topo;

  DriveResult result;
  topo.network().set_tracer(result.log.tracer());

  const HostId front = world.hosts.front();
  const HostId back = world.hosts.back();
  auto sink_back = topo.scion_stack(back).bind(
      7000, [&](const ScionEndpoint&, const ScionHeaderView&, net::PacketView) {
        ++result.delivered;
      });
  auto sink_front = topo.scion_stack(front).bind(
      7000, [&](const ScionEndpoint&, const ScionHeaderView&, net::PacketView) {
        ++result.delivered;
      });
  auto client_front = topo.scion_stack(front).bind(0, nullptr);
  auto client_back = topo.scion_stack(back).bind(0, nullptr);

  const auto forward_paths = topo.daemon_for(front).query_now(topo.as_of(back));
  const auto return_paths = topo.daemon_for(back).query_now(topo.as_of(front));
  EXPECT_FALSE(forward_paths.empty());
  EXPECT_FALSE(return_paths.empty());
  int n = 0;
  for (const Path& path : forward_paths) {
    client_front->send_to(ScionEndpoint{topo.scion_addr(back), 7000}, WirePath(path.dataplane()),
                          from_string("fwd-" + std::to_string(n++)));
  }
  for (const Path& path : return_paths) {
    client_back->send_to(ScionEndpoint{topo.scion_addr(front), 7000}, WirePath(path.dataplane()),
                         from_string("rev-" + std::to_string(n++)));
  }
  sim.run();

  // Expired hop fields: routers drop and originate SCMP back to the source —
  // the origination path (single-pass header+SCMP serialization vs the
  // legacy flow) must also be byte-identical.
  topo.set_data_plane_time(2'000'000 + 24 * 3600);
  client_front->send_to(ScionEndpoint{topo.scion_addr(back), 7000},
                        WirePath(forward_paths.front().dataplane()), from_string("expired"));
  sim.run();

  for (const IsdAsn ia : topo.all_ases()) {
    const BorderRouterStats& stats = topo.border_router_stats(ia);
    result.forwarded += stats.forwarded;
    result.scmp_sent += stats.scmp_sent;
  }
  topo.network().set_tracer(nullptr);
  return result;
}

class ForwardingEquivalence : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, ForwardingEquivalence, ::testing::Range<std::uint64_t>(1, 7));

TEST_P(ForwardingEquivalence, ZeroCopyMatchesLegacyByteForByte) {
  const DriveResult zero_copy = drive(GetParam(), /*legacy_reparse=*/false);
  const DriveResult legacy = drive(GetParam(), /*legacy_reparse=*/true);

  // Same deliveries, same hop-by-hop forwarding work, same SCMP reports.
  EXPECT_GT(zero_copy.delivered, 0);
  EXPECT_EQ(zero_copy.delivered, legacy.delivered);
  EXPECT_GT(zero_copy.forwarded, 0u);
  EXPECT_EQ(zero_copy.forwarded, legacy.forwarded);
  EXPECT_GT(zero_copy.scmp_sent, 0u);
  EXPECT_EQ(zero_copy.scmp_sent, legacy.scmp_sent);

  // Identical wire behaviour: every traced SCION packet event matches in
  // order, endpoints, and full packet bytes.
  ASSERT_EQ(zero_copy.log.entries.size(), legacy.log.entries.size());
  for (std::size_t i = 0; i < zero_copy.log.entries.size(); ++i) {
    const WireLog::Entry& a = zero_copy.log.entries[i];
    const WireLog::Entry& b = legacy.log.entries[i];
    EXPECT_EQ(a.kind, b.kind) << "event " << i;
    EXPECT_EQ(a.from, b.from) << "event " << i;
    EXPECT_EQ(a.to, b.to) << "event " << i;
    ASSERT_EQ(a.bytes, b.bytes) << "wire bytes diverge at event " << i;
  }
}

// --------------------------------------------------- zero-allocation path --

/// A MAC-sealed one-segment packet whose cursor sits on `transit`'s hop.
struct SealedHop {
  static constexpr std::uint32_t kTs = 1'000'000;
  ForwardingKey key = from_string("transit-forwarding-key");
  IsdAsn transit{1, 0x111};
  ScionHeader header;

  SealedHop() {
    header.src = ScionAddr{IsdAsn{1, 0x110}, net::IpAddr{7}};
    header.dst = ScionAddr{IsdAsn{1, 0x112}, net::IpAddr{9}};
    DataplaneSegment seg;
    seg.origin_ts = kTs;
    const std::array<IsdAsn, 3> ases = {header.src.ia, transit, header.dst.ia};
    const std::array<std::array<IfaceId, 2>, 3> ifaces = {
        {{kNoIface, 1}, {1, 2}, {2, kNoIface}}};
    for (std::size_t h = 0; h < 3; ++h) {
      HopField hf;
      hf.isd_as = ases[h];
      hf.in_if = ifaces[h][0];
      hf.out_if = ifaces[h][1];
      hf.expiry_s = 24 * 3600;
      seal_hop_field(hf, kTs, key);
      seg.hops.push_back(hf);
    }
    header.path.segments.push_back(seg);
    header.cur_hop = 1;
  }

  [[nodiscard]] HopField& transit_hop() { return header.path.segments[0].hops[1]; }
  [[nodiscard]] Bytes wire() const { return serialize_scion_packet(header, from_string("x")); }
};

TEST(ZeroCopyDataPlane, SteadyStateHopPathDoesNotAllocate) {
  SealedHop fx;
  const Bytes wire = fx.wire();

  // The decision the transit router makes for this packet, forever. Routers
  // hold one HopMacVerifier for their forwarding key; model that here.
  BorderRouterConfig config;
  HopMacVerifier macs(fx.key);
  const HopDecision warm = decide_hop(wire, fx.transit, macs, config);
  ASSERT_EQ(warm.action, HopDecision::Action::kForward);
  EXPECT_EQ(warm.egress, 2);
  EXPECT_EQ(warm.next_hop, 2);

  if (!testsupport::alloc_probe_active()) {
    GTEST_SKIP() << "counting allocator disabled under sanitizers";
  }

  // Parse + hop decode + MAC verify + cursor advance, 10k times: zero heap
  // allocations. Storage is uniquely owned, so patch_cursor patches in place.
  net::PacketView packet{Bytes(wire)};
  (void)packet.mutable_span();  // ensure unique storage before measuring
  std::uint64_t forwards = 0;
  const std::uint64_t before = testsupport::allocation_count();
  for (int i = 0; i < 10'000; ++i) {
    const HopDecision d = decide_hop(packet.span(), fx.transit, macs, config);
    if (d.action == HopDecision::Action::kForward) ++forwards;
    patch_cursor(packet, d.next_seg, fx.header.cur_hop);  // keep cursor on our hop
  }
  const std::uint64_t after = testsupport::allocation_count();
  EXPECT_EQ(after, before) << "hop path allocated " << (after - before) << " times";
  EXPECT_EQ(forwards, 10'000u);
  EXPECT_EQ(macs.macs_computed(), 1u) << "every packet after the first is a memo hit";
}

TEST(ZeroCopyDataPlane, HostHeaderParseAllocationsDoNotGrowWithHopCount) {
  if (!testsupport::alloc_probe_active()) {
    GTEST_SKIP() << "counting allocator disabled under sanitizers";
  }
  // parse_scion_packet materializes a header for SCMP origination and the
  // legacy reparse (hosts receive through ScionHeaderView). Its allocations
  // are the segment and hop-field vectors, never one per hop field.
  const auto allocations_to_parse = [](std::size_t hops) {
    ScionHeader header;
    DataplaneSegment seg;
    seg.origin_ts = 1'000'000;
    for (std::size_t h = 0; h < hops; ++h) {
      HopField hf;
      hf.isd_as = IsdAsn{1, static_cast<Asn>(0x100 + h)};
      hf.in_if = static_cast<IfaceId>(h);
      hf.out_if = static_cast<IfaceId>(h + 1);
      hf.mac = {1, 2, 3, 4, 5, static_cast<std::uint8_t>(h)};
      seg.hops.push_back(hf);
    }
    header.path.segments.push_back(seg);
    const Bytes wire = serialize_scion_packet(header, from_string("payload"));
    const std::uint64_t before = testsupport::allocation_count();
    const Result<ParsedScionPacket> parsed = parse_scion_packet(wire);
    const std::uint64_t allocations = testsupport::allocation_count() - before;
    EXPECT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().header.path, header.path);
    return allocations;
  };
  EXPECT_EQ(allocations_to_parse(2), allocations_to_parse(8));
  EXPECT_EQ(allocations_to_parse(2), allocations_to_parse(32));
}

// ------------------------------------------------------- hop-MAC memo --

TEST(HopMacMemo, TamperedMacOfWarmFieldDropsWithoutRecomputing) {
  SealedHop fx;
  HopMacVerifier macs(fx.key);
  const BorderRouterConfig config;
  ASSERT_EQ(decide_hop(fx.wire(), fx.transit, macs, config).action,
            HopDecision::Action::kForward);
  ASSERT_EQ(macs.macs_computed(), 1u);

  // Same MAC input, one MAC byte flipped: the warm slot supplies the expected
  // MAC and the packet's MAC is still compared against it.
  fx.transit_hop().mac[3] ^= 0x01;
  const Bytes tampered = fx.wire();
  EXPECT_EQ(decide_hop(tampered, fx.transit, macs, config).action,
            HopDecision::Action::kDropMac);
  EXPECT_EQ(macs.macs_computed(), 1u) << "the tampered field must hit the warm slot";
  // The same verdict a cold verifier reaches.
  EXPECT_EQ(decide_hop(tampered, fx.transit, fx.key, config).action,
            HopDecision::Action::kDropMac);
  // The warm slot still holds the genuine MAC.
  fx.transit_hop().mac[3] ^= 0x01;
  EXPECT_EQ(decide_hop(fx.wire(), fx.transit, macs, config).action,
            HopDecision::Action::kForward);
}

TEST(HopMacMemo, CollidingInputsEachVerifyAndReverifyAfterEviction) {
  const ForwardingKey key = from_string("memo-forwarding-key");
  const auto sealed = [&](std::uint32_t ts) {
    HopField hf;
    hf.isd_as = IsdAsn{1, 0x111};
    hf.in_if = 1;
    hf.out_if = 2;
    hf.expiry_s = 24 * 3600;
    seal_hop_field(hf, ts, key);
    return hf;
  };
  // Two origin timestamps whose MAC inputs share a memo slot.
  const std::uint32_t ts_a = 1'000'000;
  const HopField a = sealed(ts_a);
  std::uint32_t ts_b = ts_a + 1;
  while (HopMacVerifier::slot_of(a, ts_a) != HopMacVerifier::slot_of(a, ts_b)) ++ts_b;
  const HopField b = sealed(ts_b);
  ASSERT_NE(a.mac, b.mac);

  HopMacVerifier macs(key);
  EXPECT_TRUE(macs.verify(a, ts_a));
  EXPECT_TRUE(macs.verify(b, ts_b));  // evicts a
  EXPECT_TRUE(macs.verify(a, ts_a));  // recomputed, evicts b
  EXPECT_EQ(macs.macs_computed(), 3u);

  // A MAC passes only with its own input. The slot holds a: b's input must
  // not be served a's MAC, and a's input must not accept b's.
  HopField b_with_a_mac = b;
  b_with_a_mac.mac = a.mac;
  EXPECT_FALSE(macs.verify(b_with_a_mac, ts_b));
  EXPECT_EQ(macs.macs_computed(), 4u);
  HopField a_with_b_mac = a;
  a_with_b_mac.mac = b.mac;
  EXPECT_FALSE(macs.verify(a_with_b_mac, ts_a));
  EXPECT_TRUE(macs.verify(a, ts_a));
  EXPECT_EQ(macs.macs_computed(), 5u);
  EXPECT_FALSE(macs.verify(a_with_b_mac, ts_a));
  EXPECT_EQ(macs.macs_computed(), 5u);
}

/// Counters summed over every border router of a world.
struct RouterTotals {
  std::uint64_t forwarded = 0;
  std::uint64_t delivered = 0;
  std::uint64_t drop_mac = 0;
  std::uint64_t drop_expired = 0;
  std::uint64_t scmp_sent = 0;
  std::uint64_t drops = 0;

  bool operator==(const RouterTotals&) const = default;
  RouterTotals operator-(const RouterTotals& o) const {
    return {forwarded - o.forwarded, delivered - o.delivered, drop_mac - o.drop_mac,
            drop_expired - o.drop_expired, scmp_sent - o.scmp_sent, drops - o.drops};
  }
};

/// A generated world and one path from the first leaf host to the last.
struct MemoWorld {
  sim::Simulator sim;
  GeneratedTopology world;
  HostId front;
  HostId back;
  DataplanePath path;
  int delivered = 0;
  std::vector<ScmpMessage> reports;
  std::unique_ptr<ScionSocket> sink;
  std::unique_ptr<ScionSocket> client;

  MemoWorld() {
    TopoGenParams params;
    params.seed = 3;
    world = generate_topology(sim, params);
    Topology& topo = *world.topo;
    front = world.hosts.front();
    back = world.hosts.back();
    path = topo.daemon_for(front).query_now(topo.as_of(back)).front().dataplane();
    sink = topo.scion_stack(back).bind(
        7000, [this](const ScionEndpoint&, const ScionHeaderView&, net::PacketView) {
          ++delivered;
        });
    client = topo.scion_stack(front).bind(0, nullptr);
    topo.scion_stack(front).subscribe_scmp(
        [this](const ScmpMessage& m) { reports.push_back(m); });
  }

  void send(const DataplanePath& p) {
    client->send_to(ScionEndpoint{world.topo->scion_addr(back), 7000}, WirePath(p),
                    from_string("m"));
    sim.run();
  }

  [[nodiscard]] RouterTotals totals() const {
    RouterTotals t;
    for (const IsdAsn ia : world.topo->all_ases()) {
      const BorderRouterStats& s = world.topo->border_router_stats(ia);
      t.forwarded += s.forwarded;
      t.delivered += s.delivered;
      t.drop_mac += s.drop_mac;
      t.drop_expired += s.drop_expired;
      t.scmp_sent += s.scmp_sent;
      t.drops += s.total_drops();
    }
    return t;
  }
};

/// What one send did: router counter deltas, deliveries and SCMP reports.
struct ProbeOutcome {
  RouterTotals delta;
  int delivered = 0;
  std::vector<ScmpType> reports;
};

/// Builds a fresh world and, when `warm`, first sends the genuine path
/// through it so every router on the path has its hop field memoized. Then
/// `prepare` alters the world or a copy of the path, which is sent once.
ProbeOutcome probe(bool warm, const std::function<void(MemoWorld&, DataplanePath&)>& prepare) {
  MemoWorld w;
  if (warm) {
    w.send(w.path);
    EXPECT_EQ(w.delivered, 1);
  }
  DataplanePath p = w.path;
  prepare(w, p);
  const RouterTotals before = w.totals();
  const int delivered_before = w.delivered;
  w.reports.clear();
  w.send(p);
  ProbeOutcome out{w.totals() - before, w.delivered - delivered_before, {}};
  for (const ScmpMessage& m : w.reports) out.reports.push_back(m.type);
  return out;
}

TEST(HopMacMemo, TamperedWarmHopDropsExactlyLikeColdRouter) {
  const auto tamper = [](MemoWorld&, DataplanePath& p) {
    p.segments.back().hops.back().mac[0] ^= 0x01;
  };
  const ProbeOutcome warm = probe(true, tamper);
  const ProbeOutcome cold = probe(false, tamper);
  EXPECT_EQ(warm.delta.drop_mac, 1u);
  EXPECT_EQ(warm.delta.drops, 1u);
  EXPECT_EQ(warm.delta.scmp_sent, 0u);
  EXPECT_EQ(warm.delivered, 0);
  EXPECT_TRUE(warm.reports.empty());
  EXPECT_EQ(warm.delta, cold.delta);
  EXPECT_EQ(warm.reports, cold.reports);
}

TEST(HopMacMemo, WarmHopPastExpiryDropsWithScmpLikeColdRouter) {
  const auto expire = [](MemoWorld& w, DataplanePath&) {
    w.world.topo->set_data_plane_time(1'000'000 + 24 * 3600 + 1);
  };
  const ProbeOutcome warm = probe(true, expire);
  const ProbeOutcome cold = probe(false, expire);
  EXPECT_EQ(warm.delta.drop_expired, 1u);
  EXPECT_EQ(warm.delta.drop_mac, 0u);
  EXPECT_EQ(warm.delta.scmp_sent, 1u);
  EXPECT_EQ(warm.delivered, 0);
  EXPECT_EQ(warm.reports, std::vector<ScmpType>{ScmpType::kExpiredHop});
  EXPECT_EQ(warm.delta, cold.delta);
  EXPECT_EQ(warm.reports, cold.reports);
}

// ----------------------------------------------- beacon verification memo --

struct SignedWorld {
  sim::Simulator sim;
  std::unique_ptr<Topology> topo;

  SignedWorld() {
    TopologyConfig config;
    config.seed = 7;
    topo = std::make_unique<Topology>(sim, config);  // sign + verify default on
    AsSpec core1{"core1", IsdAsn{1, 0x110}, true, {}};
    AsSpec core2{"core2", IsdAsn{1, 0x120}, true, {}};
    AsSpec leaf1{"leaf1", IsdAsn{1, 0x111}, false, {}};
    AsSpec leaf2{"leaf2", IsdAsn{1, 0x121}, false, {}};
    for (const auto& spec : {core1, core2, leaf1, leaf2}) topo->add_as(spec);
    AsLinkSpec core_link{"core1", "core2", LinkType::kCore, {}, 20.0, 10.0};
    AsLinkSpec down1{"core1", "leaf1", LinkType::kParentChild, {}, 20.0, 10.0};
    AsLinkSpec down2{"core2", "leaf2", LinkType::kParentChild, {}, 20.0, 10.0};
    for (const auto& spec : {core_link, down1, down2}) topo->add_link(spec);
    topo->finalize();
  }
};

TEST(BeaconVerificationMemo, RebeaconOverUnchangedTopologyNeverReverifies) {
  SignedWorld world;
  Topology& topo = *world.topo;

  const std::uint64_t initial_verifications = topo.beacon_verifications();
  const std::uint64_t initial_hits = topo.beacon_memo_hits();
  EXPECT_GT(initial_verifications, 0u);
  const std::size_t segments = topo.path_infra().segment_count();
  EXPECT_GT(segments, 0u);

  // Unchanged topology, unchanged timestamp: every rebuilt segment is
  // byte-identical to an already-verified one — zero re-verifications, one
  // memo hit per registered segment.
  topo.rebeacon(1'000'000);
  EXPECT_EQ(topo.beacon_verifications(), initial_verifications);
  EXPECT_EQ(topo.beacon_memo_hits(), initial_hits + segments);
  EXPECT_EQ(topo.path_infra().segment_count(), segments);

  // A new timestamp re-seals and re-signs every hop: the content digests
  // change, so every segment must be verified afresh. Memoization must never
  // skip verification of genuinely new bytes.
  topo.rebeacon(1'000'600);
  EXPECT_EQ(topo.beacon_verifications(), 2 * initial_verifications);
  EXPECT_EQ(topo.beacon_memo_hits(), initial_hits + segments);

  // Certificate chains were validated once per AS ever — verified_key() is
  // memoized across all of the above.
  EXPECT_EQ(topo.trust_store().chain_validations(), topo.as_count());
}

}  // namespace
}  // namespace pan::scion
