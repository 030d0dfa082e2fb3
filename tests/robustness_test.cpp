// Robustness / deterministic-fuzz tests: every parser and the data plane
// must survive arbitrary and mutated inputs without crashing, and integrity
// checks must reject corrupted-but-plausible inputs.
#include <gtest/gtest.h>

#include "core/scenarios.hpp"
#include "fault/fault.hpp"
#include "proxy/overload.hpp"
#include "proxy/skip_proxy.hpp"
#include "http/parser.hpp"
#include "ppl/parser.hpp"
#include "scion/border_router.hpp"
#include "scion/header.hpp"
#include "scion/scmp.hpp"
#include "scion/topology.hpp"
#include "transport/frames.hpp"

namespace pan {
namespace {

Bytes random_bytes(Rng& rng, std::size_t max_len) {
  Bytes out(rng.next_below(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_below(256));
  return out;
}

/// Flip a few random bits/bytes of a valid buffer.
Bytes mutate(Rng& rng, Bytes input) {
  if (input.empty()) return input;
  const std::size_t flips = 1 + rng.next_below(4);
  for (std::size_t i = 0; i < flips; ++i) {
    const std::size_t pos = rng.next_below(input.size());
    input[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
  }
  // Occasionally truncate or extend.
  if (rng.chance(0.3)) input.resize(rng.next_below(input.size() + 1));
  if (rng.chance(0.2)) {
    const Bytes extra = random_bytes(rng, 16);
    input.insert(input.end(), extra.begin(), extra.end());
  }
  return input;
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Range<std::uint64_t>(1, 9));

TEST_P(FuzzSeeds, ScionHeaderParserNeverCrashes) {
  Rng rng(GetParam());
  // Pure garbage.
  for (int i = 0; i < 500; ++i) {
    (void)scion::parse_scion_packet(random_bytes(rng, 300));
  }
  // Mutated valid packets.
  scion::ScionHeader header;
  header.src = scion::ScionAddr{scion::IsdAsn{1, 2}, net::IpAddr{3}};
  header.dst = scion::ScionAddr{scion::IsdAsn{4, 5}, net::IpAddr{6}};
  scion::DataplaneSegment seg;
  seg.origin_ts = 99;
  for (int h = 0; h < 4; ++h) {
    scion::HopField hf;
    hf.isd_as = scion::IsdAsn{1, static_cast<scion::Asn>(h)};
    seg.hops.push_back(hf);
  }
  header.path.segments.push_back(seg);
  const Bytes valid = scion::serialize_scion_packet(header, from_string("payload"));
  for (int i = 0; i < 500; ++i) {
    (void)scion::parse_scion_packet(mutate(rng, valid));
  }
  SUCCEED();
}

/// Runs the lazy view over arbitrary bytes: parse must never read out of
/// bounds (ASan-checked), and when it accepts, every accessor must stay in
/// bounds and agree with the eager parser.
void exercise_header_view(std::span<const std::uint8_t> data) {
  const auto view = scion::ScionHeaderView::parse(data);
  const auto eager = scion::parse_scion_packet(data);
  // The two parsers validate the same structure: lazy-ok iff eager-ok.
  ASSERT_EQ(view.ok(), eager.ok());
  if (!view.ok()) return;
  const scion::ScionHeaderView& v = view.value();
  EXPECT_EQ(v.src().ia, eager.value().header.src.ia);
  EXPECT_EQ(v.dst().host, eager.value().header.dst.host);
  EXPECT_EQ(v.cur_seg(), eager.value().header.cur_seg);
  EXPECT_EQ(v.cur_hop(), eager.value().header.cur_hop);
  EXPECT_EQ(v.reservation_id(), eager.value().header.reservation_id);
  EXPECT_EQ(v.payload_offset(), eager.value().payload_offset);
  EXPECT_EQ(v.segment_count(), eager.value().header.path.segments.size());
  // Decode every hop lazily and compare with the eager decode.
  for (std::uint8_t s = 0; s < v.segment_count(); ++s) {
    const auto seg = v.segment(s);
    const scion::DataplaneSegment& eager_seg = eager.value().header.path.segments[s];
    ASSERT_EQ(seg.hop_count, eager_seg.hops.size());
    EXPECT_EQ(seg.origin_ts, eager_seg.origin_ts);
    for (std::uint8_t h = 0; h < seg.hop_count; ++h) {
      const scion::HopField hf = v.hop(seg, h);
      const scion::HopField& expected = eager_seg.hop_at(h);
      EXPECT_EQ(hf.isd_as, expected.isd_as);
      EXPECT_EQ(hf.in_if, expected.in_if);
      EXPECT_EQ(hf.out_if, expected.out_if);
      EXPECT_EQ(hf.mac, expected.mac);
      (void)scion::ScionHeaderView::traversal_ingress(seg, hf);
      (void)scion::ScionHeaderView::traversal_egress(seg, hf);
    }
  }
  // The forwarding decision must stay in bounds for any cursor value.
  const scion::ForwardingKey key = from_string("fuzz-key");
  (void)scion::decide_hop(data, scion::IsdAsn{1, 2}, key, scion::BorderRouterConfig{});
}

TEST_P(FuzzSeeds, ScionHeaderViewNeverReadsOutOfBounds) {
  Rng rng(GetParam() + 1100);
  // Pure garbage.
  for (int i = 0; i < 500; ++i) {
    exercise_header_view(random_bytes(rng, 300));
  }
  // Mutations of a valid multi-segment packet: bit flips corrupt cursor
  // bytes, segment counts, and declared hop counts; truncations/extensions
  // break the length invariants the parse walk must catch.
  scion::ScionHeader header;
  header.src = scion::ScionAddr{scion::IsdAsn{1, 2}, net::IpAddr{3}};
  header.dst = scion::ScionAddr{scion::IsdAsn{4, 5}, net::IpAddr{6}};
  for (int s = 0; s < 3; ++s) {
    scion::DataplaneSegment seg;
    seg.origin_ts = 90 + s;
    seg.reversed = s % 2 == 1;
    for (int h = 0; h < 3 + s; ++h) {
      scion::HopField hf;
      hf.isd_as = scion::IsdAsn{1, static_cast<scion::Asn>(16 * s + h)};
      hf.in_if = static_cast<scion::IfaceId>(h);
      hf.out_if = static_cast<scion::IfaceId>(h + 1);
      seg.hops.push_back(hf);
    }
    header.path.segments.push_back(seg);
  }
  const Bytes valid = scion::serialize_scion_packet(header, from_string("payload"));
  for (int i = 0; i < 500; ++i) {
    exercise_header_view(mutate(rng, valid));
  }
  // Targeted cursor corruption on otherwise-valid packets: every (cur_seg,
  // cur_hop) combination, including far out of range, must be handled.
  for (int i = 0; i < 300; ++i) {
    Bytes packet = valid;
    packet[scion::ParsedScionPacket::kCurSegOffset] =
        static_cast<std::uint8_t>(rng.next_below(256));
    packet[scion::ParsedScionPacket::kCurHopOffset] =
        static_cast<std::uint8_t>(rng.next_below(256));
    exercise_header_view(packet);
  }
  // Inconsistent hop counts: rewrite a segment's declared hop count without
  // touching the buffer length — the parse walk must reconcile the new
  // structure against the real length, never reading past the end.
  std::vector<std::size_t> hop_count_offsets;
  std::size_t off = scion::kScionFixedHeaderSize;
  for (const scion::DataplaneSegment& seg : header.path.segments) {
    hop_count_offsets.push_back(off + scion::kSegmentMetaSize - 1);
    off += scion::kSegmentMetaSize + seg.hops.size() * scion::kHopFieldWireSize;
  }
  for (int i = 0; i < 300; ++i) {
    Bytes packet = valid;
    const std::size_t target = hop_count_offsets[rng.next_below(hop_count_offsets.size())];
    packet[target] = static_cast<std::uint8_t>(rng.next_below(256));
    exercise_header_view(packet);
  }
  // Truncations at every length, from full packet down to empty.
  for (std::size_t len = valid.size(); len-- > 0;) {
    exercise_header_view(std::span<const std::uint8_t>(valid.data(), len));
  }
  SUCCEED();
}

TEST_P(FuzzSeeds, TransportPacketParserNeverCrashes) {
  Rng rng(GetParam() + 100);
  for (int i = 0; i < 500; ++i) {
    (void)transport::parse_packet(random_bytes(rng, 300));
  }
  transport::TransportPacket packet;
  packet.kind = transport::TransportKind::kQuicLite;
  packet.conn_id = 7;
  packet.frames.emplace_back(transport::StreamFrame{0, 0, true, from_string("x")});
  packet.frames.emplace_back(transport::AckFrame{{{1, 5}}});
  const Bytes valid = transport::serialize_packet(packet);
  for (int i = 0; i < 500; ++i) {
    (void)transport::parse_packet(mutate(rng, valid));
  }
  SUCCEED();
}

TEST_P(FuzzSeeds, HttpParserNeverCrashes) {
  Rng rng(GetParam() + 200);
  for (int round = 0; round < 50; ++round) {
    http::HttpParser parser(round % 2 == 0 ? http::ParserMode::kRequest
                                           : http::ParserMode::kResponse);
    parser.on_request = [](http::HttpRequest) {};
    parser.on_response = [](http::HttpResponse) {};
    parser.on_error = [](const std::string&) {};
    // Feed a mix of garbage and fragments of valid messages.
    for (int i = 0; i < 10; ++i) {
      if (rng.chance(0.5)) {
        parser.feed(random_bytes(rng, 100));
      } else {
        const Bytes valid = http::make_text_response(200, "ok").serialize();
        parser.feed(mutate(rng, valid));
      }
    }
    parser.finish();
  }
  SUCCEED();
}

TEST_P(FuzzSeeds, PplParserNeverCrashes) {
  Rng rng(GetParam() + 300);
  static constexpr std::string_view kAlphabet =
      "policyacldenyallowsequenceorderrequire{};,\"#*-0123456789 \n\tascdesc<>=!";
  for (int i = 0; i < 400; ++i) {
    std::string input;
    const std::size_t len = rng.next_below(120);
    for (std::size_t c = 0; c < len; ++c) {
      input += kAlphabet[rng.next_below(kAlphabet.size())];
    }
    (void)ppl::parse_policy(input);
    (void)ppl::parse_policies(input);
  }
  SUCCEED();
}

TEST_P(FuzzSeeds, UrlParserNeverCrashes) {
  Rng rng(GetParam() + 400);
  for (int i = 0; i < 1000; ++i) {
    const Bytes raw = random_bytes(rng, 60);
    const std::string input(reinterpret_cast<const char*>(raw.data()), raw.size());
    (void)http::parse_url(input);
    (void)http::parse_url("http://" + input);
  }
  SUCCEED();
}

TEST_P(FuzzSeeds, AddressParsersNeverCrash) {
  Rng rng(GetParam() + 500);
  for (int i = 0; i < 1000; ++i) {
    const Bytes raw = random_bytes(rng, 30);
    const std::string input(reinterpret_cast<const char*>(raw.data()), raw.size());
    (void)scion::IsdAsn::parse(input);
    (void)scion::ScionAddr::parse(input);
    (void)net::IpAddr::parse(input);
    (void)ppl::HopPredicate::parse(input);
  }
  SUCCEED();
}

TEST_P(FuzzSeeds, FaultPlanParserNeverCrashes) {
  Rng rng(GetParam() + 950);
  // Token soup drawn from the fault-plan grammar plus junk, so the fuzzer
  // exercises deep parse paths (options, units, kinds) and not just the
  // first-token reject.
  static constexpr std::string_view kTokens[] = {
      "at=",       "dur=",          "loss=",     "latency-factor=",
      "extra-latency=", "mode=",    "delay=",    "link-down",
      "link-degrade",   "as-outage", "path-server-stale", "dns-brownout",
      "origin-reset",   "origin-slow-loris", "origin-bad-strict-scion",
      "timeout",   "servfail",      "150ms",     "2s",
      "0",         "-3ms",          "1e99s",     "core-1",
      "core-2b",   "#",             "0.5",       "\xff\xfe",
      "999999999999999999999s",     "ms",        "=",
      "surge",     "rate=",         "conc=",     "160",
      "replica-crash", "replica-hang", "replica-restart", "rep-0",
      "access-down",   "access-degrade", "browser-lte",   "latency-factor=8",
  };
  for (int i = 0; i < 300; ++i) {
    std::string input;
    const std::size_t tokens = rng.next_below(20);
    for (std::size_t t = 0; t < tokens; ++t) {
      input += kTokens[rng.next_below(std::size(kTokens))];
      input += rng.chance(0.2) ? "\n" : " ";
    }
    const auto plan = fault::parse_fault_plan(input);
    // A total parser: garbage yields a line-numbered error, never a crash.
    if (!plan.ok()) {
      EXPECT_NE(plan.error().find("line"), std::string::npos);
    }
  }
  // Mutated valid plans (flip characters of a well-formed plan).
  const std::string valid =
      "at=150ms dur=2s link-down core-1 core-2b\n"
      "at=1s dur=500ms dns-brownout example.org mode=servfail\n"
      "at=2s dur=1s link-degrade core-1 core-2a loss=0.2 latency-factor=3\n";
  for (int i = 0; i < 300; ++i) {
    std::string mutated = valid;
    const std::size_t flips = 1 + rng.next_below(5);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.next_below(mutated.size())] =
          static_cast<char>(rng.next_below(256));
    }
    (void)fault::parse_fault_plan(mutated);
  }
  SUCCEED();
}

TEST_P(FuzzSeeds, ScmpParserNeverCrashes) {
  Rng rng(GetParam() + 1000);
  // Pure garbage.
  for (int i = 0; i < 500; ++i) {
    const Bytes raw = random_bytes(rng, 80);
    (void)scion::ScmpMessage::parse(raw);
  }
  // Mutated valid messages: parse must never crash, and anything that does
  // parse must round-trip through serialize() unchanged.
  scion::ScmpMessage msg;
  msg.type = scion::ScmpType::kLinkDown;
  msg.origin_as = scion::IsdAsn{1, 0x110};
  msg.interface = 4;
  msg.original_dst = scion::ScionAddr{scion::IsdAsn{2, 0x220}, net::IpAddr{9}};
  msg.original_dst_port = 443;
  const Bytes valid = msg.serialize();
  for (int i = 0; i < 500; ++i) {
    const Bytes mutated = mutate(rng, valid);
    const auto parsed = scion::ScmpMessage::parse(mutated);
    if (parsed.ok()) {
      EXPECT_EQ(parsed.value().serialize(), mutated);
    }
  }
  SUCCEED();
}

// --------------------------------------------------- data plane hardening --

struct DataplaneWorld {
  std::unique_ptr<browser::World> world = browser::make_remote_world();
  scion::HostId server;
  std::unique_ptr<scion::ScionSocket> server_socket;
  int delivered = 0;

  DataplaneWorld() {
    auto& topo = world->topology();
    server = topo.host_by_name("far-www");
    server_socket = topo.scion_stack(server).bind(
        9000, [this](const scion::ScionEndpoint&, const scion::ScionHeaderView&, net::PacketView) {
          ++delivered;
        });
  }
};

TEST_P(FuzzSeeds, BorderRouterSurvivesGarbagePackets) {
  DataplaneWorld dp;
  Rng rng(GetParam() + 600);
  auto& topo = dp.world->topology();
  net::Host& client_host = topo.host(dp.world->client);
  for (int i = 0; i < 300; ++i) {
    net::Packet packet;
    packet.proto = net::Protocol::kScion;
    packet.src = client_host.address();
    packet.dst = topo.ip(dp.server);
    packet.payload = random_bytes(rng, 200);
    client_host.send_packet(std::move(packet));
  }
  dp.world->sim().run();
  EXPECT_EQ(dp.delivered, 0);
  std::uint64_t parse_drops = 0;
  for (const auto ia : topo.all_ases()) {
    parse_drops += topo.border_router_stats(ia).drop_parse;
  }
  EXPECT_GT(parse_drops, 0u);
}

TEST_P(FuzzSeeds, BorderRouterRejectsMutatedPaths) {
  DataplaneWorld dp;
  Rng rng(GetParam() + 700);
  auto& topo = dp.world->topology();
  const auto paths = topo.daemon_for(dp.world->client).query_now(topo.as_of(dp.server));
  ASSERT_FALSE(paths.empty());
  auto client = topo.scion_stack(dp.world->client).bind(0, nullptr);
  const scion::ScionEndpoint target{topo.scion_addr(dp.server), 9000};

  int sent_valid = 0;
  for (int i = 0; i < 100; ++i) {
    scion::DataplanePath path = paths[rng.next_below(paths.size())].dataplane();
    // Mutate a random hop field in a random segment.
    const bool corrupt = rng.chance(0.8);
    if (corrupt && !path.segments.empty()) {
      auto& seg = path.segments[rng.next_below(path.segments.size())];
      if (!seg.hops.empty()) {
        auto& hop = seg.hops[rng.next_below(seg.hops.size())];
        switch (rng.next_below(4)) {
          case 0: hop.in_if ^= static_cast<scion::IfaceId>(1 + rng.next_below(7)); break;
          case 1: hop.out_if ^= static_cast<scion::IfaceId>(1 + rng.next_below(7)); break;
          case 2: hop.mac[rng.next_below(hop.mac.size())] ^= 0xff; break;
          case 3: hop.isd_as = scion::IsdAsn{9, 0x999}; break;
        }
      }
    } else if (!corrupt) {
      ++sent_valid;
    }
    client->send_to(target, scion::WirePath(path), from_string("probe"));
  }
  dp.world->sim().run();
  // Every delivery must correspond to an unmutated path. (A mutation can by
  // astronomical luck produce a valid MAC; with 48-bit MACs that does not
  // happen in 800 trials.)
  EXPECT_EQ(dp.delivered, sent_valid);
}

TEST_P(FuzzSeeds, HostStackSurvivesGarbageScionDelivery) {
  DataplaneWorld dp;
  Rng rng(GetParam() + 800);
  auto& topo = dp.world->topology();
  // Deliver garbage directly to the server host's SCION stack (as if a
  // misbehaving router forwarded junk).
  net::Host& host = topo.host(dp.server);
  for (int i = 0; i < 200; ++i) {
    net::Packet packet;
    packet.proto = net::Protocol::kScion;
    packet.dst = host.address();
    packet.payload = random_bytes(rng, 150);
    // Inject straight into the host's send path: a packet addressed to the
    // host loops through the router back to it.
    host.send_packet(std::move(packet));
  }
  dp.world->sim().run();
  EXPECT_EQ(dp.delivered, 0);
}

// ------------------------------------------------------ segment tampering --

TEST_P(FuzzSeeds, MutatedSegmentsNeverVerify) {
  sim::Simulator sim;
  scion::TopologyConfig config;
  config.seed = GetParam();
  scion::Topology topo(sim, config);
  scion::AsSpec core;
  core.name = "core";
  core.ia = scion::IsdAsn{1, 0x110};
  core.core = true;
  topo.add_as(core);
  scion::AsSpec leaf;
  leaf.name = "leaf";
  leaf.ia = scion::IsdAsn{1, 0x111};
  topo.add_as(leaf);
  scion::AsLinkSpec link;
  link.a = "core";
  link.b = "leaf";
  link.type = scion::LinkType::kParentChild;
  topo.add_link(link);
  topo.finalize();

  const auto& segments = topo.path_infra().down_segments(leaf.ia);
  ASSERT_FALSE(segments.empty());
  Rng rng(GetParam() + 900);
  for (int i = 0; i < 30; ++i) {
    scion::PathSegment seg = segments.front();
    auto& entry = seg.entries[rng.next_below(seg.entries.size())];
    switch (rng.next_below(5)) {
      case 0: entry.ingress_link.latency += nanoseconds(1); break;
      case 1: entry.as_meta.ethics_rating += 0.001; break;
      case 2: entry.hop.out_if ^= 1; break;
      case 3: entry.as_meta.country = "ZZ"; break;
      case 4: entry.signature.revealed[0][0] ^= 1; break;
    }
    EXPECT_FALSE(scion::verify_segment(seg, topo.trust_store())) << "mutation " << i;
  }
}

// ------------------------------------------------------ overload / surge --

/// A client-side proxy under controlled offered load: a local world whose
/// IP-only origin thinks for 400 ms per request, fronted by a SKIP proxy
/// with two legacy connections — service capacity 5 req/s.
struct OverloadHarness {
  std::unique_ptr<browser::World> world;
  std::unique_ptr<dns::Resolver> resolver;
  std::unique_ptr<proxy::SkipProxy> skip;

  struct Tally {
    int ok = 0;                   // 2xx
    int rejected = 0;             // 429 / 503 (admission or shed)
    int timed_out = 0;            // 504 (hung to the deadline)
    int other = 0;
    int missing_retry_after = 0;  // rejections lacking a Retry-After header
  };
  Tally subs;
  Tally docs;

  explicit OverloadHarness(bool shedding, proxy::ProxyConfig config = {},
                           bool remote = false) {
    world = remote ? browser::make_remote_world() : browser::make_local_world();
    if (!remote) {
      world->site("tcpip-fs.local")->set_think_time(milliseconds(400));
      world->site("tcpip-fs.local")->add_text("/r", "resource");
    }
    config.max_legacy_conns_per_origin = 2;
    config.overload.enabled = shedding;
    if (config.overload.max_in_flight == 0) config.overload.max_in_flight = 12;
    auto& topo = world->topology();
    resolver = std::make_unique<dns::Resolver>(world->sim(), world->zone(),
                                               dns::ResolverConfig{});
    skip = std::make_unique<proxy::SkipProxy>(
        world->sim(), topo.host(world->client), topo.scion_stack(world->client),
        topo.daemon_for(world->client), *resolver, config);
  }

  /// Fire-and-forget fetch classified into `tally` when it settles.
  void issue(const char* priority, Duration deadline, Tally& tally,
             const char* client = nullptr) {
    http::HttpRequest request;
    request.target = "http://tcpip-fs.local/r";
    request.headers.set(std::string(proxy::kPriorityHeader), priority);
    if (client != nullptr) {
      request.headers.set(std::string(proxy::kClientHeader), client);
    }
    proxy::ProxyRequestOptions options;
    options.deadline = world->sim().now() + deadline;
    skip->fetch(std::move(request), options, [&tally](proxy::ProxyResult result) {
      const int status = result.response.status;
      if (status >= 200 && status < 300) {
        ++tally.ok;
      } else if (status == 429 || status == 503) {
        ++tally.rejected;
        if (!result.response.headers.get("Retry-After").has_value()) {
          ++tally.missing_retry_after;
        }
      } else if (status == 504) {
        ++tally.timed_out;
      } else {
        ++tally.other;
      }
    });
  }

  /// Blocking fetch (for control endpoints and single probes).
  proxy::ProxyResult fetch(const std::string& target, const char* priority = nullptr) {
    http::HttpRequest request;
    request.target = target;
    if (priority != nullptr) {
      request.headers.set(std::string(proxy::kPriorityHeader), priority);
    }
    proxy::ProxyResult out;
    bool done = false;
    skip->fetch(std::move(request), {}, [&](proxy::ProxyResult r) {
      out = std::move(r);
      done = true;
    });
    world->sim().run_until_condition([&] { return done; },
                                     world->sim().now() + seconds(60));
    EXPECT_TRUE(done);
    return out;
  }

  /// Sustained overload: sub-resource arrivals at ~12/s (2.4x capacity) for
  /// 4 s, with a document arriving every 500 ms from t=1s. Every request
  /// carries a 2.5 s deadline.
  void run_surge() {
    sim::Simulator& sim = world->sim();
    for (int i = 0; i < 48; ++i) {
      sim.schedule_after(milliseconds(83 * i),
                         [this] { issue("subresource", milliseconds(2500), subs); });
    }
    for (int i = 0; i < 6; ++i) {
      sim.schedule_after(seconds(1) + milliseconds(500 * i),
                         [this] { issue("document", milliseconds(2500), docs); });
    }
    sim.run_until(sim.now() + seconds(30));
  }
};

TEST(OverloadShedding, SurgeWithSheddingProtectsDocumentsAndNeverHangs) {
  OverloadHarness on(/*shedding=*/true);
  on.run_surge();

  // Every document completes within its deadline; overload is absorbed by
  // fast 429/503 rejections, never by hanging a request to 504.
  EXPECT_EQ(on.docs.ok, 6) << "504s: " << on.docs.timed_out;
  EXPECT_EQ(on.docs.timed_out, 0);
  EXPECT_EQ(on.subs.timed_out, 0);
  EXPECT_GT(on.subs.rejected, 0);
  EXPECT_EQ(on.subs.missing_retry_after, 0);
  EXPECT_EQ(on.docs.missing_retry_after, 0);
  EXPECT_EQ(on.subs.ok + on.subs.rejected + on.subs.timed_out + on.subs.other, 48);

  const obs::MetricsRegistry& registry = on.skip->metrics();
  EXPECT_GT(registry.counter_value("overload.admitted"), 0u);
  EXPECT_GT(registry.counter_value("overload.rejected_capacity"), 0u);

  // Ablation: the same surge with the overload layer disabled collapses —
  // FIFO queues starve the documents to 504 and total goodput drops.
  OverloadHarness off(/*shedding=*/false);
  off.run_surge();
  EXPECT_GT(off.docs.timed_out, 0);
  EXPECT_GT(on.subs.ok + on.docs.ok, off.subs.ok + off.docs.ok);
}

TEST(OverloadAdmission, PerClientTokenBucketRateLimitsWithRetryAfter) {
  proxy::ProxyConfig config;
  config.overload.client_rate = 2.0;  // burst = max(1, rate) = 2
  OverloadHarness h(/*shedding=*/true, config);

  // Five simultaneous requests from one client: the burst of 2 is admitted,
  // the rest bounce with 429 + Retry-After. A different client has its own
  // bucket.
  for (int i = 0; i < 5; ++i) h.issue("subresource", seconds(10), h.subs, "heavy");
  h.issue("subresource", seconds(10), h.docs, "light");
  h.world->sim().run_until(h.world->sim().now() + seconds(2));
  EXPECT_EQ(h.subs.ok, 2);
  EXPECT_EQ(h.subs.rejected, 3);
  EXPECT_EQ(h.subs.missing_retry_after, 0);
  EXPECT_EQ(h.docs.ok, 1);

  // The bucket refills with time: the heavy client is admitted again.
  h.issue("subresource", seconds(10), h.docs, "heavy");
  h.world->sim().run_until(h.world->sim().now() + seconds(2));
  EXPECT_EQ(h.docs.ok, 2);

  const obs::MetricsRegistry& registry = h.skip->metrics();
  EXPECT_EQ(registry.counter_value("overload.rejected_rate"), 3u);
  EXPECT_EQ(registry.counter_value("overload.rejected_capacity"), 0u);
}

TEST(OverloadBrownout, SustainedPressureDisablesScionUpgradeUntilRecovery) {
  proxy::ProxyConfig config;
  config.overload.max_in_flight = 3;
  config.overload.brownout_hold = milliseconds(100);
  OverloadHarness h(/*shedding=*/true, config, /*remote=*/true);
  h.world->site("www.far.example")->add_text("/x", "far content");
  sim::Simulator& sim = h.world->sim();
  proxy::OverloadController& overload = h.skip->overload();

  // Pin the proxy at its in-flight cap long enough for the pressure EWMA to
  // cross the brownout threshold and hold there.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(overload.admit("pin", proxy::RequestPriority::kDocument).verdict,
              proxy::OverloadController::Verdict::kAdmit);
  }
  sim.run_until(sim.now() + milliseconds(300));
  (void)overload.brownout();  // pressure catches up; hold timer starts
  sim.run_until(sim.now() + milliseconds(150));
  EXPECT_TRUE(overload.brownout());

  // Hysteresis: dropping to 2/3 utilization is above the exit threshold, so
  // brownout stays in force...
  overload.release();
  sim.run_until(sim.now() + milliseconds(200));
  EXPECT_TRUE(overload.brownout());
  const http::HttpResponse health = h.fetch("/skip/health").response;
  const std::string health_body(reinterpret_cast<const char*>(health.body.data()),
                                health.body.size());
  EXPECT_NE(health_body.find("\"brownout\":true"), std::string::npos);

  // ...and an opportunistic fetch of a SCION-capable origin skips the
  // upgrade entirely, riding legacy IP without a fallback attempt.
  const proxy::ProxyResult result = h.fetch("http://www.far.example/x", "document");
  EXPECT_EQ(result.response.status, 200);
  EXPECT_EQ(result.transport, proxy::TransportUsed::kIp);
  EXPECT_FALSE(result.fell_back);
  EXPECT_EQ(result.scion_attempts, 0u);
  EXPECT_EQ(h.skip->metrics().counter("overload.brownout_bypass").value(), 1u);

  // Pressure drains: brownout exits and SCION upgrades resume.
  overload.release();
  overload.release();
  sim.run_until(sim.now() + seconds(1));
  EXPECT_FALSE(overload.brownout());
  EXPECT_EQ(h.skip->metrics().counter("overload.brownout_entered").value(), 1u);
  EXPECT_EQ(h.skip->metrics().counter("overload.brownout_exited").value(), 1u);
  EXPECT_EQ(h.fetch("http://www.far.example/x").transport,
            proxy::TransportUsed::kScion);
}

TEST(SurgeVerb, FaultPlanDrivesLoadGeneratorThroughProxy) {
  OverloadHarness h(/*shedding=*/true, {}, /*remote=*/true);
  h.world->site("www.near.example")->add_text("/", "near home");
  browser::SurgeLoad surge(*h.world, *h.skip);
  ASSERT_TRUE(
      h.world->schedule_chaos("at=10ms dur=1s surge www.near.example rate=50 conc=8")
          .ok());
  h.world->sim().run_until(h.world->sim().now() + seconds(8));

  const browser::SurgeLoad::Stats& stats = surge.stats();
  EXPECT_GT(stats.launched, 20u);
  EXPECT_LE(stats.launched, 60u);
  // Every launched request settles one way or another once the surge ends.
  EXPECT_EQ(stats.launched,
            stats.completed + stats.rejected + stats.timed_out + stats.failed);
  EXPECT_GT(stats.completed, 0u);
  EXPECT_EQ(surge.in_flight(), 0u);
}

}  // namespace
}  // namespace pan
