// Tests for the chaos subsystem (fault plan parser + injector) and the SKIP
// proxy's resilience layer built on top of it: alternate-path retry inside
// the deadline budget, path quarantine, the per-origin circuit breaker,
// graceful strict-mode degradation (503 + Retry-After), and the /skip/health
// introspection endpoint.
#include <gtest/gtest.h>

#include "core/page.hpp"
#include "core/scenarios.hpp"
#include "fault/injector.hpp"
#include "proxy/detector.hpp"

namespace pan::fault {
namespace {

using browser::ClientSession;
using browser::make_local_world;
using browser::make_remote_world;
using browser::World;

// ---------------------------------------------------------------- parser --

TEST(FaultPlanParser, ParsesFullGrammar) {
  const auto plan = parse_fault_plan(R"(
# chaos scenario exercising every fault kind
at=150ms dur=2s link-down core-1 core-2b
at=0ms dur=3s link-degrade core-1 core-2a loss=0.25 latency-factor=4 extra-latency=10ms
at=1s as-outage core-2b
at=0ms dur=5s path-server-stale
at=20ms dur=2s dns-brownout www.far.example mode=servfail delay=400ms
at=0ms dur=2s origin-reset www.far.example
at=0ms origin-slow-loris www.far.example
at=0ms origin-bad-strict-scion www.far.example
)");
  ASSERT_TRUE(plan.ok()) << plan.error();
  ASSERT_EQ(plan.value().size(), 8u);

  const FaultEvent& cut = plan.value().events[0];
  EXPECT_EQ(cut.kind, FaultKind::kLinkDown);
  EXPECT_EQ(cut.at, TimePoint{} + milliseconds(150));
  EXPECT_EQ(cut.duration, seconds(2));
  EXPECT_EQ(cut.a, "core-1");
  EXPECT_EQ(cut.b, "core-2b");

  const FaultEvent& degrade = plan.value().events[1];
  EXPECT_EQ(degrade.kind, FaultKind::kLinkDegrade);
  EXPECT_DOUBLE_EQ(degrade.loss, 0.25);
  EXPECT_DOUBLE_EQ(degrade.latency_factor, 4.0);
  EXPECT_EQ(degrade.extra_latency, milliseconds(10));

  const FaultEvent& outage = plan.value().events[2];
  EXPECT_EQ(outage.kind, FaultKind::kAsOutage);
  EXPECT_EQ(outage.a, "core-2b");
  EXPECT_EQ(outage.duration, Duration::zero());  // holds forever

  const FaultEvent& brownout = plan.value().events[4];
  EXPECT_EQ(brownout.kind, FaultKind::kDnsBrownout);
  EXPECT_TRUE(brownout.servfail);
  EXPECT_EQ(brownout.dns_delay, milliseconds(400));
}

TEST(FaultPlanParser, ParsesAccessVerbs) {
  const auto plan = parse_fault_plan(
      "at=1s dur=2s access-down browser\n"
      "at=3s dur=1s access-degrade browser-lte latency-factor=8 loss=0.2\n");
  ASSERT_TRUE(plan.ok()) << plan.error();
  ASSERT_EQ(plan.value().size(), 2u);

  const FaultEvent& down = plan.value().events[0];
  EXPECT_EQ(down.kind, FaultKind::kAccessDown);
  EXPECT_EQ(down.a, "browser");  // a host name, not an AS name
  EXPECT_EQ(down.duration, seconds(2));

  const FaultEvent& degrade = plan.value().events[1];
  EXPECT_EQ(degrade.kind, FaultKind::kAccessDegrade);
  EXPECT_EQ(degrade.a, "browser-lte");
  EXPECT_DOUBLE_EQ(degrade.latency_factor, 8.0);
  EXPECT_DOUBLE_EQ(degrade.loss, 0.2);
}

TEST(FaultPlanParser, RejectsBadAccessArity) {
  const auto missing = parse_fault_plan("at=0ms access-down");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.error().find("line 1"), std::string::npos);

  const auto extra = parse_fault_plan("at=0ms access-degrade browser browser-lte");
  ASSERT_FALSE(extra.ok());
  EXPECT_NE(extra.error().find("line 1"), std::string::npos);
}

TEST(FaultPlanParser, ParsesSurgeVerb) {
  const auto plan = parse_fault_plan(
      "at=0ms dur=4s surge www.far.example rate=160 conc=64\n"
      "at=5s dur=1s surge static.far.example\n");
  ASSERT_TRUE(plan.ok()) << plan.error();
  ASSERT_EQ(plan.value().size(), 2u);

  const FaultEvent& surge = plan.value().events[0];
  EXPECT_EQ(surge.kind, FaultKind::kSurge);
  EXPECT_EQ(surge.a, "www.far.example");
  EXPECT_EQ(surge.duration, seconds(4));
  EXPECT_DOUBLE_EQ(surge.surge_rate, 160.0);
  EXPECT_EQ(surge.surge_concurrency, 64u);

  // Options are optional and keep their defaults.
  const FaultEvent& defaulted = plan.value().events[1];
  EXPECT_DOUBLE_EQ(defaulted.surge_rate, 50.0);
  EXPECT_EQ(defaulted.surge_concurrency, 32u);
}

TEST(FaultPlanParser, RejectsBadSurgeOptions) {
  const auto zero_rate = parse_fault_plan("at=0ms dur=1s surge x rate=0");
  ASSERT_FALSE(zero_rate.ok());
  EXPECT_NE(zero_rate.error().find("line 1"), std::string::npos);

  const auto huge_rate = parse_fault_plan("at=0ms dur=1s surge x rate=1e9");
  EXPECT_FALSE(huge_rate.ok());

  const auto fractional_conc = parse_fault_plan("at=0ms dur=1s surge x conc=1.5");
  EXPECT_FALSE(fractional_conc.ok());

  const auto zero_conc = parse_fault_plan("at=0ms dur=1s surge x conc=0");
  EXPECT_FALSE(zero_conc.ok());
}

TEST(FaultPlanParser, ErrorsNameTheLine) {
  const auto missing_at = parse_fault_plan("link-down a b");
  ASSERT_FALSE(missing_at.ok());
  EXPECT_NE(missing_at.error().find("line 1"), std::string::npos);

  const auto bad_kind = parse_fault_plan("at=0ms dur=1s frobnicate a b");
  ASSERT_FALSE(bad_kind.ok());

  const auto bad_arity = parse_fault_plan("at=0ms link-down core-1");
  ASSERT_FALSE(bad_arity.ok());

  const auto second_line = parse_fault_plan("at=0ms as-outage core-1\nat=zzz as-outage x");
  ASSERT_FALSE(second_line.ok());
  EXPECT_NE(second_line.error().find("line 2"), std::string::npos);
}

TEST(FaultPlanParser, ParseDurationUnitsAndRejects) {
  EXPECT_EQ(parse_duration("250ms").value(), milliseconds(250));
  EXPECT_EQ(parse_duration("1.5s").value(), milliseconds(1500));
  EXPECT_EQ(parse_duration("40us").value(), microseconds(40));
  EXPECT_EQ(parse_duration("900ns").value(), nanoseconds(900));
  EXPECT_EQ(parse_duration("0").value(), Duration::zero());
  EXPECT_FALSE(parse_duration("").ok());
  EXPECT_FALSE(parse_duration("-5ms").ok());
  EXPECT_FALSE(parse_duration("5parsecs").ok());
  EXPECT_FALSE(parse_duration("ms").ok());
  EXPECT_FALSE(parse_duration("1e400s").ok());
}

// -------------------------------------------------------------- injector --

TEST(FaultInjector, LinkDownAppliesAndReverts) {
  auto world = make_remote_world();
  ASSERT_TRUE(world->schedule_chaos("at=10ms dur=50ms link-down core-1 core-2b").ok());

  net::Network& net = world->topology().network();
  const net::NodeId br = net.find_node("br-core-1");
  const net::NodeId peer = net.find_node("br-core-2b");
  ASSERT_NE(br, net::kInvalidNodeId);
  ASSERT_NE(peer, net::kInvalidNodeId);
  const auto link_up = [&] {
    for (net::IfId ifid = 0; ifid < net.interface_count(br); ++ifid) {
      if (net.neighbor(br, ifid) == peer) return net.link_up(br, ifid);
    }
    ADD_FAILURE() << "no core-1 <-> core-2b link";
    return true;
  };

  EXPECT_TRUE(link_up());
  world->sim().run_until(world->sim().now() + milliseconds(20));
  EXPECT_FALSE(link_up());
  EXPECT_EQ(world->injector().active_count(), 1u);
  EXPECT_EQ(world->injector().injected(), 1u);
  world->sim().run_until(world->sim().now() + milliseconds(60));
  EXPECT_TRUE(link_up());
  EXPECT_EQ(world->injector().active_count(), 0u);
  EXPECT_EQ(world->injector().reverted(), 1u);
}

TEST(FaultInjector, LinkDegradeRestoresOriginalParams) {
  auto world = make_remote_world();
  net::Network& net = world->topology().network();
  const net::NodeId br = net.find_node("br-core-1");
  const net::NodeId peer = net.find_node("br-core-2b");
  net::IfId ifid_on_br = 0;
  for (net::IfId ifid = 0; ifid < net.interface_count(br); ++ifid) {
    if (net.neighbor(br, ifid) == peer) ifid_on_br = ifid;
  }
  const Duration base_latency = net.link_at(br, ifid_on_br).params.latency;

  ASSERT_TRUE(world
                  ->schedule_chaos(
                      "at=0ms dur=100ms link-degrade core-1 core-2b loss=0.5 "
                      "latency-factor=3")
                  .ok());
  world->sim().run_until(world->sim().now() + milliseconds(10));
  EXPECT_DOUBLE_EQ(net.link_at(br, ifid_on_br).params.loss_rate, 0.5);
  EXPECT_EQ(net.link_at(br, ifid_on_br).params.latency, base_latency.scaled(3.0));
  world->sim().run_until(world->sim().now() + milliseconds(120));
  EXPECT_DOUBLE_EQ(net.link_at(br, ifid_on_br).params.loss_rate,
                   world->config().inter_as_loss);
  EXPECT_EQ(net.link_at(br, ifid_on_br).params.latency, base_latency);
}

TEST(FaultInjector, PathServerStaleServesCacheAndFailsMisses) {
  auto world = make_remote_world();
  scion::Topology& topo = world->topology();
  scion::Daemon& daemon = topo.daemon_for(world->client);
  const scion::IsdAsn server_as = topo.as_by_name("server-as");
  const scion::IsdAsn near_as = topo.as_by_name("near-as");

  // Warm the cache for server-as only.
  std::vector<scion::Path> warm;
  daemon.query(server_as, [&](std::vector<scion::Path> paths) { warm = std::move(paths); });
  world->sim().run();
  ASSERT_FALSE(warm.empty());

  ASSERT_TRUE(world->schedule_chaos("at=0ms dur=600s path-server-stale").ok());
  // Jump past the cache TTL (300 s) while the path server is still stale:
  // the expired entry must keep being served rather than re-fetched.
  world->sim().run_until(world->sim().now() + seconds(301));

  std::vector<scion::Path> stale;
  daemon.query(server_as, [&](std::vector<scion::Path> paths) { stale = std::move(paths); });
  EXPECT_FALSE(stale.empty());  // served synchronously from the stale cache
  EXPECT_GE(daemon.stale_serves(), 1u);

  std::vector<scion::Path> miss{scion::Path()};
  bool missed = false;
  daemon.query(near_as, [&](std::vector<scion::Path> paths) {
    miss = std::move(paths);
    missed = true;
  });
  world->sim().run_until(world->sim().now() + seconds(1));
  EXPECT_TRUE(missed);
  EXPECT_TRUE(miss.empty());  // cold queries fail while the path server is stale
  EXPECT_GE(daemon.frozen_failures(), 1u);
}

// ------------------------------------------------- DNS brownout semantics --

TEST(DnsBrownout, ServfailIsTransientNotNegativelyCached) {
  auto world = make_local_world();
  world->zone().add_a("flaky.example", net::IpAddr{42});
  dns::Resolver resolver(world->sim(), world->zone(),
                         dns::ResolverConfig{.lookup_latency = milliseconds(4)});
  world->injector().attach_resolver(resolver);
  ASSERT_TRUE(
      world->schedule_chaos("at=0ms dur=100ms dns-brownout flaky.example mode=servfail")
          .ok());
  world->sim().run_until(world->sim().now() + milliseconds(1));  // apply the fault

  Result<dns::RecordSet> first = Err("unset");
  resolver.resolve("flaky.example", [&](Result<dns::RecordSet> r) { first = std::move(r); });
  world->sim().run_until(world->sim().now() + milliseconds(50));
  ASSERT_FALSE(first.ok());
  EXPECT_NE(first.error().find("SERVFAIL"), std::string::npos);
  EXPECT_EQ(resolver.fault_errors(), 1u);

  // Brownout errors must NOT populate the negative cache: once the fault
  // lifts, the very next lookup succeeds.
  world->sim().run_until(world->sim().now() + milliseconds(100));
  Result<dns::RecordSet> second = Err("unset");
  resolver.resolve("flaky.example", [&](Result<dns::RecordSet> r) { second = std::move(r); });
  world->sim().run();
  ASSERT_TRUE(second.ok()) << second.error();
  EXPECT_EQ(second.value().a.front(), net::IpAddr{42});
}

TEST(DnsBrownout, TimeoutModeTakesQueryTimeoutNotLookupLatency) {
  auto world = make_local_world();
  world->zone().add_a("flaky.example", net::IpAddr{42});
  dns::Resolver resolver(world->sim(), world->zone(),
                         dns::ResolverConfig{.lookup_latency = milliseconds(4),
                                             .query_timeout = milliseconds(80)});
  world->injector().attach_resolver(resolver);
  ASSERT_TRUE(world->schedule_chaos("at=0ms dns-brownout flaky.example").ok());
  world->sim().run_until(world->sim().now() + milliseconds(1));  // apply the fault

  const TimePoint t0 = world->sim().now();
  Result<dns::RecordSet> out = Err("unset");
  bool done = false;
  resolver.resolve("flaky.example", [&](Result<dns::RecordSet> r) {
    out = std::move(r);
    done = true;
  });
  world->sim().run_until_condition([&] { return done; }, t0 + seconds(5));
  ASSERT_TRUE(done);
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.error().find("timeout"), std::string::npos);
  EXPECT_EQ(world->sim().now() - t0, milliseconds(80));
}

TEST(DnsBrownout, NegativeTtlStillGovernsRealNxdomain) {
  // The distinction under test: NXDOMAIN (an authoritative "no such name")
  // is cached for negative_ttl even across a brownout window, while brownout
  // failures themselves never enter the cache.
  auto world = make_local_world();
  dns::Resolver resolver(world->sim(), world->zone(),
                         dns::ResolverConfig{.lookup_latency = milliseconds(4),
                                             .cache_ttl = seconds(300),
                                             .negative_ttl = milliseconds(200)});
  world->injector().attach_resolver(resolver);

  Result<dns::RecordSet> nx = Err("unset");
  resolver.resolve("late.example", [&](Result<dns::RecordSet> r) { nx = std::move(r); });
  world->sim().run();
  ASSERT_FALSE(nx.ok());  // NXDOMAIN, now negatively cached

  // The domain appears, but the negative entry still answers within its TTL.
  world->zone().add_a("late.example", net::IpAddr{7});
  Result<dns::RecordSet> cached = Err("unset");
  resolver.resolve("late.example", [&](Result<dns::RecordSet> r) { cached = std::move(r); });
  world->sim().run();
  EXPECT_FALSE(cached.ok());

  // After negative_ttl the fresh lookup goes through.
  world->sim().run_until(world->sim().now() + milliseconds(250));
  Result<dns::RecordSet> fresh = Err("unset");
  resolver.resolve("late.example", [&](Result<dns::RecordSet> r) { fresh = std::move(r); });
  world->sim().run();
  ASSERT_TRUE(fresh.ok()) << fresh.error();
  EXPECT_EQ(fresh.value().a.front(), net::IpAddr{7});
}

TEST(DetectorUnderBrownout, LearnedEntryExpiresWhileDnsIsDown) {
  auto world = make_local_world();
  world->zone().add_a("pinned.example", net::IpAddr{9});
  dns::Resolver resolver(world->sim(), world->zone(),
                         dns::ResolverConfig{.lookup_latency = milliseconds(4),
                                             .query_timeout = milliseconds(20)});
  world->injector().attach_resolver(resolver);
  proxy::ScionDetector detector(world->sim(), resolver);
  const scion::ScionAddr addr{scion::IsdAsn{1, 0x110}, net::IpAddr{0x0a000001}};
  detector.learn("pinned.example", addr, milliseconds(100));

  ASSERT_TRUE(world->schedule_chaos("at=0ms dur=500ms dns-brownout pinned.example").ok());
  world->sim().run_until(world->sim().now() + milliseconds(1));  // apply the fault

  const auto resolve = [&] {
    proxy::ResolvedHost out;
    bool done = false;
    detector.resolve("pinned.example", [&](proxy::ResolvedHost host) {
      out = host;
      done = true;
    });
    world->sim().run_until_condition([&] { return done; },
                                     world->sim().now() + seconds(2));
    EXPECT_TRUE(done);
    return out;
  };

  // While the learned entry is valid, SCION availability survives the DNS
  // brownout (the A lookup fails, so no legacy address).
  const proxy::ResolvedHost during = resolve();
  ASSERT_TRUE(during.scion.has_value());
  EXPECT_EQ(during.scion_source, proxy::ScionSource::kLearned);
  EXPECT_FALSE(during.ip.has_value());

  // Past the learned max-age, with DNS still down, the host is dark.
  world->sim().run_until(world->sim().now() + milliseconds(150));
  const proxy::ResolvedHost expired = resolve();
  EXPECT_FALSE(expired.scion.has_value());
  EXPECT_EQ(expired.scion_source, proxy::ScionSource::kNone);
  EXPECT_FALSE(expired.ip.has_value());

  // Brownout lifts: the legacy address is resolvable again immediately.
  world->sim().run_until(TimePoint{} + milliseconds(600));
  const proxy::ResolvedHost after = resolve();
  EXPECT_TRUE(after.ip.has_value());
}

// ------------------------------------------------------- resilient proxy --

struct SessionFixture {
  std::unique_ptr<World> world;
  std::unique_ptr<ClientSession> session;

  explicit SessionFixture(bool remote, proxy::ProxyConfig config = {},
                          browser::BrowserConfig browser_config = {}) {
    world = remote ? make_remote_world() : make_local_world();
    session = std::make_unique<ClientSession>(*world, config, browser_config);
  }

  proxy::ProxyResult fetch(const std::string& url, bool strict = false) {
    http::HttpRequest request;
    request.target = url;
    proxy::ProxyRequestOptions options;
    options.strict = strict;
    proxy::ProxyResult out;
    bool done = false;
    session->proxy().fetch(request, options, [&](proxy::ProxyResult r) {
      out = std::move(r);
      done = true;
    });
    world->sim().run_until_condition([&] { return done; },
                                     world->sim().now() + seconds(60));
    EXPECT_TRUE(done);
    return out;
  }
};

TEST(ResilientProxy, RetriesOverScionAfterOriginReset) {
  // The SCION-only origin resets (truncates) responses for the first 20 ms.
  // The proxy must absorb the failure with a backoff retry and still answer
  // over SCION — there is no legacy address to hide behind.
  SessionFixture fx(/*remote=*/false);
  fx.world->site("scion-fs.local")->add_text("/x", "eventually fine");
  ASSERT_TRUE(fx.world->schedule_chaos("at=0ms dur=20ms origin-reset scion-fs.local").ok());

  const proxy::ProxyResult result = fx.fetch("http://scion-fs.local/x");
  EXPECT_EQ(result.transport, proxy::TransportUsed::kScion);
  EXPECT_EQ(result.response.status, 200);
  EXPECT_GE(result.scion_attempts, 2u);

  const obs::MetricsRegistry& registry = fx.session->proxy().metrics();
  EXPECT_GE(registry.counter_value("proxy.scion_failures"), 1u);
  EXPECT_GE(registry.counter_value("proxy.retries"), 1u);
  EXPECT_EQ(registry.counter_value("proxy.fallbacks"), 0u);
  // The failing attempt's path was quarantined and the fault counters are in
  // the shared registry.
  EXPECT_GE(fx.session->proxy().metrics().counter_value("selector.quarantines"), 1u);
  EXPECT_GE(fx.session->proxy().metrics().counter_value("fault.origin_reset"), 1u);
}

TEST(ResilientProxy, LinkCutMidPageLoadFinishesOnAlternateScionPath) {
  // Acceptance scenario: the active inter-ISD link (core-1 <-> core-2b, the
  // fast detour SCION prefers) dies mid page load. The page must complete
  // entirely over SCION via the alternate path (core-1 <-> core-2a) with
  // zero legacy fallbacks, even though every far origin has an A record.
  SessionFixture fx(/*remote=*/true);
  std::vector<std::string> resources;
  for (int i = 0; i < 6; ++i) {
    const std::string path = "/img" + std::to_string(i) + ".png";
    fx.world->site("www.far.example")->add_blob(path, 60'000);
    resources.push_back(path);
  }
  fx.world->site("www.far.example")->add_text("/", browser::render_document(resources));
  ASSERT_TRUE(fx.world->schedule_chaos("at=150ms link-down core-1 core-2b").ok());

  browser::PageLoadResult page;
  bool done = false;
  fx.session->browser().load_page("http://www.far.example/", [&](browser::PageLoadResult r) {
    page = std::move(r);
    done = true;
  });
  fx.world->sim().run_until_condition([&] { return done; },
                                      fx.world->sim().now() + seconds(60));
  ASSERT_TRUE(done);

  EXPECT_TRUE(page.ok);
  EXPECT_EQ(page.failed, 0u);
  EXPECT_EQ(page.over_ip, 0u);
  EXPECT_EQ(page.over_scion, page.resources.size());
  for (const auto& resource : page.resources) {
    EXPECT_EQ(resource.transport, proxy::TransportUsed::kScion) << resource.url;
  }
  EXPECT_EQ(fx.session->proxy().metrics().counter_value("proxy.fallbacks"), 0u);
  EXPECT_GE(fx.session->proxy().metrics().counter_value("fault.link_down"), 1u);
}

TEST(ResilientProxy, StrictModeDegradesTo503WithRetryAfter) {
  // Both inter-ISD links die: strict mode must not hang and must not 502
  // instantly — it retries within the budget, then degrades to 503 with a
  // Retry-After so the client knows the condition is transient.
  proxy::ProxyConfig config;
  config.attempt_timeout = milliseconds(300);
  config.max_scion_retries = 2;
  SessionFixture fx(/*remote=*/true, config);
  fx.world->site("www.far.example")->add_text("/x", "unreachable");
  ASSERT_TRUE(fx.world
                  ->schedule_chaos(
                      "at=0ms link-down core-1 core-2a\n"
                      "at=0ms link-down core-1 core-2b")
                  .ok());

  const TimePoint t0 = fx.world->sim().now();
  const proxy::ProxyResult result = fx.fetch("http://www.far.example/x", /*strict=*/true);
  const Duration elapsed = fx.world->sim().now() - t0;

  EXPECT_EQ(result.response.status, 503);
  EXPECT_EQ(result.transport, proxy::TransportUsed::kBlocked);
  ASSERT_TRUE(result.response.headers.get("Retry-After").has_value());
  EXPECT_EQ(*result.response.headers.get("Retry-After"), "1");
  // Bounded: three attempts at ~300 ms each plus backoffs, nowhere near the
  // 15 s request deadline and certainly not a hang.
  EXPECT_LT(elapsed, seconds(5));
  const obs::MetricsRegistry& registry = fx.session->proxy().metrics();
  EXPECT_EQ(registry.counter_value("proxy.strict_unavailable"), 1u);
  EXPECT_EQ(registry.counter_value("proxy.fallbacks"), 0u);
  EXPECT_GE(registry.counter_value("proxy.scion_failures"), 1u);
}

TEST(ResilientProxy, ScionRetriesBackOffExponentially) {
  // Every SCION attempt toward the far origin fails (both inter-ISD links
  // are down), so a strict request walks the whole retry schedule: the n-th
  // backoff span lasts 40 ms * 2^(n-1), jittered by at most +/-20%.
  proxy::ProxyConfig config;
  config.attempt_timeout = milliseconds(300);
  config.max_scion_retries = 3;
  SessionFixture fx(/*remote=*/true, config);
  fx.world->site("www.far.example")->add_text("/x", "unreachable");
  ASSERT_TRUE(fx.world
                  ->schedule_chaos(
                      "at=0ms link-down core-1 core-2a\n"
                      "at=0ms link-down core-1 core-2b")
                  .ok());

  const proxy::ProxyResult result = fx.fetch("http://www.far.example/x", /*strict=*/true);
  EXPECT_EQ(result.response.status, 503);
  std::vector<Duration> backoffs;
  for (const obs::SpanRecord& span : result.spans) {
    if (span.name == "backoff") backoffs.push_back(span.duration);
  }
  ASSERT_EQ(backoffs.size(), 3u);
  for (std::size_t n = 0; n < backoffs.size(); ++n) {
    const double nominal_ms = 40.0 * static_cast<double>(1u << n);
    EXPECT_GE(backoffs[n].millis(), 0.8 * nominal_ms) << "backoff " << n + 1;
    EXPECT_LE(backoffs[n].millis(), 1.2 * nominal_ms) << "backoff " << n + 1;
  }
}

TEST(ResilientProxy, SlowLorisIsBoundedByAttemptTimeout) {
  // The origin accepts the request and then trickles: without the attempt
  // timer the fetch would sit for the full 120 s slow-loris delay. With it,
  // each attempt is cut at 250 ms and the request fails fast.
  proxy::ProxyConfig config;
  config.attempt_timeout = milliseconds(250);
  config.max_scion_retries = 1;
  SessionFixture fx(/*remote=*/false, config);
  fx.world->site("scion-fs.local")->add_text("/x", "drip");
  ASSERT_TRUE(fx.world->schedule_chaos("at=0ms origin-slow-loris scion-fs.local").ok());

  const TimePoint t0 = fx.world->sim().now();
  const proxy::ProxyResult result = fx.fetch("http://scion-fs.local/x");
  EXPECT_EQ(result.response.status, 502);
  EXPECT_LT(fx.world->sim().now() - t0, seconds(2));
  EXPECT_EQ(fx.session->proxy().metrics().counter_value("proxy.attempt_timeouts"), 2u);
}

TEST(ResilientProxy, CircuitBreakerTripsShortCircuitsAndRecovers) {
  proxy::ProxyConfig config;
  config.max_scion_retries = 0;  // one attempt per request: countable failures
  config.breaker_threshold = 2;
  config.breaker_open_ttl = milliseconds(500);
  SessionFixture fx(/*remote=*/false, config);
  fx.world->site("scion-fs.local")->add_text("/x", "recovered");
  ASSERT_TRUE(fx.world->schedule_chaos("at=0ms dur=1s origin-reset scion-fs.local").ok());

  // Two failing fetches trip the breaker.
  EXPECT_EQ(fx.fetch("http://scion-fs.local/x").response.status, 502);
  EXPECT_EQ(fx.fetch("http://scion-fs.local/x").response.status, 502);
  EXPECT_TRUE(fx.session->proxy().breaker().is_open("scion-fs.local"));

  // While open: no SCION attempt at all — fast 503 (SCION-only origin, so
  // nothing to fall back to).
  const TimePoint t0 = fx.world->sim().now();
  const proxy::ProxyResult shorted = fx.fetch("http://scion-fs.local/x");
  EXPECT_EQ(shorted.response.status, 503);
  EXPECT_EQ(shorted.scion_attempts, 0u);
  EXPECT_LT(fx.world->sim().now() - t0, milliseconds(1));
  EXPECT_EQ(fx.session->proxy().metrics().counter_value("proxy.breaker_short_circuits"), 1u);

  // Fault reverted and open_ttl elapsed: the half-open probe goes through
  // and closes the breaker.
  fx.world->sim().run_until(TimePoint{} + seconds(2));
  const proxy::ProxyResult probe = fx.fetch("http://scion-fs.local/x");
  EXPECT_EQ(probe.transport, proxy::TransportUsed::kScion);
  EXPECT_EQ(probe.response.status, 200);
  EXPECT_FALSE(fx.session->proxy().breaker().is_open("scion-fs.local"));
}

TEST(ResilientProxy, BreakerShortCircuitsToLegacyWhenAvailable) {
  // SCION attempts for this origin are doomed (the curated claim points at a
  // host with no QUIC listener, so every dial is abandoned by the attempt
  // timer), while its legacy face keeps working. After the breaker trips,
  // requests skip the doomed SCION attempt and go straight to IP.
  proxy::ProxyConfig config;
  config.max_scion_retries = 0;
  config.breaker_threshold = 2;
  config.attempt_timeout = milliseconds(200);
  SessionFixture fx(/*remote=*/false, config);
  fx.world->site("tcpip-fs.local")->add_text("/x", "legacy works");
  auto& topo = fx.world->topology();
  fx.session->proxy().detector().add_curated(
      "tcpip-fs.local", topo.scion_addr(topo.host_by_name("tcpip-fs")));

  // Two SCION-failing fetches (each falls back to IP and succeeds) trip the
  // breaker; the third skips SCION entirely and still succeeds over IP, fast.
  const proxy::ProxyResult first = fx.fetch("http://tcpip-fs.local/x");
  EXPECT_EQ(first.transport, proxy::TransportUsed::kIp);
  EXPECT_TRUE(first.fell_back);
  const proxy::ProxyResult second = fx.fetch("http://tcpip-fs.local/x");
  EXPECT_EQ(second.transport, proxy::TransportUsed::kIp);
  EXPECT_TRUE(fx.session->proxy().breaker().is_open("tcpip-fs.local"));

  const TimePoint t0 = fx.world->sim().now();
  const proxy::ProxyResult third = fx.fetch("http://tcpip-fs.local/x");
  EXPECT_EQ(third.transport, proxy::TransportUsed::kIp);
  EXPECT_EQ(third.scion_attempts, 0u);
  EXPECT_LT(fx.world->sim().now() - t0, milliseconds(50));
  EXPECT_GE(fx.session->proxy().metrics().counter_value("proxy.breaker_short_circuits"), 1u);
}

TEST(ResilientProxy, HealthEndpointExposesResilienceState) {
  proxy::ProxyConfig config;
  config.max_scion_retries = 0;
  config.breaker_threshold = 1;
  SessionFixture fx(/*remote=*/false, config);
  fx.world->site("scion-fs.local")->add_text("/x", "x");
  ASSERT_TRUE(fx.world->schedule_chaos("at=0ms dur=5s origin-reset scion-fs.local").ok());
  EXPECT_EQ(fx.fetch("http://scion-fs.local/x").response.status, 502);

  const proxy::ProxyResult health = fx.fetch("/skip/health");
  const std::string body(reinterpret_cast<const char*>(health.response.body.data()),
                         health.response.body.size());
  EXPECT_EQ(health.response.status, 200);
  EXPECT_NE(body.find("\"breaker\""), std::string::npos);
  EXPECT_NE(body.find("scion-fs.local"), std::string::npos);
  EXPECT_NE(body.find("\"open\""), std::string::npos);
  EXPECT_NE(body.find("\"quarantines\""), std::string::npos);
  EXPECT_NE(body.find("\"faults\""), std::string::npos);
  EXPECT_NE(body.find("fault.injected"), std::string::npos);

  const proxy::ProxyResult metrics = fx.fetch("/skip/metrics");
  const std::string metrics_body(
      reinterpret_cast<const char*>(metrics.response.body.data()),
      metrics.response.body.size());
  EXPECT_NE(metrics_body.find("fault.origin_reset"), std::string::npos);
}

TEST(ResilientProxy, RequestDeadlineCapsTotalBudget) {
  // The browser-threaded deadline bounds everything: with a 100 ms budget
  // and an origin that never answers, the proxy answers 504 at the deadline.
  proxy::ProxyConfig config;
  config.attempt_timeout = seconds(4);
  browser::BrowserConfig browser_config;
  browser_config.request_deadline = milliseconds(100);
  SessionFixture fx(/*remote=*/false, config, browser_config);
  fx.world->site("scion-fs.local")->add_text("/", "never arrives");
  ASSERT_TRUE(fx.world->schedule_chaos("at=0ms origin-slow-loris scion-fs.local").ok());

  const TimePoint t0 = fx.world->sim().now();
  browser::PageLoadResult page;
  bool done = false;
  fx.session->browser().load_page("http://scion-fs.local/", [&](browser::PageLoadResult r) {
    page = std::move(r);
    done = true;
  });
  fx.world->sim().run_until_condition([&] { return done; },
                                      fx.world->sim().now() + seconds(30));
  ASSERT_TRUE(done);
  EXPECT_FALSE(page.ok);
  EXPECT_EQ(page.resources[0].status, 504);
  // Settled at the 100 ms deadline (plus scheduling epsilon), not at the 30 s
  // page timeout.
  EXPECT_LT(fx.world->sim().now() - t0, milliseconds(500));
  EXPECT_EQ(fx.session->proxy().metrics().counter_value("proxy.timeouts"), 1u);
}

TEST(ResilientProxy, RetryRidesOutShortBackendReset) {
  // A brief backend reset burst behind the reverse proxy surfaces as 502s
  // over a healthy SCION path. The bounded retries (with backoff) outlast
  // the burst, so the request completes without the browser ever seeing the
  // error.
  SessionFixture fx(/*remote=*/true);
  fx.world->site("www.far.example")->add_text("/x", "rode it out");
  ASSERT_TRUE(
      fx.world->schedule_chaos("at=0ms dur=150ms origin-reset www.far.example").ok());
  fx.world->sim().run_until(fx.world->sim().now() + milliseconds(1));

  const proxy::ProxyResult result = fx.fetch("http://www.far.example/x");
  EXPECT_EQ(result.response.status, 200);
  EXPECT_EQ(result.transport, proxy::TransportUsed::kScion);
  EXPECT_GE(fx.session->proxy().metrics().counter_value("proxy.gateway_errors"), 1u);
  EXPECT_GE(fx.session->proxy().metrics().counter_value("proxy.retries"), 1u);
}

TEST(ResilientProxy, ReverseProxiedOriginRecoversAfterReset) {
  // Remote-world origins sit behind a SCION reverse proxy: an origin reset
  // truncates the *backend* leg, which the reverse proxy reports as a 502
  // over a perfectly healthy SCION path. Two things must hold:
  //   1. the client treats the gateway error as a retryable attempt failure
  //      (counted in proxy.gateway_errors), and
  //   2. the reverse proxy's backend pool retires the wedged HTTP/1
  //      connection (dead stream, open transport) instead of redispatching
  //      onto it forever — so the origin actually recovers once the fault
  //      lifts.
  SessionFixture fx(/*remote=*/true);
  fx.world->site("www.far.example")->add_text("/x", "back soon");
  ASSERT_TRUE(
      fx.world->schedule_chaos("at=0ms dur=2s origin-reset www.far.example").ok());
  fx.world->sim().run_until(fx.world->sim().now() + milliseconds(1));

  // During the fault every route to the origin is sick (the legacy fallback
  // hits the same truncating backend), so the fetch fails...
  const proxy::ProxyResult sick = fx.fetch("http://www.far.example/x");
  EXPECT_NE(sick.response.status, 200);
  EXPECT_GE(fx.session->proxy().metrics().counter_value("proxy.gateway_errors"), 1u);
  EXPECT_GE(fx.session->proxy().metrics().counter_value("proxy.retries"), 1u);

  // ...but after the fault lifts (and the breaker's open_ttl passes), the
  // half-open probe must find a freshly dialed backend connection, not the
  // permanently wedged one.
  fx.world->sim().run_until(fx.world->sim().now() + seconds(6));
  const proxy::ProxyResult recovered = fx.fetch("http://www.far.example/x");
  EXPECT_EQ(recovered.response.status, 200);
  EXPECT_EQ(recovered.transport, proxy::TransportUsed::kScion);
  EXPECT_FALSE(fx.session->proxy().breaker().is_open("www.far.example"));
}

// ---------------------------------------------------------- replica verbs --

TEST(FaultPlanParser, ParsesReplicaVerbs) {
  const auto plan = parse_fault_plan(
      "at=2s dur=1s replica-crash rep-0\n"
      "at=2500ms dur=500ms replica-hang rep-1\n"
      "at=4s replica-restart rep-2\n");
  ASSERT_TRUE(plan.ok()) << plan.error();
  ASSERT_EQ(plan.value().size(), 3u);

  const FaultEvent& crash = plan.value().events[0];
  EXPECT_EQ(crash.kind, FaultKind::kReplicaCrash);
  EXPECT_EQ(crash.a, "rep-0");
  EXPECT_EQ(crash.at, TimePoint{} + seconds(2));
  EXPECT_EQ(crash.duration, seconds(1));

  const FaultEvent& hang = plan.value().events[1];
  EXPECT_EQ(hang.kind, FaultKind::kReplicaHang);
  EXPECT_EQ(hang.a, "rep-1");
  EXPECT_EQ(hang.duration, milliseconds(500));

  const FaultEvent& restart = plan.value().events[2];
  EXPECT_EQ(restart.kind, FaultKind::kReplicaRestart);
  EXPECT_EQ(restart.a, "rep-2");
  EXPECT_EQ(restart.duration, Duration::zero());  // one-shot

  // The replica name is mandatory.
  const auto missing = parse_fault_plan("at=0ms replica-crash");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.error().find("line 1"), std::string::npos);
}

TEST(FaultInjector, ReplicaVerbsDriveTheFleet) {
  auto world = make_local_world();
  world->site("scion-fs.local")->add_text("/", "scion page");
  browser::FleetSession session(*world);
  proxy::ProxyCluster& cluster = session.cluster();

  ASSERT_TRUE(world
                  ->schedule_chaos(
                      "at=10ms dur=100ms replica-crash rep-0\n"
                      "at=10ms dur=100ms replica-hang rep-1\n"
                      "at=200ms replica-restart rep-2\n")
                  .ok());

  // t=50ms: the crash is active — rep-0 is a dead process.
  world->sim().run_until(world->sim().now() + milliseconds(50));
  EXPECT_EQ(cluster.replica_health("rep-0"), proxy::ReplicaHealth::kDown);
  EXPECT_EQ(cluster.replica("rep-0"), nullptr);
  EXPECT_EQ(world->injector().active_count(), 2u);

  // t=150ms: crash and hang reverted — rep-0 revived, rep-1 unwedged.
  world->sim().run_until(world->sim().now() + milliseconds(100));
  EXPECT_EQ(cluster.replica_health("rep-0"), proxy::ReplicaHealth::kHealthy);
  EXPECT_NE(cluster.replica("rep-0"), nullptr);
  EXPECT_EQ(world->injector().reverted(), 2u);

  // t=250ms: the one-shot restart bounced rep-2.
  world->sim().run_until(world->sim().now() + milliseconds(100));
  const proxy::FleetStats stats = cluster.stats();
  EXPECT_EQ(stats.crashes, 2u);        // replica-crash + replica-restart's crash
  EXPECT_EQ(stats.restarts_warm, 2u);  // the revive + the restart

  // FleetSession pointed the injector at the cluster registry, so the
  // per-kind fault counters land next to the fleet.* ones.
  obs::MetricsRegistry& metrics = cluster.metrics();
  EXPECT_EQ(metrics.counter_value("fault.replica_crash"), 1u);
  EXPECT_EQ(metrics.counter_value("fault.replica_hang"), 1u);
  EXPECT_EQ(metrics.counter_value("fault.replica_restart"), 1u);
  EXPECT_EQ(world->injector().injected(), 3u);

  // The fleet still serves after the chaos.
  EXPECT_EQ(session.fetch("http://scion-fs.local/", /*strict=*/true).response.status, 200);
}

}  // namespace
}  // namespace pan::fault
