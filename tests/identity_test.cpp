// Per-identity network isolation: the IdentityPathBroker's circuit-style
// disjoint path assignment, identity-keyed connection pooling, rotation,
// collision fallback accounting, per-identity policies, the /skip/identity
// endpoint, and the browser-side cache partition. The property suite runs
// randomized interleavings of identities x origins under fault plans and
// checks the isolation invariant: two identities toward the same origin
// share a path fingerprint only when the broker recorded a collision.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/scenarios.hpp"
#include "ppl/parser.hpp"
#include "util/rng.hpp"

namespace pan::proxy {
namespace {

using browser::BrowserConfig;
using browser::ClientSession;
using browser::make_local_world;
using browser::make_remote_world;
using browser::PageLoadResult;
using browser::World;

struct IdentityFixture {
  std::unique_ptr<World> world;
  std::unique_ptr<dns::Resolver> resolver;
  std::unique_ptr<SkipProxy> proxy;

  explicit IdentityFixture(ProxyConfig config = {}) {
    world = make_remote_world();
    auto& topo = world->topology();
    resolver = std::make_unique<dns::Resolver>(world->sim(), world->zone(), dns::ResolverConfig{});
    proxy = std::make_unique<SkipProxy>(world->sim(), topo.host(world->client),
                                        topo.scion_stack(world->client),
                                        topo.daemon_for(world->client), *resolver, config);
  }

  /// Submits without running the simulator, so tests can put several
  /// identities' requests in flight at the same instant.
  void fetch_async(const std::string& url, const std::string& identity,
                   std::function<void(ProxyResult)> on_result) {
    http::HttpRequest request;
    request.target = url;
    if (!identity.empty()) {
      request.headers.set(std::string(kIdentityHeader), identity);
    }
    proxy->fetch(std::move(request), {}, std::move(on_result));
  }

  ProxyResult fetch(const std::string& url, const std::string& identity = {}) {
    ProxyResult out;
    bool done = false;
    fetch_async(url, identity, [&](ProxyResult r) {
      out = std::move(r);
      done = true;
    });
    world->sim().run_until_condition([&] { return done; },
                                     world->sim().now() + seconds(60));
    EXPECT_TRUE(done);
    return out;
  }

  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    const auto* c = proxy->metrics().find_counter(name);
    return c == nullptr ? 0 : c->value();
  }

  /// Takes down the core-1 -> core-2b link that carries the two fastest
  /// client -> server-as paths (same maneuver as the SCMP failover tests).
  /// Returns the (AS, egress interface) that died, as seen from core-1.
  std::pair<scion::IsdAsn, scion::IfaceId> kill_fast_link() {
    auto& topo = world->topology();
    const auto server = topo.host_by_name("far-www");
    const auto paths = topo.daemon_for(world->client).query_now(topo.as_of(server));
    const scion::IsdAsn c1 = topo.as_by_name("core-1");
    const scion::IsdAsn c2b = topo.as_by_name("core-2b");
    for (const scion::Path& path : paths) {
      const auto& hops = path.hops();
      for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
        // The hop at core-1 whose next hop is core-2b: that egress is the
        // fast link.
        if (hops[i].isd_as != c1 || hops[i + 1].isd_as != c2b) continue;
        const net::IfId net_if = scion::BorderRouter::to_net_if(hops[i].egress);
        auto& network = topo.network();
        for (net::NodeId node = 0; node < network.node_count(); ++node) {
          if (network.node_name(node) == "br-core-1") {
            network.set_link_up(node, net_if, false);
            return {c1, hops[i].egress};
          }
        }
      }
    }
    ADD_FAILURE() << "fast link not found";
    return {scion::IsdAsn{}, 0};
  }

  /// Fingerprints of every client -> server-as path that does not cross the
  /// given (AS, egress interface) — the paths that survive its link cut.
  [[nodiscard]] std::set<std::string> fingerprints_surviving(scion::IsdAsn ia,
                                                             scion::IfaceId iface) {
    auto& topo = world->topology();
    std::set<std::string> out;
    for (const scion::Path& path : topo.daemon_for(world->client)
                                       .query_now(topo.as_by_name("server-as"))) {
      if (!path.uses_interface(ia, iface)) out.insert(path.fingerprint());
    }
    return out;
  }

  /// Fingerprints of every client -> server-as path avoiding `as_name`.
  [[nodiscard]] std::set<std::string> fingerprints_avoiding(const std::string& as_name) {
    auto& topo = world->topology();
    const scion::IsdAsn avoid = topo.as_by_name(as_name);
    std::set<std::string> out;
    for (const scion::Path& path : topo.daemon_for(world->client)
                                       .query_now(topo.as_by_name("server-as"))) {
      const auto& hops = path.hops();
      if (std::any_of(hops.begin(), hops.end(),
                      [&](const scion::PathHop& h) { return h.isd_as == avoid; })) {
        continue;
      }
      out.insert(path.fingerprint());
    }
    return out;
  }
};

// Three identities hitting the same origin at the same instant must come
// back on three distinct paths and three distinct pooled connections — the
// broker enforces disjointness at selection time, and the pools are keyed
// by (identity, origin).
TEST(IdentityIsolationTest, ConcurrentIdentitiesGetDisjointPathsAndPools) {
  IdentityFixture fx;
  fx.world->site("www.far.example")->add_text("/x", "far content");

  const std::vector<std::string> ids = {"alice", "bob", "carol"};
  std::map<std::string, ProxyResult> results;
  std::size_t done = 0;
  for (const std::string& id : ids) {
    fx.fetch_async("http://www.far.example/x", id, [&, id](ProxyResult r) {
      results[id] = std::move(r);
      ++done;
    });
  }
  fx.world->sim().run_until_condition([&] { return done == ids.size(); },
                                      fx.world->sim().now() + seconds(60));
  ASSERT_EQ(done, ids.size());

  std::set<std::string> fingerprints;
  for (const std::string& id : ids) {
    const ProxyResult& r = results[id];
    EXPECT_EQ(r.transport, TransportUsed::kScion) << id;
    EXPECT_EQ(r.identity, id);
    ASSERT_FALSE(r.path_fingerprint.empty()) << id;
    fingerprints.insert(r.path_fingerprint);
  }
  // All three fingerprints distinct and no collision fallback was needed
  // (the remote world has four paths for three identities).
  EXPECT_EQ(fingerprints.size(), ids.size());
  EXPECT_EQ(fx.counter("identity.path_collisions"), 0u);

  // One pooled connection per identity, under the identity-scoped key, each
  // pinned to that identity's brokered path.
  const auto pool = fx.proxy->scion_pool_snapshot();
  ASSERT_EQ(pool.size(), ids.size());
  std::set<std::string> keys;
  for (const auto& origin : pool) {
    keys.insert(origin.key);
    const std::string id = identity_of_key(origin.key);
    ASSERT_TRUE(results.contains(id)) << origin.key;
    EXPECT_EQ(origin.path_fingerprint, results[id].path_fingerprint) << origin.key;
  }
  EXPECT_TRUE(keys.contains("alice|www.far.example"));
  EXPECT_TRUE(keys.contains("bob|www.far.example"));
  EXPECT_TRUE(keys.contains("carol|www.far.example"));

  // The broker ledger agrees with what the requests actually used.
  for (const std::string& id : ids) {
    const NetworkIdentity* ident = fx.proxy->identities().find(id);
    ASSERT_NE(ident, nullptr) << id;
    ASSERT_TRUE(ident->assignments().contains("www.far.example")) << id;
    EXPECT_EQ(ident->assignments().at("www.far.example"), results[id].path_fingerprint);
  }
}

// More identities than paths: isolation degrades, never hangs. Every fetch
// still succeeds, and each doubled-up assignment is recorded in
// `identity.path_collisions`.
TEST(IdentityIsolationTest, PathSpaceExhaustionFallsBackWithCollisionRecorded) {
  IdentityFixture fx;
  fx.world->site("www.far.example")->add_text("/x", "far content");

  // The remote world has exactly four client -> server-as paths.
  const std::size_t path_count =
      fx.world->topology()
          .daemon_for(fx.world->client)
          .query_now(fx.world->topology().as_by_name("server-as"))
          .size();
  ASSERT_EQ(path_count, 4u);

  std::set<std::string> fingerprints;
  for (int i = 0; i < 6; ++i) {
    const std::string id = "tab-" + std::to_string(i);
    const ProxyResult r = fx.fetch("http://www.far.example/x", id);
    EXPECT_EQ(r.transport, TransportUsed::kScion) << id;
    ASSERT_FALSE(r.path_fingerprint.empty()) << id;
    fingerprints.insert(r.path_fingerprint);
  }
  // The first four identities exhaust the path set; the remaining two must
  // share and be counted as collisions.
  EXPECT_EQ(fingerprints.size(), path_count);
  EXPECT_GE(fx.counter("identity.path_collisions"), 2u);
  EXPECT_GE(fx.counter("selector.exclusion_fallbacks"), 2u);
}

// rotate_paths(): the rotated identity is re-brokered onto a path disjoint
// from both its own quarantined fingerprint and every other identity's live
// assignment; other identities are untouched.
TEST(IdentityIsolationTest, RotationRebrokersWithoutPerturbingOthers) {
  IdentityFixture fx;
  fx.world->site("www.far.example")->add_text("/x", "far content");

  const ProxyResult alice1 = fx.fetch("http://www.far.example/x", "alice");
  const ProxyResult bob1 = fx.fetch("http://www.far.example/x", "bob");
  ASSERT_EQ(alice1.transport, TransportUsed::kScion);
  ASSERT_EQ(bob1.transport, TransportUsed::kScion);
  ASSERT_NE(alice1.path_fingerprint, bob1.path_fingerprint);

  // Rotation via the control endpoint (also exercises the origin-form
  // /skip/ routing).
  const ProxyResult rotated = fx.fetch("/skip/identity/rotate/alice");
  EXPECT_EQ(rotated.transport, TransportUsed::kInternal);
  EXPECT_NE(to_string_view_copy(rotated.response.body).find("\"rotated\":\"alice\""),
            std::string_view::npos);

  const NetworkIdentity* alice = fx.proxy->identities().find("alice");
  ASSERT_NE(alice, nullptr);
  EXPECT_EQ(alice->stats().rotations, 1u);
  EXPECT_TRUE(alice->assignments().empty());
  EXPECT_TRUE(alice->is_quarantined(alice1.path_fingerprint, fx.world->sim().now()));

  // The rotation itself leaves bob's assignment untouched.
  const NetworkIdentity* bob = fx.proxy->identities().find("bob");
  ASSERT_NE(bob, nullptr);
  ASSERT_TRUE(bob->assignments().contains("www.far.example"));
  EXPECT_EQ(bob->assignments().at("www.far.example"), bob1.path_fingerprint);

  // Alice re-brokers onto a fresh path: not her quarantined one, not bob's
  // live one.
  const ProxyResult alice2 = fx.fetch("http://www.far.example/x", "alice");
  ASSERT_EQ(alice2.transport, TransportUsed::kScion);
  EXPECT_NE(alice2.path_fingerprint, alice1.path_fingerprint);
  EXPECT_NE(alice2.path_fingerprint, bob1.path_fingerprint);
  EXPECT_EQ(fx.counter("identity.path_collisions"), 0u);

  // Bob's next request may re-optimize (alice's rotation freed the fastest
  // path), but it must stay disjoint from alice — and off her quarantined
  // fingerprint's owner ledger without colliding.
  const ProxyResult bob2 = fx.fetch("http://www.far.example/x", "bob");
  ASSERT_EQ(bob2.transport, TransportUsed::kScion);
  EXPECT_NE(bob2.path_fingerprint, alice2.path_fingerprint);
  EXPECT_EQ(fx.counter("identity.path_collisions"), 0u);

  // The quarantine is visible at the endpoint.
  const ProxyResult snapshot = fx.fetch("/skip/identity");
  const std::string body{to_string_view_copy(snapshot.response.body)};
  EXPECT_NE(body.find("\"quarantined\":1"), std::string::npos);
  EXPECT_NE(body.find("\"rotations\":1"), std::string::npos);
}

// GET /skip/identity reports per-identity stats, live assignments, and the
// audit trail.
TEST(IdentityIsolationTest, IdentityEndpointReportsStatsAndAudit) {
  IdentityFixture fx;
  fx.world->site("www.far.example")->add_text("/x", "far content");
  const ProxyResult r = fx.fetch("http://www.far.example/x", "alice");
  ASSERT_EQ(r.transport, TransportUsed::kScion);

  const ProxyResult snapshot = fx.fetch("/skip/identity");
  EXPECT_EQ(snapshot.transport, TransportUsed::kInternal);
  EXPECT_EQ(snapshot.response.headers.get("Content-Type"), "application/json");
  const std::string body{to_string_view_copy(snapshot.response.body)};
  EXPECT_NE(body.find("\"id\":\"alice\""), std::string::npos);
  EXPECT_NE(body.find("\"requests\":1"), std::string::npos);
  EXPECT_NE(body.find("\"over_scion\":1"), std::string::npos);
  EXPECT_NE(body.find("\"assignments\":{\"www.far.example\":\"" + r.path_fingerprint + "\"}"),
            std::string::npos);
  EXPECT_NE(body.find("\"event\":\"created\""), std::string::npos);
  EXPECT_NE(body.find("\"event\":\"assign\""), std::string::npos);
}

// X-Skip-Identity values are sanitized before they become pool/cache keys:
// '|' (the scope separator) and friends can never leak in from the wire.
TEST(IdentityIsolationTest, IdentityHeaderIsSanitized) {
  IdentityFixture fx;
  fx.world->site("www.far.example")->add_text("/x", "far content");
  const ProxyResult r = fx.fetch("http://www.far.example/x", "We!rd/Id|x");
  EXPECT_EQ(r.identity, "We-rd-Id-x");
  ASSERT_NE(fx.proxy->identities().find("We-rd-Id-x"), nullptr);
  const auto pool = fx.proxy->scion_pool_snapshot();
  ASSERT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.front().key, "We-rd-Id-x|www.far.example");
}

// Per-identity PPL policies: alice's "avoid core-2b" steers only her
// traffic; the default identity still takes the fast detour.
TEST(IdentityIsolationTest, IdentityPoliciesSteerOnlyThatIdentity) {
  IdentityFixture fx;
  fx.world->site("www.far.example")->add_text("/x", "far content");
  fx.proxy->set_identity_policies(
      "alice", ppl::PolicySet{{ppl::parse_policy(
                   "policy { acl { deny 2-ff00:0:220; allow *; } }").value()}});

  // Only one of the four paths avoids the core-2b AS entirely
  // (core-1 -> core-2a -> server-as); the policy pins alice to it.
  const std::set<std::string> avoid_2b = fx.fingerprints_avoiding("core-2b");
  ASSERT_EQ(avoid_2b.size(), 1u);

  const ProxyResult plain = fx.fetch("http://www.far.example/x");
  ASSERT_EQ(plain.transport, TransportUsed::kScion);
  // The shared default identity prefers the fast detour through core-2b.
  EXPECT_FALSE(avoid_2b.contains(plain.path_fingerprint));

  const ProxyResult alice = fx.fetch("http://www.far.example/x", "alice");
  ASSERT_EQ(alice.transport, TransportUsed::kScion);
  EXPECT_TRUE(alice.policy_compliant);
  EXPECT_TRUE(avoid_2b.contains(alice.path_fingerprint));
}

// Fault-injected path loss mid-transfer: both identities' connections
// migrate off the dead link, and the migrations re-broker disjointly — the
// two survivors never converge onto one path.
TEST(IdentityIsolationTest, DisjointnessHoldsAcrossLinkCutMigration) {
  IdentityFixture fx;
  fx.world->site("www.far.example")->add_blob("/big.bin", 400'000);

  std::map<std::string, ProxyResult> results;
  std::size_t done = 0;
  for (const std::string id : {"alice", "bob"}) {
    fx.fetch_async("http://www.far.example/big.bin", id, [&, id](ProxyResult r) {
      results[id] = std::move(r);
      ++done;
    });
  }
  // Let both transfers get going, then cut the fast link mid-flight.
  fx.world->sim().run_until(fx.world->sim().now() + milliseconds(150));
  ASSERT_LT(done, 2u);
  const auto [dead_as, dead_if] = fx.kill_fast_link();
  const std::set<std::string> survivors = fx.fingerprints_surviving(dead_as, dead_if);
  ASSERT_EQ(survivors.size(), 2u);
  fx.world->sim().run_until_condition([&] { return done == 2; },
                                      fx.world->sim().now() + seconds(120));
  ASSERT_EQ(done, 2u);
  for (const auto& [id, r] : results) {
    EXPECT_EQ(r.transport, TransportUsed::kScion) << id;
    EXPECT_EQ(r.response.body.size(), 400'000u) << id;
    // The reported fingerprint is the path the connection ended up on,
    // which after the cut must be one of the two core-2a survivors.
    EXPECT_TRUE(survivors.contains(r.path_fingerprint)) << id << " on " << r.path_fingerprint;
  }
  EXPECT_NE(results["alice"].path_fingerprint, results["bob"].path_fingerprint);
  EXPECT_EQ(fx.counter("identity.path_collisions"), 0u);
  EXPECT_GE(fx.proxy->metrics().counter_value("proxy.scmp_reroutes"), 1u);
}

// Property suite: randomized interleavings of identities x origins across
// several rounds, with a transient link-down fault in the middle. The
// isolation invariant: per origin, a fingerprint shared by two identities
// implies the broker counted a collision — disjointness is enforced or
// accounted, never silently lost.
TEST(IdentityPropertyTest, RandomizedInterleavingsPreserveIsolation) {
  for (const std::uint64_t seed : {11u, 42u}) {
    IdentityFixture fx;
    fx.world->site("www.far.example")->add_text("/x", "far content");
    fx.world->site("static.far.example")->add_text("/x", "static content");
    ASSERT_TRUE(fx.world
                    ->schedule_chaos("at=400ms dur=2s link-down core-1 core-2b")
                    .ok());

    Rng rng(seed);
    const std::vector<std::string> ids = {"alice", "bob", "carol", "dave"};
    const std::vector<std::string> urls = {"http://www.far.example/x",
                                           "http://static.far.example/x"};
    for (int round = 0; round < 4; ++round) {
      // A random subset of (identity, origin) pairs, submitted concurrently
      // in random order.
      std::vector<std::pair<std::string, std::string>> batch;
      for (const std::string& id : ids) {
        for (const std::string& url : urls) {
          if (rng.next_below(3) > 0) batch.emplace_back(id, url);
        }
      }
      for (std::size_t i = batch.size(); i > 1; --i) {
        std::swap(batch[i - 1], batch[rng.next_below(i)]);
      }
      std::size_t done = 0;
      std::size_t succeeded = 0;
      for (const auto& [id, url] : batch) {
        fx.fetch_async(url, id, [&](ProxyResult r) {
          ++done;
          if (r.response.status == 200) ++succeeded;
        });
      }
      fx.world->sim().run_until_condition([&] { return done == batch.size(); },
                                          fx.world->sim().now() + seconds(120));
      ASSERT_EQ(done, batch.size()) << "seed " << seed << " round " << round;
      EXPECT_EQ(succeeded, batch.size()) << "seed " << seed << " round " << round;

      // Invariant check against the broker ledger.
      std::map<std::string, std::map<std::string, std::size_t>> holders;  // origin -> fp -> #ids
      for (const std::string& id : ids) {
        const NetworkIdentity* ident = fx.proxy->identities().find(id);
        if (ident == nullptr) continue;
        for (const auto& [origin, fp] : ident->assignments()) ++holders[origin][fp];
      }
      std::size_t duplicated = 0;
      for (const auto& [origin, by_fp] : holders) {
        for (const auto& [fp, count] : by_fp) {
          if (count > 1) ++duplicated;
        }
      }
      if (duplicated > 0) {
        EXPECT_GT(fx.counter("identity.path_collisions"), 0u)
            << "seed " << seed << " round " << round;
      }
    }
    // Pool keys never mix identities: every non-default key is scoped.
    for (const auto& origin : fx.proxy->scion_pool_snapshot()) {
      EXPECT_NE(origin.key.find('|'), std::string::npos) << origin.key;
    }
  }
}

// The browser side of the partition: switching a browser's identity makes
// its own HTTP cache miss — one identity's cached bodies (and ETag
// revalidations) are invisible to another.
TEST(IdentityIsolationTest, BrowserCacheIsIdentityPartitioned) {
  auto world = make_local_world();
  world->site("scion-fs.local")->add_text("/data", "cacheable payload");
  BrowserConfig config;
  config.enable_cache = true;
  ClientSession session(*world, {}, config);

  const PageLoadResult cold = session.load("http://scion-fs.local/data");
  ASSERT_TRUE(cold.ok);
  EXPECT_FALSE(cold.resources[0].from_cache);

  const PageLoadResult warm = session.load("http://scion-fs.local/data");
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.resources[0].from_cache);

  // Same browser, new identity: the cache entry belongs to the default
  // identity and must not serve (or revalidate) for "work".
  session.browser().set_identity("work");
  const PageLoadResult other = session.load("http://scion-fs.local/data");
  ASSERT_TRUE(other.ok);
  EXPECT_FALSE(other.resources[0].from_cache);

  // Flipping back, the default identity's entry is still warm.
  session.browser().set_identity("");
  const PageLoadResult back = session.load("http://scion-fs.local/data");
  ASSERT_TRUE(back.ok);
  EXPECT_TRUE(back.resources[0].from_cache);
}

}  // namespace
}  // namespace pan::proxy
