// Byte-for-byte pins of every /skip/* and /skip/fleet* control body. One
// seeded remote world with a fault plan (an inter-ISD link cut and a crashed
// replica), a 4-replica fleet, a second identity, a two-access bundle on the
// replica that answers control requests, and a hostile origin name. Each
// body's SHA-256 must equal its recorded digest, and a mismatch prints the
// body: change a digest only together with a deliberate change of its body.
//
// Trace ids, retry-jitter seeds and connection ids are drawn from the world
// (sim::Simulator::next_id), so the bodies must not depend on what the
// process ran before: ctest also runs this binary three times over,
// shuffled (control_bodies_repeat).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/scenarios.hpp"
#include "crypto/sha256.hpp"
#include "proxy/cluster.hpp"
#include "proxy/identity.hpp"

namespace pan::browser {
namespace {

std::string body_of(const proxy::ProxyResult& result) {
  return std::string(reinterpret_cast<const char*>(result.response.body.data()),
                     result.response.body.size());
}

struct ControlWorld {
  std::unique_ptr<World> world;
  std::unique_ptr<FleetSession> session;

  ControlWorld() {
    WorldConfig config;
    config.multi_access = true;
    world = make_remote_world(config);
    world->site("www.far.example")->add_text("/", "far page");
    world->site("www.near.example")->add_text("/", "near page");
    session = std::make_unique<FleetSession>(*world);
    // rep-0 answers every forwarded /skip/* request: give it the fault
    // counters and a second access so /skip/health and /skip/access carry
    // real state.
    proxy::SkipProxy& rep0 = *session->cluster().replica("rep-0");
    world->injector().set_metrics(&rep0.metrics());
    scion::Topology& topo = world->topology();
    rep0.add_access("lte", topo.host(*world->client_lte), topo.scion_stack(*world->client_lte),
                    topo.daemon_for(*world->client_lte));
  }

  /// Sends one request through the cluster front, or straight to rep-0 when
  /// `direct` is set, and runs the sim until it answers.
  proxy::ProxyResult fetch(const std::string& target, const std::string& method = "GET",
                           const std::string& identity = "", bool direct = false) {
    http::HttpRequest request;
    request.method = method;
    request.target = target;
    if (!identity.empty()) request.headers.set(std::string(proxy::kIdentityHeader), identity);
    proxy::ProxyResult out;
    bool done = false;
    auto on_result = [&](proxy::ProxyResult r) {
      out = std::move(r);
      done = true;
    };
    if (direct) {
      session->cluster().replica("rep-0")->fetch(std::move(request), {}, on_result);
    } else {
      session->cluster().fetch(std::move(request), {}, on_result);
    }
    sim::Simulator& sim = world->sim();
    sim.run_until_condition([&] { return done; }, sim.now() + seconds(120));
    EXPECT_TRUE(done) << method << " " << target;
    return out;
  }
  proxy::ProxyResult direct(const std::string& target, const std::string& identity = "") {
    return fetch(target, "GET", identity, /*direct=*/true);
  }
};

struct Pinned {
  const char* method;
  const char* target;
  int status;
  const char* sha256;
};

TEST(ControlBodies, EveryEndpointMatchesItsRecordedDigest) {
  ControlWorld w;
  ASSERT_TRUE(w.world
                  ->schedule_chaos("at=300ms dur=1500ms link-down core-1 core-2b\n"
                                   "at=200ms replica-crash rep-3\n"
                                   "at=4s link-down core-1 core-2b\n"
                                   "at=4s origin-reset www.near.example\n")
                  .ok());
  for (int i = 0; i < 2; ++i) {
    w.fetch("http://www.far.example/");
    w.fetch("http://www.near.example/");
  }
  w.direct("http://www.far.example/");
  w.direct("http://www.near.example/");
  w.direct("http://www.far.example/", "alice");
  w.direct("ev\"il.local");
  w.fetch("ev\"il.local");
  // Inside the first link cut: SCION retries and reroutes.
  w.world->sim().run_until(TimePoint{} + milliseconds(500));
  w.direct("http://www.far.example/");
  w.direct("http://www.far.example/", "alice");
  w.fetch("http://www.far.example/");
  w.world->sim().run_until(TimePoint{} + seconds(4));
  w.fetch("http://www.far.example/");
  // Second cut plus a resetting origin: an open breaker and a cooling-down
  // pool that are still live when the endpoints are read.
  for (int i = 0; i < 3; ++i) {
    w.direct("http://www.far.example/");
    w.direct("http://www.near.example/");
  }

  // A retained trace id for /skip/trace/<id>, read off /skip/traces.
  const std::string traces = body_of(w.fetch("/skip/traces"));
  const std::size_t at = traces.find("\"trace\":\"0x");
  ASSERT_NE(at, std::string::npos) << traces;
  const std::string trace_id =
      std::to_string(std::stoull(traces.substr(at + 11, 16), nullptr, 16));

  const Pinned pinned[] = {
      {"GET", "/skip/ping", 200,
       "4062edaf750fb8074e7e83e0c9028c94e32468a8b6f1614774328ef045150f93"},
      {"GET", "/skip/metrics", 200,
       "7277682130d2c88c8f662a9a93fc25542a281cd337c9cfeae335652d83e44566"},
      {"GET", "/skip/metrics?prefix=proxy.", 200,
       "8df13ecfee18b15cd24c1ea0d1a048277a5e26bfeaf7257104a42fd6fe09a92c"},
      {"GET", "/skip/metrics?window=1000", 200,
       "afe86df0eef2233e402812fee2bf2faea02b895971970d8629c616322c25154f"},
      {"GET", "/skip/metrics?window=2000&prefix=overload.", 200,
       "97ad83f3607bf06b317625e6884f5c9c82d82f311f13ecabd7f4a9f1a77b9afb"},
      {"GET", "/skip/metrics?window=banana", 400,
       "a63f2ede999eaf0b37cd2cad5fc3c218f791aac2a5858f2e80da4e61480f97b6"},
      {"GET", "/skip/metrics.prom?prefix=proxy.requests", 200,
       "19b98c2c39fcf79ad63466ece9e01bcdff6b3528d76046eddf8cd27dc72c57eb"},
      {"GET", "/skip/pool", 200,
       "555f13e8face3242de2c8bbd766c783250cecff59a9df1d027be2e31e4068d8c"},
      {"GET", "/skip/health", 200,
       "f67d549d748425afe9b4ec356602f66be686fcb9ffff1369f87e1eb3de0934c9"},
      {"GET", "/skip/traces", 200,
       "2bd109232d9208dd39efb2723bdfa37540554658a75fba9de633ba00be3dd87e"},
      {"GET", "/skip/trace/1", 404,
       "d8ba2bfe17638a6841f46099fa193139b48e3bd11d169448a10aabcd58232915"},
      {"GET", "/skip/access", 200,
       "e9e9fb276eaab8eef1d55aa4decccfbb0583b3c84eb5cb298cb1c0bbfa9e0a95"},
      {"GET", "/skip/identity", 200,
       "e8cc7ac375d5bf0bf5a76fa03d674242244e5ec888f9b0b47f54a9b7b02e287b"},
      {"GET", "/skip/identity/rotate/alice", 200,
       "f89bdb3a2b7703fb9c40e544e38caac702d4ad472ec7cd8da81d5429853e3b29"},
      {"GET", "/skip/identity", 200,
       "ece70b1b9c0372f04ccdbe47cdedeef451c7aaabaf154d7c36c38c5b46cb315e"},
      {"GET", "/skip/debug", 200,
       "39436e11bc072e3c2356b71cdce5ef14ffb78c9aa9c0e47a84be5191527f3906"},
      {"POST", "/skip/metrics", 405,
       "c6ee5ac5e3d4aaf26c2cd86f3731df2a5f2b0b40f1455985ff343f09c89bf6b0"},
      {"HEAD", "/skip/trace/1", 405,
       "1040f29dfb8ec2f0d7de90aa6c1612b3a13392b287ce97f1552190c35283cf84"},
      {"GET", "/skip/nonexistent?x=1", 404,
       "265900a3add3cd4bc76af81a8ea6b11d99a130c3cdb8eb6afcded5fc629191df"},
      {"GET", "/skip/fleet", 200,
       "0170ef4ac6a2295d9181f2bb5eed3163963a9ee3b4665759d3325a45d1da20c7"},
      {"GET", "/skip/fleet/metrics", 200,
       "00ba47c72df913fffdfcbcf08a1a78bf1abeedcb4ef4be0bf18275229d19427b"},
      {"GET", "/skip/fleet/metrics?prefix=fleet.", 200,
       "fe33dca56e9af89e203d621ab60976668e110dc35ec561ca91e313288f7a3540"},
      {"GET", "/skip/fleet/metrics?window=1000", 200,
       "53a79a6d95db5d0962f0e8ae44cc4da0e1359c69a5eb639e3c39f02ac1e97abd"},
      {"GET", "/skip/fleet/metrics?window=x", 400,
       "47a011cdf1d605a884d19281c7ef6daf337f57b4420b092744ddae2f784e0746"},
      {"GET", "/skip/fleet/metrics.prom?prefix=fleet.requests", 200,
       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"POST", "/skip/fleet", 405,
       "c6ee5ac5e3d4aaf26c2cd86f3731df2a5f2b0b40f1455985ff343f09c89bf6b0"},
      {"GET", "/skip/fleet/nonexistent", 404,
       "db7d350b4bf570afa591d8267b097da8e7709fe682e1688d7bb043bca7d1709b"},
  };
  for (const Pinned& p : pinned) {
    const proxy::ProxyResult result = w.fetch(p.target, p.method);
    const std::string body = body_of(result);
    EXPECT_EQ(result.response.status, p.status) << p.method << " " << p.target;
    EXPECT_EQ(crypto::hex_digest(crypto::sha256(body)), p.sha256)
        << p.method << " " << p.target << " body:\n"
        << body;
  }

  const proxy::ProxyResult trace = w.fetch("/skip/trace/" + trace_id);
  EXPECT_EQ(trace.response.status, 200);
  EXPECT_EQ(crypto::hex_digest(crypto::sha256(body_of(trace))),
            "efe5583241af0740d455cf8fb9070aec56cf53ad9a0c28b649343703f879ac3c")
      << "/skip/trace/" << trace_id << " body:\n"
      << body_of(trace);
}

}  // namespace
}  // namespace pan::browser
