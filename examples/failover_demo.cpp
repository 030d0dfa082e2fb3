// Fast failover: SCMP path revocation + live QUIC path migration.
//
// A large download is in flight over the best SCION path when the core link
// it uses goes down. The border router that hits the dead link sends an
// SCMP report back over the reversed path prefix; the SKIP proxy revokes the
// broken interface and migrates the live connection onto an alternate path;
// transport-level loss recovery redelivers everything that was in flight.
// The download completes without any IP fallback — multipath as resilience,
// the flip side of the paper's multipath-as-choice story.
#include <cstdio>

#include "core/scenarios.hpp"
#include "scion/scmp.hpp"
#include "util/log.hpp"

using namespace pan;

int main() {
  Logger::set_level(LogLevel::kWarn);
  auto world = browser::make_remote_world();
  world->site("www.far.example")->add_blob("/dataset.bin", 500'000);
  auto& topo = world->topology();

  dns::Resolver resolver(world->sim(), world->zone(), {});
  proxy::SkipProxy proxy(world->sim(), topo.host(world->client),
                         topo.scion_stack(world->client), topo.daemon_for(world->client),
                         resolver);

  // Narrate SCMP activity.
  topo.scion_stack(world->client).subscribe_scmp([&](const scion::ScmpMessage& m) {
    std::printf("  [%7.1f ms] %s\n", world->sim().now().millis(), m.to_string().c_str());
  });

  std::printf("downloading 500 kB from www.far.example over SCION...\n");
  http::HttpRequest request;
  request.target = "http://www.far.example/dataset.bin";
  bool done = false;
  proxy::ProxyResult result;
  proxy.fetch(request, {}, [&](proxy::ProxyResult r) {
    result = std::move(r);
    done = true;
  });

  // Let the transfer get going, then cut the fast core link (core-1 to
  // core-2b) that the best path uses.
  world->sim().run_until(world->sim().now() + milliseconds(150));
  const auto paths = topo.daemon_for(world->client).query_now(topo.as_by_name("server-as"));
  const scion::IsdAsn c1 = topo.as_by_name("core-1");
  for (const auto& hop : paths.front().hops()) {
    if (hop.isd_as != c1) continue;
    auto& network = topo.network();
    for (net::NodeId node = 0; node < network.node_count(); ++node) {
      if (network.node_name(node) == "br-core-1") {
        network.set_link_up(node, scion::BorderRouter::to_net_if(hop.egress), false);
        std::printf("  [%7.1f ms] LINK FAILURE: %s interface %u goes dark\n",
                    world->sim().now().millis(), c1.to_string().c_str(), hop.egress);
      }
    }
  }

  world->sim().run_until_condition([&] { return done; }, world->sim().now() + seconds(60));
  if (!done || result.transport != proxy::TransportUsed::kScion) {
    std::printf("FAILED: download did not complete over SCION\n");
    return 1;
  }
  std::printf("  [%7.1f ms] download complete: %zu bytes over SCION\n",
              world->sim().now().millis(), result.response.body.size());
  const obs::MetricsRegistry& registry = proxy.metrics();
  std::printf("\nproxy stats: %llu SCMP report(s), %llu live migration(s), 0 IP fallbacks\n",
              static_cast<unsigned long long>(registry.counter_value("proxy.scmp_reports")),
              static_cast<unsigned long long>(registry.counter_value("proxy.scmp_reroutes")));
  std::printf("revocations active: %zu\n", proxy.selector().active_revocations());
  for (const auto& [fp, usage] : proxy.selector().usage()) {
    std::printf("final path %s: %s (observed RTT %.1f ms)\n", fp.c_str(),
                usage.description.c_str(), usage.observed_rtt.millis());
  }
  return 0;
}
