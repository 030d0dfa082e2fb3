#include "core/scenarios.hpp"

namespace pan::browser {

namespace {
/// The multi-access client's second ("lte") access link: slower and
/// narrower than the wired primary.
constexpr Duration kLteLatency = milliseconds(15);
constexpr double kLteBandwidthBps = 50e6;
}  // namespace

World::World(WorldConfig config) : config_(config) {
  injector_ = std::make_unique<fault::FaultInjector>(sim_);
  scion::TopologyConfig topo_config;
  topo_config.seed = config_.seed;
  topo_config.metrics = config_.router_metrics;
  topo_ = std::make_unique<scion::Topology>(sim_, topo_config);
  injector_->attach_topology(*topo_);
  resolver_ = std::make_unique<dns::Resolver>(
      sim_, zone_, dns::ResolverConfig{.lookup_latency = config_.dns_latency});
  injector_->attach_resolver(*resolver_);
}

World::~World() = default;

http::FileServer& World::add_site(scion::HostId host, const std::string& domain,
                                  const SiteOptions& options) {
  auto fs = std::make_unique<http::FileServer>(sim_);
  http::FileServer& ref = *fs;
  if (options.strict_scion_header) {
    ref.enable_strict_scion(options.strict_scion_max_age);
  }
  ref.set_think_time(options.think_time);
  file_servers_.push_back(std::move(fs));
  sites_[domain] = &ref;

  if (options.legacy) {
    legacy_servers_.push_back(std::make_unique<http::LegacyHttpServer>(
        topo_->host(host), options.port, ref.handler()));
    zone_.add_a(domain, topo_->ip(host));
  }
  if (options.native_scion) {
    scion_servers_.push_back(std::make_unique<http::ScionHttpServer>(
        topo_->scion_stack(host), options.port, ref.handler()));
    // Without the TXT advertisement the origin is SCION-reachable but only
    // discoverable through the learned Strict-SCION cache.
    if (options.advertise_scion_txt) {
      zone_.add_scion_txt(domain, topo_->scion_addr(host));
    }
  }
  return ref;
}

proxy::ReverseProxy& World::add_reverse_proxy(scion::HostId proxy_host,
                                              const std::string& backend_domain,
                                              scion::HostId backend_host,
                                              const proxy::ReverseProxyConfig& config) {
  reverse_proxies_.push_back(std::make_unique<proxy::ReverseProxy>(
      topo_->scion_stack(proxy_host), 80, net::Endpoint{topo_->ip(backend_host), 80},
      config));
  zone_.add_scion_txt(backend_domain, topo_->scion_addr(proxy_host));
  return *reverse_proxies_.back();
}

http::FileServer* World::site(const std::string& domain) {
  const auto it = sites_.find(domain);
  return it == sites_.end() ? nullptr : it->second;
}

Status World::schedule_chaos(const std::string& plan_text) {
  auto plan = fault::parse_fault_plan(plan_text);
  if (!plan.ok()) return Err(plan.error());
  for (const auto& [domain, server] : sites_) {
    injector_->attach_origin(domain, *server);
  }
  injector_->schedule(plan.value());
  return {};
}

std::unique_ptr<World> make_local_world(const WorldConfig& config) {
  auto world = std::make_unique<World>(config);
  scion::Topology& topo = world->topology();

  scion::AsSpec local;
  local.name = "local";
  local.ia = scion::IsdAsn{1, 0xff00'0000'0110ULL};
  local.core = true;
  local.meta.country = "CH";
  topo.add_as(local);

  // Everything on "one laptop": fast access links, tiny latency.
  net::LinkParams access;
  access.latency = microseconds(50);
  access.bandwidth_bps = 10e9;
  access.jitter_frac = config.link_jitter;
  world->client = topo.add_host("local", "browser", access);
  topo.add_host("local", "scion-fs", access);
  topo.add_host("local", "tcpip-fs", access);
  topo.finalize();

  world->add_site(topo.host_by_name("scion-fs"), "scion-fs.local",
                  SiteOptions{.legacy = false, .native_scion = true});
  world->add_site(topo.host_by_name("tcpip-fs"), "tcpip-fs.local",
                  SiteOptions{.legacy = true, .native_scion = false});
  return world;
}

std::unique_ptr<World> make_remote_world(const WorldConfig& config) {
  auto world = std::make_unique<World>(config);
  scion::Topology& topo = world->topology();

  const auto add_as = [&](const std::string& name, scion::Isd isd, scion::Asn asn,
                          bool core, const std::string& country) {
    scion::AsSpec spec;
    spec.name = name;
    spec.ia = scion::IsdAsn{isd, asn};
    spec.core = core;
    spec.meta.country = country;
    topo.add_as(spec);
  };
  add_as("core-1", 1, 0xff00'0000'0110ULL, true, "CH");
  add_as("client-as", 1, 0xff00'0000'0111ULL, false, "CH");
  add_as("near-as", 1, 0xff00'0000'0112ULL, false, "CH");
  add_as("core-2a", 2, 0xff00'0000'0210ULL, true, "US");
  add_as("core-2b", 2, 0xff00'0000'0220ULL, true, "US");
  add_as("server-as", 2, 0xff00'0000'0211ULL, false, "US");

  const auto link = [&](const std::string& a, const std::string& b, scion::LinkType type,
                        std::int64_t latency_ms, double co2, double cost) {
    scion::AsLinkSpec spec;
    spec.a = a;
    spec.b = b;
    spec.type = type;
    spec.params.latency = milliseconds(latency_ms);
    spec.params.bandwidth_bps = type == scion::LinkType::kCore ? config.core_bandwidth_bps
                                                               : config.child_bandwidth_bps;
    spec.params.jitter_frac = config.link_jitter;
    spec.params.loss_rate = config.inter_as_loss;
    spec.co2_g_per_gb = co2;
    spec.cost_per_gb = cost;
    topo.add_link(spec);
  };
  // The BGP trap: the direct inter-ISD core link is one AS hop but 80 ms;
  // the detour over core-2b is two hops totalling 30 ms. Shortest-AS-path
  // routing prefers the direct link; SCION's latency-sorted paths take the
  // detour. The direct link is a modern long-haul fiber — slow but green
  // and cheap — so latency, CO2, and cost orderings pick different paths.
  link("core-1", "core-2a", scion::LinkType::kCore, 80, 8, 4);
  link("core-1", "core-2b", scion::LinkType::kCore, 25, 40, 25);
  link("core-2b", "core-2a", scion::LinkType::kCore, 5, 15, 10);
  link("core-1", "client-as", scion::LinkType::kParentChild, 2, 5, 5);
  link("core-1", "near-as", scion::LinkType::kParentChild, 3, 5, 5);
  link("core-2a", "server-as", scion::LinkType::kParentChild, 2, 8, 8);
  link("core-2b", "server-as", scion::LinkType::kParentChild, 3, 8, 8);

  net::LinkParams access;
  access.latency = microseconds(200);
  access.bandwidth_bps = 1e9;
  access.jitter_frac = config.link_jitter;
  world->client = topo.add_host("client-as", "browser", access);
  if (config.multi_access) {
    // Second upstream link into a different first-hop AS: an LTE-class
    // access homed in near-as (client-as reaches core-1 at 2 ms, near-as at
    // 3 ms — the accesses are asymmetric end to end as well).
    net::LinkParams lte;
    lte.latency = kLteLatency;
    lte.bandwidth_bps = kLteBandwidthBps;
    lte.jitter_frac = config.link_jitter;
    world->client_lte = topo.add_host("near-as", "browser-lte", lte);
  }
  const scion::HostId far_www = topo.add_host("server-as", "far-www", access);
  const scion::HostId far_static = topo.add_host("server-as", "far-static", access);
  const scion::HostId far_rp1 = topo.add_host("server-as", "far-rp1", access);
  const scion::HostId far_rp2 = topo.add_host("server-as", "far-rp2", access);
  const scion::HostId near_www = topo.add_host("near-as", "near-www", access);
  const scion::HostId near_rp = topo.add_host("near-as", "near-rp", access);
  topo.finalize();

  world->add_site(far_www, "www.far.example", SiteOptions{.legacy = true});
  world->add_reverse_proxy(far_rp1, "www.far.example", far_www, config.reverse_proxy);
  world->add_site(far_static, "static.far.example", SiteOptions{.legacy = true});
  world->add_reverse_proxy(far_rp2, "static.far.example", far_static, config.reverse_proxy);
  world->add_site(near_www, "www.near.example", SiteOptions{.legacy = true});
  world->add_reverse_proxy(near_rp, "www.near.example", near_www, config.reverse_proxy);
  return world;
}

ClientSession::ClientSession(World& world, proxy::ProxyConfig proxy_config,
                             BrowserConfig browser_config)
    : world_(world) {
  scion::Topology& topo = world.topology();
  resolver_ = std::make_unique<dns::Resolver>(
      world.sim(), world.zone(),
      dns::ResolverConfig{.lookup_latency = world.config().dns_latency});
  world.injector().attach_resolver(*resolver_);
  proxy_ = std::make_unique<proxy::SkipProxy>(
      world.sim(), topo.host(world.client), topo.scion_stack(world.client),
      topo.daemon_for(world.client), *resolver_, proxy_config);
  // Fault counters land next to proxy stats so /skip/metrics and
  // /skip/health expose them.
  world.injector().set_metrics(&proxy_->metrics());
  if (world.client_lte.has_value()) {
    proxy_->add_access("lte", topo.host(*world.client_lte),
                       topo.scion_stack(*world.client_lte),
                       topo.daemon_for(*world.client_lte));
  }
  extension_ = std::make_unique<BrowserExtension>(world.sim(), *proxy_);
  browser_ = std::make_unique<Browser>(world.sim(), *extension_, browser_config);
}

PageLoadResult ClientSession::load(const std::string& url) {
  PageLoadResult result;
  bool done = false;
  browser_->load_page(url, [&](PageLoadResult r) {
    result = std::move(r);
    done = true;
  });
  world_.sim().run_until_condition([&] { return done; },
                                   world_.sim().now() + seconds(120));
  return result;
}

FleetSession::FleetSession(World& world, proxy::ClusterConfig config) : world_(world) {
  scion::Topology& topo = world.topology();
  if (config.resolver.lookup_latency == dns::ResolverConfig{}.lookup_latency) {
    config.resolver.lookup_latency = world.config().dns_latency;
  }
  // Every per-replica resolver — including the fresh one a revived replica
  // gets — pulls from the injector's DNS brownout table.
  config.on_resolver_created = [&world](dns::Resolver& resolver) {
    world.injector().attach_resolver(resolver);
  };
  cluster_ = std::make_unique<proxy::ProxyCluster>(
      world.sim(), topo.host(world.client), topo.scion_stack(world.client),
      topo.daemon_for(world.client), world.zone(), std::move(config));
  world.injector().set_metrics(&cluster_->metrics());
  world.injector().set_replica_hook(
      [this](const fault::FaultEvent& event, bool active) {
        switch (event.kind) {
          case fault::FaultKind::kReplicaCrash:
            if (active) {
              cluster_->crash_replica(event.a);
            } else {
              cluster_->revive_replica(event.a);
            }
            break;
          case fault::FaultKind::kReplicaHang:
            cluster_->set_replica_hung(event.a, active);
            break;
          case fault::FaultKind::kReplicaRestart:
            // A one-shot bounce; the revert (if dur= was given) is a no-op.
            if (active) cluster_->restart_replica(event.a);
            break;
          default:
            break;
        }
      });
}

FleetSession::~FleetSession() { world_.injector().set_replica_hook(nullptr); }

proxy::ProxyResult FleetSession::fetch(const std::string& url, bool strict) {
  proxy::ProxyResult result;
  bool done = false;
  http::HttpRequest request;
  request.method = "GET";
  request.target = url;
  proxy::ProxyRequestOptions options;
  options.strict = strict;
  cluster_->fetch(std::move(request), options, [&](proxy::ProxyResult r) {
    result = std::move(r);
    done = true;
  });
  world_.sim().run_until_condition([&] { return done; },
                                   world_.sim().now() + seconds(120));
  return result;
}

SurgeLoad::SurgeLoad(World& world, proxy::SkipProxy& proxy)
    : world_(world),
      fetch_([&proxy](http::HttpRequest request, proxy::ProxyRequestOptions options,
                      proxy::SkipProxy::FetchFn on_result) {
        proxy.fetch(std::move(request), std::move(options), std::move(on_result));
      }),
      alive_(std::make_shared<bool>(true)) {
  world_.injector().set_surge_hook(
      [this](const fault::FaultEvent& event, bool active) { on_event(event, active); });
}

SurgeLoad::SurgeLoad(World& world, proxy::ProxyCluster& cluster)
    : world_(world),
      fetch_([&cluster](http::HttpRequest request, proxy::ProxyRequestOptions options,
                        proxy::SkipProxy::FetchFn on_result) {
        cluster.fetch(std::move(request), std::move(options), std::move(on_result));
      }),
      alive_(std::make_shared<bool>(true)) {
  world_.injector().set_surge_hook(
      [this](const fault::FaultEvent& event, bool active) { on_event(event, active); });
}

SurgeLoad::~SurgeLoad() {
  *alive_ = false;
  world_.injector().set_surge_hook(nullptr);
}

void SurgeLoad::on_event(const fault::FaultEvent& event, bool active) {
  if (!active) {
    if (event.a == domain_) active_ = false;
    return;
  }
  // One surge at a time: a newer event retargets the generator.
  domain_ = event.a;
  rate_ = event.surge_rate;
  concurrency_ = event.surge_concurrency;
  if (!active_) {
    active_ = true;
    tick();
  }
}

void SurgeLoad::tick() {
  if (!active_) return;
  if (in_flight_ < concurrency_) {
    ++stats_.launched;
    ++in_flight_;
    http::HttpRequest request;
    request.method = "GET";
    request.target = "http://" + domain_ + path_;
    request.headers.set("Host", domain_);
    request.headers.set("User-Agent", "pan-surge/1.0");
    request.headers.set(std::string(proxy::kPriorityHeader), "probe");
    request.headers.set(std::string(proxy::kClientHeader), "surge");
    proxy::ProxyRequestOptions options;
    options.deadline = world_.sim().now() + request_deadline_;
    fetch_(std::move(request), options,
           [this, alive = alive_](proxy::ProxyResult result) {
                   if (!*alive) return;
                   --in_flight_;
                   const int status = result.response.status;
                   if (status >= 200 && status < 300) {
                     ++stats_.completed;
                   } else if (status == 429 || status == 503) {
                     ++stats_.rejected;
                   } else if (status == 504) {
                     ++stats_.timed_out;
                   } else {
                     ++stats_.failed;
                   }
                 });
  }
  const auto interval = Duration{static_cast<std::int64_t>(1e9 / rate_)};
  world_.sim().schedule_after(interval, [this, alive = alive_] {
    if (*alive) tick();
  });
}

DirectSession::DirectSession(World& world, BrowserConfig browser_config) : world_(world) {
  resolver_ = std::make_unique<dns::Resolver>(
      world.sim(), world.zone(),
      dns::ResolverConfig{.lookup_latency = world.config().dns_latency});
  world.injector().attach_resolver(*resolver_);
  browser_ = std::make_unique<Browser>(world.sim(), world.topology().host(world.client),
                                       *resolver_, browser_config);
}

PageLoadResult DirectSession::load(const std::string& url) {
  PageLoadResult result;
  bool done = false;
  browser_->load_page(url, [&](PageLoadResult r) {
    result = std::move(r);
    done = true;
  });
  world_.sim().run_until_condition([&] { return done; },
                                   world_.sim().now() + seconds(120));
  return result;
}

}  // namespace pan::browser
