// FaultInjector: applies and reverts FaultEvents against the live world.
//
// The injector is attached to the subsystems it can break — the topology
// (links, border routers, daemons), resolvers, and origin file servers — and
// then driven by the sim clock via schedule(plan). Resolver and origin
// attachments are *pull-based*: the injector installs a hook that consults
// its active-fault table on every lookup/request, so attachees may outlive
// or predecease the plan freely (the injector holds no pointers back to
// them beyond plan application on topology, which it owns no lifetime of
// but which scenario worlds keep alive for the whole run).
//
// Every applied fault increments `fault.injected` plus a per-kind counter
// (`fault.link_down`, `fault.dns_brownout`, ...) in the attached metrics
// registry; `fault.active` is a gauge of currently-applied faults. Share the
// registry with the SKIP proxy under test (ProxyConfig::metrics) and every
// fault class becomes visible through /skip/metrics.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "dns/dns.hpp"
#include "fault/fault.hpp"
#include "http/file_server.hpp"
#include "obs/metrics.hpp"
#include "scion/topology.hpp"
#include "sim/simulator.hpp"

namespace pan::fault {

class FaultInjector {
 public:
  explicit FaultInjector(sim::Simulator& sim);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Counters/gauges land here (nullptr detaches). Typically the proxy's
  /// registry, so faults show up in /skip/metrics next to proxy stats.
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Link / AS-outage / path-server faults need the topology. The topology
  /// must outlive scheduled plans (scenario worlds guarantee this).
  void attach_topology(scion::Topology& topo) { topo_ = &topo; }

  /// Installs the brownout hook on a resolver. Call per resolver (sessions
  /// own private resolvers). The hook pulls from this injector's table, so
  /// the resolver may be destroyed at any time.
  void attach_resolver(dns::Resolver& resolver);

  /// Installs the misbehavior hook on an origin's file server; `domain` is
  /// the name fault events address it by.
  void attach_origin(const std::string& domain, http::FileServer& server);

  /// Called with active=true when a kSurge event applies and active=false
  /// when it reverts. Load generation itself lives with the scenario world
  /// (it needs a proxy/client to push requests through); the injector only
  /// keeps surges on the same deterministic clock as every other fault.
  using SurgeHook = std::function<void(const FaultEvent& event, bool active)>;
  void set_surge_hook(SurgeHook hook) { surge_hook_ = std::move(hook); }

  /// Called with active=true when a replica fault (kReplicaCrash /
  /// kReplicaHang / kReplicaRestart) applies and active=false when it
  /// reverts. The proxy fleet (proxy::ProxyCluster) registers itself here;
  /// like the surge hook, the injector only keeps replica chaos on the
  /// deterministic clock — crash/revive mechanics live with the cluster.
  using ReplicaHook = std::function<void(const FaultEvent& event, bool active)>;
  void set_replica_hook(ReplicaHook hook) { replica_hook_ = std::move(hook); }

  /// Schedules apply (and revert, when duration > 0) for every event.
  void schedule(const FaultPlan& plan);

  void apply(const FaultEvent& event);
  void revert(const FaultEvent& event);

  [[nodiscard]] std::size_t active_count() const { return active_.size(); }
  [[nodiscard]] std::uint64_t injected() const { return injected_; }
  [[nodiscard]] std::uint64_t reverted() const { return reverted_; }

 private:
  struct LinkBackup {
    net::NodeId node;
    net::IfId ifid;
    net::LinkParams original;
  };
  struct ActiveFault {
    FaultEvent event;
    std::vector<LinkBackup> backups;  // kLinkDegrade only
  };

  /// (node, ifid) pairs on br-`a` whose neighbor is br-`b`; empty when
  /// either AS is unknown.
  [[nodiscard]] std::vector<std::pair<net::NodeId, net::IfId>> links_between(
      const std::string& a, const std::string& b) const;
  void set_all_daemons_frozen(bool frozen);
  void count(const std::string& name);
  void update_active_gauge();

  sim::Simulator& sim_;
  obs::MetricsRegistry* metrics_ = nullptr;
  scion::Topology* topo_ = nullptr;

  std::map<std::string, ActiveFault> active_;
  SurgeHook surge_hook_;
  ReplicaHook replica_hook_;
  std::unordered_map<std::string, dns::ResolverFault> dns_faults_;
  std::unordered_map<std::string, http::OriginFaultMode> origin_faults_;
  std::uint64_t injected_ = 0;
  std::uint64_t reverted_ = 0;
};

}  // namespace pan::fault
