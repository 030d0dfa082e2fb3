#include "fault/injector.hpp"

#include <algorithm>

#include "net/network.hpp"
#include "util/log.hpp"

namespace pan::fault {

namespace {
constexpr std::string_view kLog = "fault";

/// "link-down" -> "fault.link_down" (metric-name friendly).
std::string kind_metric(FaultKind kind) {
  std::string name(to_string(kind));
  std::replace(name.begin(), name.end(), '-', '_');
  return "fault." + name;
}
}  // namespace

FaultInjector::FaultInjector(sim::Simulator& sim) : sim_(sim) {}

void FaultInjector::attach_resolver(dns::Resolver& resolver) {
  resolver.set_fault_hook([this](const std::string& domain)
                              -> std::optional<dns::ResolverFault> {
    const auto it = dns_faults_.find(domain);
    if (it == dns_faults_.end()) return std::nullopt;
    count("fault.dns.failed_lookups");
    return it->second;
  });
}

void FaultInjector::attach_origin(const std::string& domain, http::FileServer& server) {
  server.set_fault_hook([this, domain]() {
    const auto it = origin_faults_.find(domain);
    if (it == origin_faults_.end()) return http::OriginFaultMode::kNone;
    count("fault.origin.faulted_responses");
    return it->second;
  });
}

void FaultInjector::schedule(const FaultPlan& plan) {
  for (const FaultEvent& event : plan.events) {
    sim_.schedule_at(event.at, [this, event] { apply(event); });
    if (event.duration > Duration::zero()) {
      sim_.schedule_at(event.at + event.duration, [this, event] { revert(event); });
    }
  }
}

std::vector<std::pair<net::NodeId, net::IfId>> FaultInjector::links_between(
    const std::string& a, const std::string& b) const {
  std::vector<std::pair<net::NodeId, net::IfId>> out;
  if (topo_ == nullptr) return out;
  net::Network& net = topo_->network();
  const net::NodeId na = net.find_node("br-" + a);
  const net::NodeId nb = net.find_node("br-" + b);
  if (na == net::kInvalidNodeId || nb == net::kInvalidNodeId) return out;
  for (net::IfId ifid = 0; ifid < net.interface_count(na); ++ifid) {
    if (net.neighbor(na, ifid) == nb) out.emplace_back(na, ifid);
  }
  return out;
}

void FaultInjector::set_all_daemons_frozen(bool frozen) {
  if (topo_ == nullptr) return;
  for (const scion::IsdAsn ia : topo_->all_ases()) {
    topo_->daemon(ia).set_frozen(frozen);
  }
}

void FaultInjector::apply(const FaultEvent& event) {
  const std::string key = event.describe();
  if (active_.contains(key)) {
    // Overlapping duplicate (two plans, or a flap tighter than its own
    // duration): keep the first application's backups, skip re-applying.
    count("fault.overlap_skipped");
    return;
  }
  ActiveFault active{event, {}};

  switch (event.kind) {
    case FaultKind::kLinkDown: {
      for (const auto& [node, ifid] : links_between(event.a, event.b)) {
        topo_->network().set_link_up(node, ifid, false);
      }
      break;
    }
    case FaultKind::kLinkDegrade: {
      for (const auto& [node, ifid] : links_between(event.a, event.b)) {
        net::LinkParams& params = topo_->network().mutable_link_params(node, ifid);
        active.backups.push_back({node, ifid, params});
        if (event.loss > 0.0) params.loss_rate = std::max(params.loss_rate, event.loss);
        params.latency = params.latency.scaled(event.latency_factor) + event.extra_latency;
      }
      break;
    }
    case FaultKind::kAsOutage: {
      if (topo_ != nullptr) {
        net::Network& net = topo_->network();
        const net::NodeId node = net.find_node("br-" + event.a);
        if (node != net::kInvalidNodeId) {
          for (net::IfId ifid = 0; ifid < net.interface_count(node); ++ifid) {
            net.set_link_up(node, ifid, false);
          }
        }
      }
      break;
    }
    case FaultKind::kPathServerStale:
      set_all_daemons_frozen(true);
      break;
    case FaultKind::kDnsBrownout:
      dns_faults_[event.a] = dns::ResolverFault{event.servfail, event.dns_delay};
      break;
    case FaultKind::kOriginReset:
      origin_faults_[event.a] = http::OriginFaultMode::kReset;
      break;
    case FaultKind::kOriginSlowLoris:
      origin_faults_[event.a] = http::OriginFaultMode::kSlowLoris;
      break;
    case FaultKind::kOriginBadStrictScion:
      origin_faults_[event.a] = http::OriginFaultMode::kBadStrictScion;
      break;
    case FaultKind::kSurge:
      if (surge_hook_) surge_hook_(event, /*active=*/true);
      break;
    case FaultKind::kReplicaCrash:
    case FaultKind::kReplicaHang:
    case FaultKind::kReplicaRestart:
      if (replica_hook_) replica_hook_(event, /*active=*/true);
      break;
    case FaultKind::kAccessDown: {
      // `a` is a host name; the access link is always interface 0.
      if (topo_ != nullptr) {
        net::Network& net = topo_->network();
        const net::NodeId node = net.find_node(event.a);
        if (node != net::kInvalidNodeId) net.set_link_up(node, 0, false);
      }
      break;
    }
    case FaultKind::kAccessDegrade: {
      if (topo_ != nullptr) {
        net::Network& net = topo_->network();
        const net::NodeId node = net.find_node(event.a);
        if (node != net::kInvalidNodeId) {
          net::LinkParams& params = net.mutable_link_params(node, 0);
          active.backups.push_back({node, 0, params});
          if (event.loss > 0.0) params.loss_rate = std::max(params.loss_rate, event.loss);
          params.latency = params.latency.scaled(event.latency_factor) + event.extra_latency;
        }
      }
      break;
    }
  }

  active_.emplace(key, std::move(active));
  ++injected_;
  count("fault.injected");
  count(kind_metric(event.kind));
  update_active_gauge();
  if (metrics_ != nullptr) metrics_->events().record(sim_.now(), "fault", "apply", key);
  PAN_TRACE(kLog) << "apply: " << key;
}

void FaultInjector::revert(const FaultEvent& event) {
  const auto it = active_.find(event.describe());
  if (it == active_.end()) return;
  const ActiveFault& active = it->second;

  switch (event.kind) {
    case FaultKind::kLinkDown: {
      for (const auto& [node, ifid] : links_between(event.a, event.b)) {
        topo_->network().set_link_up(node, ifid, true);
      }
      break;
    }
    case FaultKind::kLinkDegrade: {
      for (const LinkBackup& backup : active.backups) {
        topo_->network().mutable_link_params(backup.node, backup.ifid) = backup.original;
      }
      break;
    }
    case FaultKind::kAsOutage: {
      if (topo_ != nullptr) {
        net::Network& net = topo_->network();
        const net::NodeId node = net.find_node("br-" + event.a);
        if (node != net::kInvalidNodeId) {
          for (net::IfId ifid = 0; ifid < net.interface_count(node); ++ifid) {
            net.set_link_up(node, ifid, true);
          }
        }
      }
      break;
    }
    case FaultKind::kPathServerStale:
      set_all_daemons_frozen(false);
      break;
    case FaultKind::kDnsBrownout:
      dns_faults_.erase(event.a);
      break;
    case FaultKind::kOriginReset:
    case FaultKind::kOriginSlowLoris:
    case FaultKind::kOriginBadStrictScion:
      origin_faults_.erase(event.a);
      break;
    case FaultKind::kSurge:
      if (surge_hook_) surge_hook_(event, /*active=*/false);
      break;
    case FaultKind::kReplicaCrash:
    case FaultKind::kReplicaHang:
    case FaultKind::kReplicaRestart:
      if (replica_hook_) replica_hook_(event, /*active=*/false);
      break;
    case FaultKind::kAccessDown: {
      if (topo_ != nullptr) {
        net::Network& net = topo_->network();
        const net::NodeId node = net.find_node(event.a);
        if (node != net::kInvalidNodeId) net.set_link_up(node, 0, true);
      }
      break;
    }
    case FaultKind::kAccessDegrade: {
      for (const LinkBackup& backup : active.backups) {
        topo_->network().mutable_link_params(backup.node, backup.ifid) = backup.original;
      }
      break;
    }
  }

  active_.erase(it);
  ++reverted_;
  count("fault.reverted");
  update_active_gauge();
  if (metrics_ != nullptr) {
    metrics_->events().record(sim_.now(), "fault", "revert", event.describe());
  }
  PAN_TRACE(kLog) << "revert: " << event.describe();
}

void FaultInjector::count(const std::string& name) {
  if (metrics_ != nullptr) metrics_->counter(name).inc();
}

void FaultInjector::update_active_gauge() {
  if (metrics_ != nullptr) {
    metrics_->gauge("fault.active").set(static_cast<double>(active_.size()));
  }
}

}  // namespace pan::fault
