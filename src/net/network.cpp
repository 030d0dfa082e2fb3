#include "net/network.hpp"

#include <cassert>
#include <utility>

#include "util/log.hpp"

namespace pan::net {

namespace {
constexpr std::string_view kLog = "net";
}

Network::Network(sim::Simulator& sim, std::uint64_t seed) : sim_(sim), rng_(seed) {}

NodeId Network::add_node(std::string name) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(NodeState{std::move(name), nullptr, {}});
  return id;
}

const Network::NodeState& Network::node(NodeId id) const {
  assert(id < nodes_.size());
  return nodes_[id];
}

Network::NodeState& Network::node(NodeId id) {
  assert(id < nodes_.size());
  return nodes_[id];
}

const std::string& Network::node_name(NodeId id) const { return node(id).name; }

NodeId Network::find_node(std::string_view name) const {
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].name == name) return id;
  }
  return kInvalidNodeId;
}

void Network::set_handler(NodeId id, Handler handler) {
  node(id).handler = std::move(handler);
}

std::pair<IfId, IfId> Network::connect(NodeId a, NodeId b, const LinkParams& params) {
  assert(a != b);
  const LinkId link_id = static_cast<LinkId>(links_.size());
  const IfId if_a = static_cast<IfId>(node(a).interfaces.size());
  const IfId if_b = static_cast<IfId>(node(b).interfaces.size());
  links_.push_back(Link{a, b, if_a, if_b, params, {}, {}});
  node(a).interfaces.push_back(link_id);
  node(b).interfaces.push_back(link_id);
  return {if_a, if_b};
}

LinkId Network::link_id_at(NodeId node_id, IfId ifid) const {
  const NodeState& n = node(node_id);
  assert(ifid < n.interfaces.size());
  return n.interfaces[ifid];
}

const Link& Network::link_at(NodeId node_id, IfId ifid) const {
  return links_[link_id_at(node_id, ifid)];
}

NodeId Network::neighbor(NodeId node_id, IfId ifid) const {
  const Link& link = link_at(node_id, ifid);
  return link.node_a == node_id ? link.node_b : link.node_a;
}

IfId Network::neighbor_ifid(NodeId node_id, IfId ifid) const {
  const Link& link = link_at(node_id, ifid);
  return link.node_a == node_id ? link.if_b : link.if_a;
}

std::size_t Network::interface_count(NodeId node_id) const {
  return node(node_id).interfaces.size();
}

const LinkParams& Network::link_params(NodeId node_id, IfId ifid) const {
  return link_at(node_id, ifid).params;
}

LinkParams& Network::mutable_link_params(NodeId node_id, IfId ifid) {
  return links_[link_id_at(node_id, ifid)].params;
}

void Network::trace(TraceEvent::Kind kind, TimePoint time, NodeId from, NodeId to,
                    const Packet& packet) const {
  if (!tracer_) return;
  TraceEvent event;
  event.time = time;
  event.kind = kind;
  event.from = from;
  event.to = to;
  event.proto = packet.proto;
  event.wire_bytes = packet.wire_size();
  event.packet_id = packet.id;
  event.packet = &packet;
  tracer_(event);
}

void Network::send(NodeId from, IfId out_if, Packet packet) {
  Link& link = links_[link_id_at(from, out_if)];
  const bool forward = link.node_a == from;
  LinkDirection& dir = forward ? link.a_to_b : link.b_to_a;
  const NodeId to = forward ? link.node_b : link.node_a;
  const IfId in_if = forward ? link.if_b : link.if_a;

  if (packet.id == 0) packet.id = next_packet_id_++;
  packet.sent_at = sim_.now();
  const std::size_t wire = packet.wire_size();

  if (link.down) {
    ++dir.drops_down;
    trace(TraceEvent::Kind::kDropLinkDown, sim_.now(), from, to, packet);
    PAN_TRACE(kLog) << "link down: " << packet.describe();
    return;
  }

  if (wire > link.params.mtu + kFramingOverhead) {
    ++dir.drops_mtu;
    trace(TraceEvent::Kind::kDropMtu, sim_.now(), from, to, packet);
    PAN_DEBUG(kLog) << "MTU drop on " << node(from).name << "->" << node(to).name << ": "
                    << packet.describe();
    return;
  }
  if (rng_.chance(link.params.loss_rate)) {
    ++dir.drops_loss;
    trace(TraceEvent::Kind::kDropLoss, sim_.now(), from, to, packet);
    PAN_TRACE(kLog) << "random loss: " << packet.describe();
    return;
  }

  const TimePoint now = sim_.now();
  const TimePoint depart_earliest = dir.busy_until > now ? dir.busy_until : now;
  if (!packet.priority && depart_earliest - now > link.params.max_queue_delay) {
    ++dir.drops_queue;
    trace(TraceEvent::Kind::kDropQueue, sim_.now(), from, to, packet);
    PAN_TRACE(kLog) << "queue overflow: " << packet.describe();
    return;
  }

  const Duration tx = link.params.transmit_time(wire);
  const TimePoint depart = depart_earliest + tx;
  dir.busy_until = depart;
  ++dir.packets_sent;
  dir.bytes_sent += wire;

  Duration propagation = link.params.latency;
  if (link.params.jitter_frac > 0) {
    propagation = rng_.jittered(propagation, link.params.jitter_frac);
  }
  TimePoint arrive = depart + propagation;
  // FIFO discipline: jitter must not reorder packets on one link, or the
  // transports see phantom loss (packet-threshold detectors fire).
  if (arrive < dir.last_arrival) arrive = dir.last_arrival;
  dir.last_arrival = arrive;

  trace(TraceEvent::Kind::kSend, depart, from, to, packet);
  auto deliver = [this, from, to, in_if, p = std::move(packet)]() mutable {
    trace(TraceEvent::Kind::kDeliver, sim_.now(), from, to, p);
    NodeState& dst = node(to);
    if (dst.handler) {
      dst.handler(std::move(p), in_if);
    } else {
      PAN_WARN(kLog) << "packet dropped at handler-less node " << dst.name;
    }
  };
  // One event per hop per packet: keep it allocation-free.
  static_assert(sim::Callback::fits_inline<decltype(deliver)>);
  sim_.schedule_at(arrive, std::move(deliver));
}

void Network::set_link_up(NodeId node_id, IfId ifid, bool up) {
  links_[link_id_at(node_id, ifid)].down = !up;
}

bool Network::link_up(NodeId node_id, IfId ifid) const {
  return !link_at(node_id, ifid).down;
}

Network::DropTotals Network::drop_totals() const {
  DropTotals t;
  for (const Link& link : links_) {
    for (const LinkDirection* dir : {&link.a_to_b, &link.b_to_a}) {
      t.loss += dir->drops_loss;
      t.queue += dir->drops_queue;
      t.mtu += dir->drops_mtu;
      t.down += dir->drops_down;
    }
  }
  return t;
}

std::uint64_t Network::total_bytes_sent() const {
  std::uint64_t total = 0;
  for (const Link& link : links_) {
    total += link.a_to_b.bytes_sent + link.b_to_a.bytes_sent;
  }
  return total;
}

}  // namespace pan::net
