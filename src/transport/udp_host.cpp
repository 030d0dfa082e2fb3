#include "transport/udp_host.hpp"

#include "util/log.hpp"

namespace pan::transport {

namespace {
constexpr std::string_view kLog = "udp-host";
}

std::uint64_t next_conn_id(sim::Simulator& sim) {
  return 0x1000 + sim.next_id(sim::IdSequence::kConnection);
}

UdpTransportClient::UdpTransportClient(net::Host& host, net::Endpoint server,
                                       TransportConfig config) {
  socket_ = host.udp_bind(0, [this](const net::Endpoint& /*from*/, net::PacketView payload) {
    conn_->on_datagram(payload);
  });
  Conduit conduit;
  conduit.max_payload = 1200;
  conduit.send = [socket = socket_.get(), server](net::PacketView datagram) {
    socket->send_to(server, std::move(datagram));
  };
  conn_ = std::make_unique<Connection>(host.simulator(), std::move(conduit),
                                       Connection::Role::kClient, next_conn_id(host.simulator()),
                                       config);
}

UdpTransportServer::UdpTransportServer(net::Host& host, std::uint16_t port,
                                       TransportConfig config, AcceptFn on_accept)
    : host_(host), config_(std::move(config)), on_accept_(std::move(on_accept)) {
  socket_ = host.udp_bind(port, [this](const net::Endpoint& from, net::PacketView payload) {
    on_datagram(from, std::move(payload));
  });
}

void UdpTransportServer::on_datagram(const net::Endpoint& from, net::PacketView payload) {
  // Parsed once: the connection takes the packet as is.
  if (!parse_packet_into(payload, rx_).ok()) {
    PAN_DEBUG(kLog) << "undecodable datagram from " << from.to_string();
    return;
  }
  const std::uint64_t conn_id = rx_.conn_id;
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) {
    if (rx_.type != PacketType::kInitial) {
      PAN_DEBUG(kLog) << "non-initial packet for unknown conn " << conn_id;
      return;
    }
    reap_closed();
    Conduit conduit;
    conduit.max_payload = 1200;
    conduit.send = [socket = socket_.get(), from](net::PacketView datagram) {
      socket->send_to(from, std::move(datagram));
    };
    auto conn = std::make_unique<Connection>(host_.simulator(), std::move(conduit),
                                             Connection::Role::kServer, conn_id, config_);
    it = conns_.emplace(conn_id, std::move(conn)).first;
    if (on_accept_) on_accept_(*it->second);
  }
  it->second->on_packet(rx_, payload.size());
  rx_.frames.clear();
}

void UdpTransportServer::reap_closed() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->second->state() == Connection::State::kClosed) {
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace pan::transport
