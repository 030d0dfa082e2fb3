#include "transport/scion_host.hpp"

#include "scion/header.hpp"
#include "transport/udp_host.hpp"
#include "util/log.hpp"

namespace pan::transport {

namespace {
constexpr std::string_view kLog = "scion-host";
constexpr std::size_t kDefaultDatagram = 1200;
}  // namespace

std::size_t scion_max_payload(std::size_t header_size, std::size_t mtu) {
  if (mtu <= header_size + 64) return 576;  // degenerate, keep a usable floor
  return std::min(kDefaultDatagram, mtu - header_size);
}

ScionTransportClient::ScionTransportClient(scion::ScionStack& stack,
                                           scion::ScionEndpoint server,
                                           const scion::DataplanePath& path,
                                           TransportConfig config)
    : server_(server), path_(path) {
  socket_ = stack.bind(0, [this](const scion::ScionEndpoint& /*from*/,
                                 const scion::ScionHeaderView& /*header*/,
                                 net::PacketView payload) {
    conn_->on_datagram(payload);
  });
  conn_ = std::make_unique<Connection>(stack.host().simulator(), make_conduit(),
                                       Connection::Role::kClient,
                                       next_conn_id(stack.host().simulator()), config);
}

Conduit ScionTransportClient::make_conduit() {
  Conduit conduit;
  conduit.max_payload = scion_max_payload(path_.header_size(), 1500);
  // Reserve exactly the SCION header for this path in front of every
  // datagram: the stack prepends in place and nothing is ever re-copied.
  conduit.headroom = path_.header_size();
  conduit.send = [this](net::PacketView datagram) {
    socket_->send_to(server_, path_, std::move(datagram));
  };
  return conduit;
}

void ScionTransportClient::set_path(const scion::DataplanePath& path) {
  path_ = scion::WirePath(path);
  conn_->set_conduit(make_conduit());
}

ScionTransportServer::ScionTransportServer(scion::ScionStack& stack, std::uint16_t port,
                                           TransportConfig config, AcceptFn on_accept)
    : stack_(stack), config_(std::move(config)), on_accept_(std::move(on_accept)) {
  socket_ = stack.bind(port, [this](const scion::ScionEndpoint& from,
                                    const scion::ScionHeaderView& header,
                                    net::PacketView payload) {
    on_datagram(from, header, std::move(payload));
  });
}

void ScionTransportServer::on_datagram(const scion::ScionEndpoint& from,
                                       const scion::ScionHeaderView& header,
                                       net::PacketView payload) {
  // Parsed once: the connection takes the packet as is.
  if (!parse_packet_into(payload, rx_).ok()) {
    PAN_DEBUG(kLog) << "undecodable SCION datagram from " << from.to_string();
    return;
  }
  const std::uint64_t conn_id = rx_.conn_id;
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) {
    if (rx_.type != PacketType::kInitial) return;
    reap_closed();
    PeerState state;
    state.from = from;
    state.reply_path = scion::WirePath::reply_to(header);
    Conduit conduit;
    conduit.max_payload = scion_max_payload(state.reply_path.header_size(), 1500);
    conduit.headroom = state.reply_path.header_size();
    conduit.send = [this, conn_id](net::PacketView datagram) {
      const auto peer = conns_.find(conn_id);
      if (peer == conns_.end()) return;
      socket_->send_to(peer->second.from, peer->second.reply_path, std::move(datagram));
    };
    state.conn = std::make_unique<Connection>(stack_.host().simulator(), std::move(conduit),
                                              Connection::Role::kServer, conn_id, config_);
    it = conns_.emplace(conn_id, std::move(state)).first;
    if (on_accept_) on_accept_(*it->second.conn);
  } else {
    // Follow client path migration: one allocation-free comparison per
    // datagram, a new reply path only when the client's path changed. Then
    // jump-start retransmission: our outstanding data was black-holing on
    // the old path and the PTO backoff may have grown large.
    PeerState& peer = it->second;
    peer.from = from;
    if (!peer.reply_path.is_reply_to(header)) {
      peer.reply_path = scion::WirePath::reply_to(header);
      // The new reply path needs a (possibly) different SCION header size in
      // front of future datagrams — keep the zero-copy prepend exact.
      peer.conn->set_conduit_headroom(peer.reply_path.header_size());
      peer.conn->on_path_migrated();
    }
  }
  it->second.conn->on_packet(rx_, payload.size());
  rx_.frames.clear();
}

void ScionTransportServer::reap_closed() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->second.conn->state() == Connection::State::kClosed) {
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace pan::transport
