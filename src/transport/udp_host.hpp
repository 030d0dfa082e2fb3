// Transport-over-legacy-UDP glue: a client dialer and a server acceptor
// that demultiplex datagrams to Connection objects.
#pragma once

#include <memory>
#include <unordered_map>

#include "net/host.hpp"
#include "transport/connection.hpp"

namespace pan::transport {

/// A connection id unique in `sim`'s world.
[[nodiscard]] std::uint64_t next_conn_id(sim::Simulator& sim);

class UdpTransportClient {
 public:
  UdpTransportClient(net::Host& host, net::Endpoint server, TransportConfig config);

  [[nodiscard]] Connection& connection() { return *conn_; }
  [[nodiscard]] net::Endpoint local_endpoint() const { return socket_->local_endpoint(); }

 private:
  std::unique_ptr<net::UdpSocket> socket_;
  std::unique_ptr<Connection> conn_;
};

class UdpTransportServer {
 public:
  using AcceptFn = std::function<void(Connection&)>;

  UdpTransportServer(net::Host& host, std::uint16_t port, TransportConfig config,
                     AcceptFn on_accept);

  [[nodiscard]] std::size_t connection_count() const { return conns_.size(); }
  [[nodiscard]] std::uint16_t port() const { return socket_->local_port(); }

  /// Drops closed connections (called opportunistically on new datagrams).
  void reap_closed();

 private:
  void on_datagram(const net::Endpoint& from, net::PacketView payload);

  net::Host& host_;
  TransportConfig config_;
  AcceptFn on_accept_;
  std::unique_ptr<net::UdpSocket> socket_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  TransportPacket rx_;  // parse scratch, frames cleared after each datagram
};

}  // namespace pan::transport
