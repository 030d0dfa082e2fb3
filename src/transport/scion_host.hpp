// Transport-over-SCION glue: dialer and acceptor running QUIC-lite over
// SCION/UDP sockets ("quic-go over pan", in the paper's terms).
//
// The client pins a selected dataplane path and can migrate it mid-
// connection (set_path). The server replies over the reversed path of the
// most recent client packet, so it needs no daemon and follows client path
// migration automatically. Both ends keep their path in wire form
// (scion::WirePath), encoded once per path: the server checks each datagram
// against its reply path without allocating and re-derives it only when the
// client's path really changed.
#pragma once

#include <memory>
#include <unordered_map>

#include "scion/stack.hpp"
#include "transport/connection.hpp"

namespace pan::transport {

class ScionTransportClient {
 public:
  ScionTransportClient(scion::ScionStack& stack, scion::ScionEndpoint server,
                       const scion::DataplanePath& path, TransportConfig config);

  [[nodiscard]] Connection& connection() { return *conn_; }
  /// Migrates subsequent packets onto a different path.
  void set_path(const scion::DataplanePath& path);

 private:
  [[nodiscard]] Conduit make_conduit();

  scion::ScionEndpoint server_;
  scion::WirePath path_;
  std::unique_ptr<scion::ScionSocket> socket_;
  std::unique_ptr<Connection> conn_;
};

class ScionTransportServer {
 public:
  using AcceptFn = std::function<void(Connection&)>;

  ScionTransportServer(scion::ScionStack& stack, std::uint16_t port, TransportConfig config,
                       AcceptFn on_accept);

  [[nodiscard]] std::size_t connection_count() const { return conns_.size(); }
  [[nodiscard]] std::uint16_t port() const { return socket_->local_port(); }
  void reap_closed();

 private:
  struct PeerState {
    std::unique_ptr<Connection> conn;
    scion::ScionEndpoint from;
    scion::WirePath reply_path;
  };

  void on_datagram(const scion::ScionEndpoint& from, const scion::ScionHeaderView& header,
                   net::PacketView payload);

  scion::ScionStack& stack_;
  TransportConfig config_;
  AcceptFn on_accept_;
  std::unique_ptr<scion::ScionSocket> socket_;
  std::unordered_map<std::uint64_t, PeerState> conns_;
  TransportPacket rx_;  // parse scratch, frames cleared after each datagram
};

/// Largest transport datagram that fits the path MTU once a SCION header of
/// `header_size` bytes (scion::WirePath::header_size) is accounted for.
[[nodiscard]] std::size_t scion_max_payload(std::size_t header_size, std::size_t mtu);

}  // namespace pan::transport
