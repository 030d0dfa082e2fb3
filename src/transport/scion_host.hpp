// Transport-over-SCION glue: dialer and acceptor running QUIC-lite over
// SCION/UDP sockets ("quic-go over pan", in the paper's terms).
//
// The client pins a selected dataplane path and can migrate it mid-
// connection (set_path). The server replies over the reversed path of the
// most recent client packet, so it needs no daemon and follows client path
// migration automatically.
#pragma once

#include <memory>
#include <unordered_map>

#include "scion/stack.hpp"
#include "transport/connection.hpp"

namespace pan::transport {

class ScionTransportClient {
 public:
  ScionTransportClient(scion::ScionStack& stack, scion::ScionEndpoint server,
                       scion::DataplanePath path, TransportConfig config);

  [[nodiscard]] Connection& connection() { return *conn_; }
  /// Migrates subsequent packets onto a different path.
  void set_path(scion::DataplanePath path);
  [[nodiscard]] const scion::DataplanePath& path() const { return path_; }

 private:
  [[nodiscard]] Conduit make_conduit();

  scion::ScionEndpoint server_;
  scion::DataplanePath path_;
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
    scion::DataplanePath reply_path;
  };

  void on_datagram(const scion::ScionEndpoint& from, const scion::DataplanePath& reply_path,
                   net::PacketView payload);

  scion::ScionStack& stack_;
  TransportConfig config_;
  AcceptFn on_accept_;
  std::unique_ptr<scion::ScionSocket> socket_;
  std::unordered_map<std::uint64_t, PeerState> conns_;
  TransportPacket rx_;  // parse scratch, frames cleared after each datagram
};

/// Largest transport datagram that fits the path MTU once the SCION header
/// for `path` and link framing are accounted for.
[[nodiscard]] std::size_t scion_max_payload(const scion::DataplanePath& path, std::size_t mtu);

}  // namespace pan::transport
