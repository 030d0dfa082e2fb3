// SCION host stack: UDP-over-SCION sockets ("snet" equivalent).
//
// The stack registers itself as the host's SCION handler, validates each
// incoming SCION/UDP packet with a ScionHeaderView, demultiplexes it to a
// bound socket and hands the receiver that view. A server derives its reply
// path from it (WirePath::reply_to) without a path lookup — the property
// that makes SCION servers deployable without a daemon, which the paper's
// reverse proxy relies on. Paths stay in wire form end to end: nothing is
// materialized or reversed per datagram, and a send prepends the caller's
// pre-encoded WirePath with one copy.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "net/host.hpp"
#include "scion/colibri.hpp"
#include "scion/header.hpp"
#include "scion/scmp.hpp"

namespace pan::scion {

class ScionSocket;

class ScionStack {
 public:
  ScionStack(net::Host& host, IsdAsn local_as);

  ScionStack(const ScionStack&) = delete;
  ScionStack& operator=(const ScionStack&) = delete;

  [[nodiscard]] IsdAsn local_as() const { return local_as_; }
  [[nodiscard]] ScionAddr local_addr() const { return ScionAddr{local_as_, host_.address()}; }
  [[nodiscard]] net::Host& host() { return host_; }

  /// `from` identifies the peer. `header` is the received packet's validated
  /// header, borrowed for the duration of the call only: reply over
  /// WirePath::reply_to(header), or check a kept reply path with
  /// WirePath::is_reply_to(header). The payload view shares the received
  /// packet's buffer (zero-copy); call to_bytes() to own a copy.
  using RecvFn = std::function<void(const ScionEndpoint& from, const ScionHeaderView& header,
                                    net::PacketView payload)>;

  /// Binds a SCION/UDP socket; port 0 picks an ephemeral port. Returns null
  /// if the port is in use.
  [[nodiscard]] std::unique_ptr<ScionSocket> bind(std::uint16_t port, RecvFn on_receive);

  /// SCMP error reports addressed to this host. Subscribers are notified of
  /// every message; unsubscribe with the returned id.
  using ScmpFn = std::function<void(const ScmpMessage&)>;
  std::uint64_t subscribe_scmp(ScmpFn on_message);
  void unsubscribe_scmp(std::uint64_t id);

  [[nodiscard]] std::uint64_t packets_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t packets_received() const { return received_; }
  [[nodiscard]] std::uint64_t parse_errors() const { return parse_errors_; }
  [[nodiscard]] std::uint64_t scmp_received() const { return scmp_received_; }

 private:
  friend class ScionSocket;
  void handle(net::Packet&& packet, net::IfId in_if);
  void send(std::uint16_t src_port, const ScionEndpoint& dst, const WirePath& path,
            net::PacketView payload, ReservationId reservation);
  void unbind(std::uint16_t port);
  [[nodiscard]] std::uint16_t allocate_ephemeral_port();

  net::Host& host_;
  IsdAsn local_as_;
  std::unordered_map<std::uint16_t, ScionSocket*> sockets_;
  std::unordered_map<std::uint64_t, ScmpFn> scmp_subscribers_;
  std::uint64_t next_scmp_id_ = 1;
  std::uint16_t next_ephemeral_ = 45000;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t parse_errors_ = 0;
  std::uint64_t scmp_received_ = 0;
};

class ScionSocket {
 public:
  ScionSocket(ScionStack& stack, std::uint16_t port, ScionStack::RecvFn on_receive);
  ~ScionSocket();

  ScionSocket(const ScionSocket&) = delete;
  ScionSocket& operator=(const ScionSocket&) = delete;

  [[nodiscard]] std::uint16_t local_port() const { return port_; }
  [[nodiscard]] ScionEndpoint local_endpoint() const {
    return ScionEndpoint{stack_.local_addr(), port_};
  }
  [[nodiscard]] ScionStack& stack() { return stack_; }

  /// Sends a datagram along `path` (which must lead from the local AS to
  /// dst's AS; empty for intra-AS destinations). A nonzero reservation id
  /// claims Colibri priority bandwidth — routers validate and police it.
  /// If `payload` carries at least path.header_size() bytes of headroom
  /// (see PacketView::with_headroom), the SCION header is prepended in place
  /// and the datagram is never copied; otherwise it is copied once.
  void send_to(const ScionEndpoint& dst, const WirePath& path, net::PacketView payload,
               ReservationId reservation = 0);

 private:
  friend class ScionStack;
  void deliver(const ScionEndpoint& from, const ScionHeaderView& header,
               net::PacketView payload);

  ScionStack& stack_;
  std::uint16_t port_;
  ScionStack::RecvFn on_receive_;
};

}  // namespace pan::scion
