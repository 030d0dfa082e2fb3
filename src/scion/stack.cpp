#include "scion/stack.hpp"

#include <algorithm>
#include <cassert>

#include "util/log.hpp"

namespace pan::scion {

namespace {
constexpr std::string_view kLog = "snet";
}

ScionStack::ScionStack(net::Host& host, IsdAsn local_as) : host_(host), local_as_(local_as) {
  host_.set_scion_handler(
      [this](net::Packet&& p, net::IfId in_if) { handle(std::move(p), in_if); });
}

std::unique_ptr<ScionSocket> ScionStack::bind(std::uint16_t port, RecvFn on_receive) {
  if (port == 0) {
    port = allocate_ephemeral_port();
    if (port == 0) return nullptr;
  } else if (sockets_.contains(port)) {
    return nullptr;
  }
  auto socket = std::make_unique<ScionSocket>(*this, port, std::move(on_receive));
  sockets_[port] = socket.get();
  return socket;
}

std::uint16_t ScionStack::allocate_ephemeral_port() {
  for (std::uint32_t attempt = 0; attempt < 20000; ++attempt) {
    const std::uint16_t candidate =
        static_cast<std::uint16_t>(45000 + (next_ephemeral_ - 45000 + attempt) % 20000);
    if (!sockets_.contains(candidate)) {
      next_ephemeral_ = static_cast<std::uint16_t>(candidate + 1);
      if (next_ephemeral_ >= 65000) next_ephemeral_ = 45000;
      return candidate;
    }
  }
  return 0;
}

void ScionStack::send(std::uint16_t src_port, const ScionEndpoint& dst, const WirePath& path,
                      net::PacketView payload, ReservationId reservation) {
  ScionHeader header;
  header.src = local_addr();
  header.dst = dst.addr;
  header.src_port = src_port;
  header.dst_port = dst.port;
  header.reservation_id = reservation;
  header.cur_seg = 0;
  header.cur_hop = 0;

  net::Packet packet;
  packet.proto = net::Protocol::kScion;
  packet.src = host_.address();
  packet.dst = dst.addr.host;
  packet.src_port = src_port;
  packet.dst_port = dst.port;

  // The transport serializes its frames into buffers with SCION headroom
  // reserved, so the header is written in place right in front of the
  // datagram, its path section with one copy. A payload without headroom
  // (tests, probes) is copied once into a buffer that has it.
  const std::size_t header_size = path.header_size();
  if (payload.headroom() < header_size) {
    net::PacketView roomy = net::PacketView::with_headroom(header_size, payload.size());
    std::ranges::copy(payload.span(), roomy.mutable_span().begin());
    payload = std::move(roomy);
  }
  util::SpanWriter w(payload.prepend(header_size));
  write_scion_header(w, header, path);
  assert(!w.failed() && w.remaining() == 0);
  packet.payload = std::move(payload);
  ++sent_;
  host_.send_packet(std::move(packet));
}

void ScionStack::handle(net::Packet&& packet, net::IfId /*in_if*/) {
  const auto parsed = ScionHeaderView::parse(packet.payload.span());
  if (!parsed.ok()) {
    ++parse_errors_;
    PAN_DEBUG(kLog) << "parse error: " << parsed.error();
    return;
  }
  const ScionHeaderView& header = parsed.value();
  const ScionAddr dst = header.dst();
  if (dst.ia != local_as_ || dst.host != host_.address()) {
    PAN_DEBUG(kLog) << "misdelivered SCION packet for " << dst.to_string();
    return;
  }
  if (header.next_proto() == kProtoScmp) {
    const auto message = ScmpMessage::parse(header.payload());
    if (!message.ok()) {
      ++parse_errors_;
      return;
    }
    ++scmp_received_;
    PAN_DEBUG(kLog) << "received " << message.value().to_string();
    // Copy the subscriber list: handlers may (un)subscribe re-entrantly.
    const auto subscribers = scmp_subscribers_;
    for (const auto& [id, fn] : subscribers) {
      if (fn) fn(message.value());
    }
    return;
  }
  const auto it = sockets_.find(header.dst_port());
  if (it == sockets_.end()) {
    PAN_DEBUG(kLog) << "no SCION socket on port " << header.dst_port();
    return;
  }
  ++received_;
  const ScionEndpoint from{header.src(), header.src_port()};
  // Zero-copy delivery: hand the receiver a sub-view of the packet buffer
  // starting at the payload (the header bytes stay in the shared storage).
  it->second->deliver(from, header, packet.payload.subview(header.payload_offset()));
}

void ScionStack::unbind(std::uint16_t port) { sockets_.erase(port); }

std::uint64_t ScionStack::subscribe_scmp(ScmpFn on_message) {
  const std::uint64_t id = next_scmp_id_++;
  scmp_subscribers_[id] = std::move(on_message);
  return id;
}

void ScionStack::unsubscribe_scmp(std::uint64_t id) { scmp_subscribers_.erase(id); }

ScionSocket::ScionSocket(ScionStack& stack, std::uint16_t port, ScionStack::RecvFn on_receive)
    : stack_(stack), port_(port), on_receive_(std::move(on_receive)) {}

ScionSocket::~ScionSocket() { stack_.unbind(port_); }

void ScionSocket::send_to(const ScionEndpoint& dst, const WirePath& path,
                          net::PacketView payload, ReservationId reservation) {
  stack_.send(port_, dst, path, std::move(payload), reservation);
}

void ScionSocket::deliver(const ScionEndpoint& from, const ScionHeaderView& header,
                          net::PacketView payload) {
  if (on_receive_) on_receive_(from, header, std::move(payload));
}

}  // namespace pan::scion
