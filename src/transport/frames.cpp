#include "transport/frames.hpp"

#include <cassert>

#include "util/buffer.hpp"

namespace pan::transport {
namespace {

enum class FrameType : std::uint8_t {
  kHello = 1,
  kStream = 3,
  kAck = 4,
  kClose = 5,
  kPing = 6,
};

// Templated over the writer so the growing (ByteWriter) and pre-sized
// headroom (util::SpanWriter) paths share one definition.
template <typename Writer>
void write_frame(Writer& w, const Frame& frame) {
  if (const auto* hello = std::get_if<HelloFrame>(&frame)) {
    w.u8(static_cast<std::uint8_t>(FrameType::kHello));
    w.u8(hello->reply ? 1 : 0);
    w.u8(hello->round);
    w.lp_str(hello->alpn);
  } else if (const auto* stream = std::get_if<StreamFrame>(&frame)) {
    w.u8(static_cast<std::uint8_t>(FrameType::kStream));
    w.u32(stream->stream_id);
    w.u64(stream->offset);
    w.u8(stream->fin ? 1 : 0);
    w.lp_bytes(stream->data.span());
  } else if (const auto* ack = std::get_if<AckFrame>(&frame)) {
    w.u8(static_cast<std::uint8_t>(FrameType::kAck));
    w.u8(static_cast<std::uint8_t>(ack->ranges.size()));
    for (const AckRange& range : ack->ranges) {
      w.u64(range.first);
      w.u64(range.last);
    }
  } else if (const auto* close = std::get_if<CloseFrame>(&frame)) {
    w.u8(static_cast<std::uint8_t>(FrameType::kClose));
    w.lp_str(close->reason);
  } else if (std::get_if<PingFrame>(&frame) != nullptr) {
    w.u8(static_cast<std::uint8_t>(FrameType::kPing));
  }
}

std::size_t frame_wire_size(const Frame& frame) {
  if (const auto* hello = std::get_if<HelloFrame>(&frame)) {
    return 1 + 1 + 1 + 2 + hello->alpn.size();
  }
  if (const auto* stream = std::get_if<StreamFrame>(&frame)) {
    return stream_frame_overhead() + stream->data.size();
  }
  if (const auto* ack = std::get_if<AckFrame>(&frame)) {
    return 1 + 1 + ack->ranges.size() * 16;
  }
  if (const auto* close = std::get_if<CloseFrame>(&frame)) {
    return 1 + 2 + close->reason.size();
  }
  return 1;  // PING
}

template <typename Writer>
void write_packet(Writer& w, const TransportPacket& packet) {
  w.u8(static_cast<std::uint8_t>(packet.kind));
  w.u8(static_cast<std::uint8_t>(packet.type));
  w.u64(packet.conn_id);
  w.u64(packet.packet_number);
  for (const Frame& frame : packet.frames) {
    write_frame(w, frame);
  }
}

/// Reads one frame of `data` into `out`. STREAM data become a sub-view of
/// `data`; a truncated frame leaves `r` failed.
Status read_frame(ByteReader& r, const net::PacketView& data, Frame& out) {
  const auto type = static_cast<FrameType>(r.u8());
  switch (type) {
    case FrameType::kHello: {
      HelloFrame& f = out.emplace<HelloFrame>();
      f.reply = r.u8() != 0;
      f.round = r.u8();
      f.alpn = r.lp_str();
      return {};
    }
    case FrameType::kStream: {
      StreamFrame& f = out.emplace<StreamFrame>();
      f.stream_id = r.u32();
      f.offset = r.u64();
      f.fin = r.u8() != 0;
      const std::uint16_t len = r.u16();
      const std::size_t at = r.position();
      r.skip(len);
      if (!r.failed()) f.data = data.subview(at, len);
      return {};
    }
    case FrameType::kAck: {
      AckFrame& f = out.emplace<AckFrame>();
      const std::uint8_t n = r.u8();
      if (n > kMaxAckRanges) return Err("too many ack ranges");
      for (std::uint8_t i = 0; i < n; ++i) {
        AckRange range;
        range.first = r.u64();
        range.last = r.u64();
        f.ranges.push_back(range);
      }
      return {};
    }
    case FrameType::kClose:
      out.emplace<CloseFrame>().reason = r.lp_str();
      return {};
    case FrameType::kPing:
      out.emplace<PingFrame>();
      return {};
  }
  return Err("unknown frame type " + std::to_string(static_cast<int>(type)));
}

}  // namespace

const char* to_string(TransportKind k) {
  switch (k) {
    case TransportKind::kQuicLite: return "quic-lite";
    case TransportKind::kTcpLite: return "tcp-lite";
  }
  return "?";
}

bool AckFrame::contains(std::uint64_t pn) const {
  for (const AckRange& range : ranges) {
    if (pn >= range.first && pn <= range.last) return true;
  }
  return false;
}

Bytes serialize_packet(const TransportPacket& packet) {
  ByteWriter w;
  write_packet(w, packet);
  return std::move(w).take();
}

std::size_t serialized_packet_size(const TransportPacket& packet) {
  std::size_t size = packet_header_size();
  for (const Frame& frame : packet.frames) {
    size += frame_wire_size(frame);
  }
  return size;
}

net::PacketView serialize_packet_view(const TransportPacket& packet, std::size_t headroom) {
  net::PacketView view =
      net::PacketView::with_headroom(headroom, serialized_packet_size(packet));
  util::SpanWriter w(view.mutable_span());
  write_packet(w, packet);
  assert(!w.failed() && w.remaining() == 0);
  return view;
}

Status parse_packet_into(const net::PacketView& data, TransportPacket& out) {
  out.frames.clear();
  ByteReader r(data.span());
  const std::uint8_t kind = r.u8();
  if (kind != static_cast<std::uint8_t>(TransportKind::kQuicLite) &&
      kind != static_cast<std::uint8_t>(TransportKind::kTcpLite)) {
    return Err("bad transport magic");
  }
  out.kind = static_cast<TransportKind>(kind);
  out.type = static_cast<PacketType>(r.u8());
  out.conn_id = r.u64();
  out.packet_number = r.u64();
  while (!r.failed() && r.remaining() > 0) {
    Status frame = read_frame(r, data, out.frames.emplace_back());
    if (!frame.ok()) {
      out.frames.clear();
      return frame;
    }
  }
  if (r.failed()) {
    out.frames.clear();
    return Err("truncated transport packet");
  }
  return {};
}

Result<TransportPacket> parse_packet(std::span<const std::uint8_t> data) {
  TransportPacket packet;
  Status parsed = parse_packet_into(net::PacketView::copy_of(data), packet);
  if (!parsed.ok()) return Err(parsed.error());
  return packet;
}

std::size_t stream_frame_overhead() { return 1 + 4 + 8 + 1 + 2; }

std::size_t packet_header_size() { return 1 + 1 + 8 + 8; }

}  // namespace pan::transport
