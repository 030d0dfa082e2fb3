// Wire format of the transport (QUIC-lite / TCP-lite) packets.
//
// Layout: u8 kind magic, u8 packet type, u64 connection id, u64 packet
// number, then a sequence of frames until the end of the datagram.
// Frames: HELLO / HELLO_REPLY (handshake, carry the ALPN), STREAM
// (stream id, offset, fin, data), ACK (ranges of received packet numbers),
// CLOSE, PING.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "net/packet.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace pan::transport {

enum class TransportKind : std::uint8_t { kQuicLite = 0xA1, kTcpLite = 0xB2 };

[[nodiscard]] const char* to_string(TransportKind k);

enum class PacketType : std::uint8_t { kInitial = 0, kHandshake = 1, kData = 2 };

struct HelloFrame {
  bool reply = false;
  /// Handshake round (0-based); used to emulate extra handshake RTTs.
  std::uint8_t round = 0;
  std::string alpn;
};

struct StreamFrame {
  std::uint32_t stream_id = 0;
  std::uint64_t offset = 0;
  bool fin = false;
  /// A slice of the sender's write buffer, or of the received datagram:
  /// stream bytes are copied only onto the wire.
  net::PacketView data;
};

struct AckRange {
  std::uint64_t first = 0;  // inclusive
  std::uint64_t last = 0;   // inclusive
};

inline constexpr std::size_t kMaxAckRanges = 16;

/// At most kMaxAckRanges ranges, stored inline so an ACK frame costs no
/// allocation to build or parse.
class AckRanges {
 public:
  AckRanges() = default;
  AckRanges(std::initializer_list<AckRange> ranges) { assign(ranges); }

  /// Replaces the contents with the first kMaxAckRanges of `ranges`.
  void assign(std::span<const AckRange> ranges) {
    size_ = static_cast<std::uint8_t>(std::min(ranges.size(), kMaxAckRanges));
    std::copy_n(ranges.begin(), size_, items_.begin());
  }
  /// No-op when full.
  void push_back(const AckRange& range) {
    if (size_ < kMaxAckRanges) items_[size_++] = range;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const AckRange& front() const { return items_[0]; }
  [[nodiscard]] const AckRange* begin() const { return items_.data(); }
  [[nodiscard]] const AckRange* end() const { return items_.data() + size_; }

 private:
  std::array<AckRange, kMaxAckRanges> items_{};
  std::uint8_t size_ = 0;
};

struct AckFrame {
  /// Ranges in descending order of packet number.
  AckRanges ranges;

  [[nodiscard]] std::uint64_t largest() const {
    return ranges.empty() ? 0 : ranges.front().last;
  }
  [[nodiscard]] bool contains(std::uint64_t pn) const;
};

struct CloseFrame {
  std::string reason;
};

struct PingFrame {};

using Frame = std::variant<HelloFrame, StreamFrame, AckFrame, CloseFrame, PingFrame>;

struct TransportPacket {
  TransportKind kind = TransportKind::kQuicLite;
  PacketType type = PacketType::kData;
  std::uint64_t conn_id = 0;
  std::uint64_t packet_number = 0;
  std::vector<Frame> frames;
};

[[nodiscard]] Bytes serialize_packet(const TransportPacket& packet);

/// Parses `data` into `out`, reusing its frame storage. STREAM frame data
/// are sub-views of `data` (no copy). On failure `out` holds no frames.
[[nodiscard]] Status parse_packet_into(const net::PacketView& data, TransportPacket& out);
/// parse_packet_into over a copy of `data`, for tests and fuzzing.
[[nodiscard]] Result<TransportPacket> parse_packet(std::span<const std::uint8_t> data);

/// Exact wire size serialize_packet would produce (for pre-sizing buffers).
[[nodiscard]] std::size_t serialized_packet_size(const TransportPacket& packet);

/// Serializes into a fresh buffer with `headroom` bytes reserved in front,
/// so the layer below (the SCION stack) can prepend its header in place
/// instead of copying the datagram. Byte-identical to serialize_packet.
[[nodiscard]] net::PacketView serialize_packet_view(const TransportPacket& packet,
                                                    std::size_t headroom);

/// Size in bytes a STREAM frame with `data_len` payload will occupy.
[[nodiscard]] std::size_t stream_frame_overhead();
/// Fixed per-packet header size.
[[nodiscard]] std::size_t packet_header_size();

}  // namespace pan::transport
