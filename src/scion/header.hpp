// SCION packet header wire format.
//
// Every SCION packet in the simulator is a real byte string parsed at every
// border router, so header size (which grows with path length) feeds the
// bandwidth/serialization model for free.
//
// Layout (big endian):
//   u8  magic (0x5C)
//   u8  current segment index
//   u8  current hop index (within current segment, traversal order)
//   u8  next protocol (17 = UDP)
//   u64 src ISD-AS   u32 src host
//   u64 dst ISD-AS   u32 dst host
//   u16 src port     u16 dst port
//   u32 reservation id
//   u8  segment count
//   per segment: u8 flags (bit0 = reversed), u32 origin_ts, u8 hop count,
//                hop fields (see hopfield.cpp)
//   payload (rest of packet)
//
// Two parsers exist over this format:
//  - parse_scion_packet: materializes the full ScionHeader (every segment,
//    every hop field) into owning structures. Cold paths only — SCMP
//    origination and the legacy per-hop reparse kept for equivalence
//    testing. End hosts do not use it.
//  - ScionHeaderView: the hot-path lazy view. One O(#segments) arithmetic
//    walk validates structural bounds, then accessors decode exactly the
//    fields a border router touches (the cursor and one hop field) straight
//    from the wire bytes. No heap allocation anywhere. End hosts receive
//    through it too.
//
// The path section (segment count onward) has one encoder, WirePath: end
// hosts build it once per path and prepend it to every datagram with one
// copy; a server derives its reply path from a received view at the byte
// level (WirePath::reply_to) and checks later datagrams against it without
// allocating (WirePath::is_reply_to).
#pragma once

#include "net/packet.hpp"
#include "scion/addr.hpp"
#include "scion/path.hpp"
#include "util/buffer.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace pan::scion {

inline constexpr std::uint8_t kScionMagic = 0x5C;
inline constexpr std::uint8_t kProtoUdp = 17;

/// Offset of the path section (its u8 segment count): the size of the
/// address/port/reservation prefix in front of it.
inline constexpr std::size_t kScionPathOffset = 36;
/// Size of the fixed (path-independent) header prefix, segment count
/// included.
inline constexpr std::size_t kScionFixedHeaderSize = kScionPathOffset + 1;
/// Per-segment metadata: u8 flags + u32 origin_ts + u8 hop count.
inline constexpr std::size_t kSegmentMetaSize = 6;

struct ScionHeader {
  ScionAddr src;
  ScionAddr dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t next_proto = kProtoUdp;
  /// Colibri-style bandwidth reservation id (0 = best effort). Border
  /// routers validate and police it.
  std::uint32_t reservation_id = 0;
  DataplanePath path;
  /// Cursor: which segment / which traversal hop the next router processes.
  std::uint8_t cur_seg = 0;
  std::uint8_t cur_hop = 0;
};

class ScionHeaderView;

/// A path section in wire form: the u8 segment count, then per segment its
/// meta (u8 flags, u32 origin_ts, u8 hop count) and hop fields — exactly the
/// bytes a header carries after its kScionPathOffset-byte prefix. Built once
/// per path, so a sender prepends it with one copy and never re-encodes hop
/// fields. The empty (intra-AS) path holds no heap storage.
class WirePath {
 public:
  /// The empty (intra-AS) path.
  WirePath() = default;
  /// Encodes `path`. The one encoder of the path section: headers written
  /// from a materialized ScionHeader go through it too.
  explicit WirePath(const DataplanePath& path);

  /// The path a receiver replies over: the view's segments in reverse
  /// order, each flag flipped, hop fields copied verbatim. The flag is
  /// written as (flags & 1) ^ 1, so the bytes equal
  /// WirePath(view.materialize().path.reversed()) even when the sender set
  /// high flag bits. Takes the view, not raw bytes: the view is what proves
  /// every segment's hop fields lie inside the packet.
  [[nodiscard]] static WirePath reply_to(const ScionHeaderView& view);
  /// True iff reply_to(view) would equal *this. Allocation-free.
  [[nodiscard]] bool is_reply_to(const ScionHeaderView& view) const;

  /// The wire bytes, segment count first (one zero byte when empty).
  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return bytes_.empty() ? std::span<const std::uint8_t>(kNoSegments) : bytes_;
  }
  [[nodiscard]] bool empty() const { return bytes_.empty(); }
  /// Serialized SCION header size with this path (MTU math, headroom).
  [[nodiscard]] std::size_t header_size() const { return kScionPathOffset + bytes().size(); }

  bool operator==(const WirePath& other) const { return bytes_ == other.bytes_; }

 private:
  static constexpr std::uint8_t kNoSegments[1] = {0};
  // Empty for the empty path; otherwise never starts with a zero count.
  Bytes bytes_;
};

/// Writes the header (no payload) with `path` in place of `header.path`, so
/// a sender need not copy its path into the header. Templated over the
/// writer so the growing (ByteWriter) and headroom-prepend
/// (util::SpanWriter) paths emit byte-identical output from one definition.
template <typename Writer>
void write_scion_header(Writer& w, const ScionHeader& header, const WirePath& path) {
  w.u8(kScionMagic);
  w.u8(header.cur_seg);
  w.u8(header.cur_hop);
  w.u8(header.next_proto);
  w.u64(header.src.ia.packed());
  w.u32(header.src.host.value());
  w.u64(header.dst.ia.packed());
  w.u32(header.dst.host.value());
  w.u16(header.src_port);
  w.u16(header.dst_port);
  w.u32(header.reservation_id);
  w.raw(path.bytes());
}

/// Writes the header (no payload), path included. Encodes header.path on
/// each call: for cold paths (SCMP origination, tests).
template <typename Writer>
void write_scion_header(Writer& w, const ScionHeader& header) {
  write_scion_header(w, header, WirePath(header.path));
}

/// Serializes header + payload into one buffer.
[[nodiscard]] Bytes serialize_scion_packet(const ScionHeader& header,
                                           std::span<const std::uint8_t> payload);

struct ParsedScionPacket {
  ScionHeader header;
  /// Offset of the payload within the parsed bytes (== wire header size).
  std::size_t payload_offset = 0;
  /// View of the payload tail inside the input buffer — no copy. Valid only
  /// as long as the parsed bytes are; call payload_bytes() to own a copy.
  std::span<const std::uint8_t> payload;
  [[nodiscard]] Bytes payload_bytes() const { return Bytes(payload.begin(), payload.end()); }
  /// Byte offsets of the cursor fields, so routers can advance the cursor
  /// in place without reserializing the whole packet.
  static constexpr std::size_t kCurSegOffset = 1;
  static constexpr std::size_t kCurHopOffset = 2;
};

[[nodiscard]] Result<ParsedScionPacket> parse_scion_packet(std::span<const std::uint8_t> data);

/// Lazy, allocation-free view of a serialized SCION packet. parse() performs
/// one bounds-validation walk (arithmetic over segment metadata only — hop
/// fields are skipped, not decoded); accessors then read individual fields
/// at fixed offsets. The view borrows the packet bytes and must not outlive
/// them.
class ScionHeaderView {
 public:
  struct SegmentInfo {
    bool reversed = false;
    std::uint32_t origin_ts = 0;
    std::uint8_t hop_count = 0;
    /// Absolute offset of the segment's first wire hop field.
    std::size_t hops_offset = 0;
  };

  /// Validates magic, the fixed prefix, and that every segment's declared
  /// hop fields fit in the buffer. Does not decode hop fields or validate
  /// the cursor (routers check cursor range themselves, as with the eager
  /// parser).
  [[nodiscard]] static Result<ScionHeaderView> parse(std::span<const std::uint8_t> data);

  [[nodiscard]] std::uint8_t cur_seg() const { return data_[ParsedScionPacket::kCurSegOffset]; }
  [[nodiscard]] std::uint8_t cur_hop() const { return data_[ParsedScionPacket::kCurHopOffset]; }
  [[nodiscard]] std::uint8_t next_proto() const { return data_[3]; }
  [[nodiscard]] ScionAddr src() const {
    return ScionAddr{IsdAsn::from_packed(read_be64(data_.data() + 4)),
                     net::IpAddr{read_be32(data_.data() + 12)}};
  }
  [[nodiscard]] ScionAddr dst() const {
    return ScionAddr{IsdAsn::from_packed(read_be64(data_.data() + 16)),
                     net::IpAddr{read_be32(data_.data() + 24)}};
  }
  [[nodiscard]] std::uint16_t src_port() const { return read_be16(data_.data() + 28); }
  [[nodiscard]] std::uint16_t dst_port() const { return read_be16(data_.data() + 30); }
  [[nodiscard]] std::uint32_t reservation_id() const { return read_be32(data_.data() + 32); }
  [[nodiscard]] std::uint8_t segment_count() const { return seg_count_; }

  /// Metadata of segment `index` (skip-scan over preceding segments;
  /// `index < segment_count()`).
  [[nodiscard]] SegmentInfo segment(std::uint8_t index) const;

  /// Decodes exactly one hop field, addressed in traversal order (mirrors
  /// DataplaneSegment::hop_at: a reversed segment walks its wire hops
  /// back-to-front). `traversal_index < seg.hop_count`.
  [[nodiscard]] HopField hop(const SegmentInfo& seg, std::uint8_t traversal_index) const;

  /// Traversal-order ingress/egress of a decoded hop (mirrors
  /// DataplaneSegment::traversal_ingress/egress).
  [[nodiscard]] static IfaceId traversal_ingress(const SegmentInfo& seg, const HopField& hf) {
    return seg.reversed ? hf.out_if : hf.in_if;
  }
  [[nodiscard]] static IfaceId traversal_egress(const SegmentInfo& seg, const HopField& hf) {
    return seg.reversed ? hf.in_if : hf.out_if;
  }

  [[nodiscard]] std::size_t header_size() const { return header_size_; }
  /// The path section's wire bytes (segment count first); see WirePath.
  [[nodiscard]] std::span<const std::uint8_t> path_bytes() const {
    return data_.subspan(kScionPathOffset, header_size_ - kScionPathOffset);
  }
  [[nodiscard]] std::size_t payload_offset() const { return header_size_; }
  [[nodiscard]] std::span<const std::uint8_t> payload() const {
    return data_.subspan(header_size_);
  }

  /// Full eager decode, for cold paths (SCMP origination needs the whole
  /// path to compute the reversed prefix).
  [[nodiscard]] ScionHeader materialize() const;

 private:
  std::span<const std::uint8_t> data_;
  std::size_t header_size_ = 0;
  std::uint8_t seg_count_ = 0;
};

/// Patches the cursor bytes of a serialized SCION packet in place.
void patch_cursor(Bytes& packet, std::uint8_t cur_seg, std::uint8_t cur_hop);
/// View flavor: copy-on-write — storage is cloned first iff it is shared.
void patch_cursor(net::PacketView& packet, std::uint8_t cur_seg, std::uint8_t cur_hop);

}  // namespace pan::scion
