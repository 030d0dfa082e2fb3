#include "scion/header.hpp"

#include <cassert>
#include <cstring>

namespace pan::scion {

Bytes serialize_scion_packet(const ScionHeader& header, std::span<const std::uint8_t> payload) {
  ByteWriter w;
  write_scion_header(w, header);
  w.raw(payload);
  return std::move(w).take();
}

WirePath::WirePath(const DataplanePath& path) {
  if (path.empty()) return;
  std::size_t size = 1;
  for (const DataplaneSegment& seg : path.segments) {
    size += kSegmentMetaSize + seg.hops.size() * kHopFieldWireSize;
  }
  bytes_.resize(size);
  util::SpanWriter w(bytes_);
  w.u8(static_cast<std::uint8_t>(path.segments.size()));
  for (const DataplaneSegment& seg : path.segments) {
    w.u8(seg.reversed ? 1 : 0);
    w.u32(seg.origin_ts);
    w.u8(static_cast<std::uint8_t>(seg.hops.size()));
    for (const HopField& hf : seg.hops) {
      serialize_hop_field(w, hf);
    }
  }
  assert(!w.failed() && w.remaining() == 0);
}

namespace {

/// Pairs each segment of a received path section with its place in the
/// reply: walks `in` front to back and calls fn(in_off, out_off, size) with
/// the segment's offset in `in`, its offset in the reply (same total size,
/// segments in reverse order) and its size. `in` comes from a validated
/// ScionHeaderView, so every segment lies inside it.
template <typename Fn>
void for_each_reply_segment(std::span<const std::uint8_t> in, Fn&& fn) {
  std::size_t in_off = 1;
  std::size_t out_end = in.size();
  for (std::uint8_t s = 0; s < in[0]; ++s) {
    const std::size_t size = kSegmentMetaSize + std::size_t{in[in_off + 5]} * kHopFieldWireSize;
    out_end -= size;
    fn(in_off, out_end, size);
    in_off += size;
  }
}

/// A reply segment's flag byte: the received reversed bit, flipped.
std::uint8_t reply_flags(std::uint8_t in) { return static_cast<std::uint8_t>((in & 1) ^ 1); }

}  // namespace

WirePath WirePath::reply_to(const ScionHeaderView& view) {
  const std::span<const std::uint8_t> in = view.path_bytes();
  WirePath out;
  if (in[0] == 0) return out;
  out.bytes_.resize(in.size());
  out.bytes_[0] = in[0];
  for_each_reply_segment(in, [&](std::size_t in_off, std::size_t out_off, std::size_t size) {
    out.bytes_[out_off] = reply_flags(in[in_off]);
    std::memcpy(out.bytes_.data() + out_off + 1, in.data() + in_off + 1, size - 1);
  });
  return out;
}

bool WirePath::is_reply_to(const ScionHeaderView& view) const {
  const std::span<const std::uint8_t> in = view.path_bytes();
  const std::span<const std::uint8_t> mine = bytes();
  if (in.size() != mine.size() || in[0] != mine[0]) return false;
  bool same = true;
  for_each_reply_segment(in, [&](std::size_t in_off, std::size_t out_off, std::size_t size) {
    same = same && mine[out_off] == reply_flags(in[in_off]) &&
           std::memcmp(mine.data() + out_off + 1, in.data() + in_off + 1, size - 1) == 0;
  });
  return same;
}

Result<ParsedScionPacket> parse_scion_packet(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  if (r.u8() != kScionMagic) return Err("bad SCION magic");
  ParsedScionPacket out;
  ScionHeader& h = out.header;
  h.cur_seg = r.u8();
  h.cur_hop = r.u8();
  h.next_proto = r.u8();
  h.src.ia = IsdAsn::from_packed(r.u64());
  h.src.host = net::IpAddr{r.u32()};
  h.dst.ia = IsdAsn::from_packed(r.u64());
  h.dst.host = net::IpAddr{r.u32()};
  h.src_port = r.u16();
  h.dst_port = r.u16();
  h.reservation_id = r.u32();
  const std::uint8_t seg_count = r.u8();
  h.path.segments.reserve(seg_count);
  for (std::uint8_t s = 0; s < seg_count; ++s) {
    DataplaneSegment seg;
    seg.reversed = (r.u8() & 1) != 0;
    seg.origin_ts = r.u32();
    const std::uint8_t hop_count = r.u8();
    seg.hops.reserve(hop_count);
    for (std::uint8_t i = 0; i < hop_count; ++i) {
      seg.hops.push_back(parse_hop_field(r));
    }
    h.path.segments.push_back(std::move(seg));
  }
  if (r.failed()) return Err("truncated SCION header");
  out.payload_offset = r.position();
  out.payload = data.subspan(r.position());
  return out;
}

Result<ScionHeaderView> ScionHeaderView::parse(std::span<const std::uint8_t> data) {
  if (data.size() < kScionFixedHeaderSize) return Err("truncated SCION header");
  if (data[0] != kScionMagic) return Err("bad SCION magic");
  const std::uint8_t seg_count = data[kScionPathOffset];
  std::size_t off = kScionFixedHeaderSize;
  for (std::uint8_t s = 0; s < seg_count; ++s) {
    if (data.size() - off < kSegmentMetaSize) return Err("truncated SCION header");
    const std::uint8_t hop_count = data[off + 5];
    off += kSegmentMetaSize;
    const std::size_t hops_size = std::size_t{hop_count} * kHopFieldWireSize;
    if (data.size() - off < hops_size) return Err("truncated SCION header");
    off += hops_size;
  }
  ScionHeaderView v;
  v.data_ = data;
  v.header_size_ = off;
  v.seg_count_ = seg_count;
  return v;
}

ScionHeaderView::SegmentInfo ScionHeaderView::segment(std::uint8_t index) const {
  assert(index < seg_count_);
  std::size_t off = kScionFixedHeaderSize;
  for (std::uint8_t s = 0; s < index; ++s) {
    const std::uint8_t hop_count = data_[off + 5];
    off += kSegmentMetaSize + std::size_t{hop_count} * kHopFieldWireSize;
  }
  SegmentInfo info;
  info.reversed = (data_[off] & 1) != 0;
  info.origin_ts = read_be32(data_.data() + off + 1);
  info.hop_count = data_[off + 5];
  info.hops_offset = off + kSegmentMetaSize;
  return info;
}

HopField ScionHeaderView::hop(const SegmentInfo& seg, std::uint8_t traversal_index) const {
  assert(traversal_index < seg.hop_count);
  const std::size_t wire_index =
      seg.reversed ? std::size_t{seg.hop_count} - 1 - traversal_index : traversal_index;
  return decode_hop_field(data_.data() + seg.hops_offset + wire_index * kHopFieldWireSize);
}

ScionHeader ScionHeaderView::materialize() const {
  // The view validated bounds, so the eager parse cannot fail.
  Result<ParsedScionPacket> parsed = parse_scion_packet(data_);
  assert(parsed.ok());
  return std::move(parsed.value().header);
}

void patch_cursor(Bytes& packet, std::uint8_t cur_seg, std::uint8_t cur_hop) {
  if (packet.size() <= ParsedScionPacket::kCurHopOffset) return;
  packet[ParsedScionPacket::kCurSegOffset] = cur_seg;
  packet[ParsedScionPacket::kCurHopOffset] = cur_hop;
}

void patch_cursor(net::PacketView& packet, std::uint8_t cur_seg, std::uint8_t cur_hop) {
  if (packet.size() <= ParsedScionPacket::kCurHopOffset) return;
  std::span<std::uint8_t> bytes = packet.mutable_span();
  bytes[ParsedScionPacket::kCurSegOffset] = cur_seg;
  bytes[ParsedScionPacket::kCurHopOffset] = cur_hop;
}

}  // namespace pan::scion
