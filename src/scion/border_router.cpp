#include "scion/border_router.hpp"

#include "util/log.hpp"

namespace pan::scion {

namespace {

constexpr std::string_view kLog = "br";
/// Per-packet header processing time.
constexpr Duration kProcessingDelay = microseconds(5);

enum class FieldCheck : std::uint8_t { kOk, kWrongAs, kBadMac, kExpired };

// Shared hop-field validation: AS ownership, MAC, expiry. SCMP error reports
// get an expiry grace: they travel the reversed prefix of the very path whose
// hops just expired, and the source must still learn about it. MAC validity
// (path authorization) is never waived.
FieldCheck check_hop_field(const HopField& hf, std::uint32_t origin_ts, bool is_scmp,
                           IsdAsn local, HopMacVerifier& macs,
                           const BorderRouterConfig& config) {
  if (hf.isd_as != local) return FieldCheck::kWrongAs;
  if (!macs.verify(hf, origin_ts)) return FieldCheck::kBadMac;
  if (!is_scmp && config.current_unix_time != 0 &&
      origin_ts + hf.expiry_s < config.current_unix_time) {
    return FieldCheck::kExpired;
  }
  return FieldCheck::kOk;
}

HopDecision drop(HopDecision::Action action) {
  HopDecision d;
  d.action = action;
  return d;
}

HopDecision::Action to_drop_action(FieldCheck check) {
  switch (check) {
    case FieldCheck::kWrongAs: return HopDecision::Action::kDropWrongAs;
    case FieldCheck::kBadMac: return HopDecision::Action::kDropMac;
    case FieldCheck::kExpired: return HopDecision::Action::kDropExpired;
    case FieldCheck::kOk: break;
  }
  return HopDecision::Action::kDropParse;
}

}  // namespace

HopDecision decide_hop(std::span<const std::uint8_t> packet_bytes, IsdAsn local,
                       const ForwardingKey& key, const BorderRouterConfig& config) {
  HopMacVerifier macs(key);
  return decide_hop(packet_bytes, local, macs, config);
}

HopDecision decide_hop(std::span<const std::uint8_t> packet_bytes, IsdAsn local,
                       HopMacVerifier& macs, const BorderRouterConfig& config) {
  const Result<ScionHeaderView> parsed = ScionHeaderView::parse(packet_bytes);
  if (!parsed.ok()) return drop(HopDecision::Action::kDropParse);
  const ScionHeaderView& view = parsed.value();

  HopDecision d;
  d.reservation_id = view.reservation_id();
  d.dst = view.dst();

  // Intra-AS packet: empty path, deliver directly.
  if (view.segment_count() == 0) {
    d.action = HopDecision::Action::kDeliver;
    return d;
  }

  const std::uint8_t seg_idx = view.cur_seg();
  const std::uint8_t hop_idx = view.cur_hop();
  if (seg_idx >= view.segment_count()) return drop(HopDecision::Action::kDropMalformed);
  const ScionHeaderView::SegmentInfo seg = view.segment(seg_idx);
  if (hop_idx >= seg.hop_count) return drop(HopDecision::Action::kDropMalformed);

  const bool is_scmp = view.next_proto() == kProtoScmp;
  const HopField hf = view.hop(seg, hop_idx);
  const FieldCheck check = check_hop_field(hf, seg.origin_ts, is_scmp, local, macs, config);
  if (check != FieldCheck::kOk) return drop(to_drop_action(check));

  const IfaceId egress = ScionHeaderView::traversal_egress(seg, hf);
  if (egress != kNoIface) {
    // A nonzero egress at the segment's last hop is a peering crossing: the
    // next AS's hop field lives at the start of the next segment.
    d.egress = egress;
    d.next_seg = seg_idx;
    d.next_hop = static_cast<std::uint8_t>(hop_idx + 1);
    if (hop_idx + 1 == seg.hop_count) {
      if (seg_idx + 1 >= view.segment_count()) {
        return drop(HopDecision::Action::kDropMalformed);
      }
      d.next_seg = static_cast<std::uint8_t>(seg_idx + 1);
      d.next_hop = 0;
    }
    d.action = HopDecision::Action::kForward;
    return d;
  }

  // Segment end at this AS.
  if (seg_idx + 1 == view.segment_count()) {
    d.action = HopDecision::Action::kDeliver;
    return d;
  }

  // Crossover: the next segment must start here with no ingress interface.
  const ScionHeaderView::SegmentInfo next_seg =
      view.segment(static_cast<std::uint8_t>(seg_idx + 1));
  if (next_seg.hop_count == 0) return drop(HopDecision::Action::kDropMalformed);
  const HopField hop0 = view.hop(next_seg, 0);
  if (ScionHeaderView::traversal_ingress(next_seg, hop0) != kNoIface) {
    return drop(HopDecision::Action::kDropMalformed);
  }
  const FieldCheck next_check =
      check_hop_field(hop0, next_seg.origin_ts, is_scmp, local, macs, config);
  if (next_check != FieldCheck::kOk) return drop(to_drop_action(next_check));

  const IfaceId next_egress = ScionHeaderView::traversal_egress(next_seg, hop0);
  if (next_egress == kNoIface) {
    if (seg_idx + 2 == view.segment_count()) {
      // A one-hop final segment ending right here.
      d.action = HopDecision::Action::kDeliver;
      return d;
    }
    return drop(HopDecision::Action::kDropMalformed);
  }
  d.action = HopDecision::Action::kForward;
  d.egress = next_egress;
  d.next_seg = static_cast<std::uint8_t>(seg_idx + 1);
  d.next_hop = 1;
  return d;
}

BorderRouter::BorderRouter(net::Router& router, IsdAsn local, const ForwardingKey& key,
                           BorderRouterConfig config)
    : router_(router), local_(local), macs_(key), config_(config) {
  router_.set_scion_handler(
      [this](net::Packet&& p, net::IfId in_if) { handle(std::move(p), in_if); });
}

void BorderRouter::handle(net::Packet&& packet, net::IfId /*in_if*/) {
  router_.network().simulator().schedule_after(
      kProcessingDelay, [this, p = std::move(packet)]() mutable { process(std::move(p)); });
}

BorderRouter::HopCheck BorderRouter::check_hop(const DataplaneSegment& seg,
                                               std::size_t hop_index, bool is_scmp) {
  const HopField& hf = seg.hop_at(hop_index);
  switch (check_hop_field(hf, seg.origin_ts, is_scmp, local_, macs_, config_)) {
    case FieldCheck::kWrongAs:
      ++stats_.drop_wrong_as;
      PAN_DEBUG(kLog) << local_.to_string() << ": hop field for " << hf.isd_as.to_string();
      return HopCheck::kWrongAs;
    case FieldCheck::kBadMac:
      ++stats_.drop_mac;
      PAN_DEBUG(kLog) << local_.to_string() << ": hop-field MAC verification failed";
      return HopCheck::kBadMac;
    case FieldCheck::kExpired:
      ++stats_.drop_expired;
      return HopCheck::kExpired;
    case FieldCheck::kOk:
      break;
  }
  return HopCheck::kOk;
}

void BorderRouter::send_scmp(const ScionHeader& original, std::size_t cur_seg,
                             std::size_t cur_hop, ScmpType type, IfaceId interface) {
  if (original.next_proto == kProtoScmp) return;  // never report on reports
  if (original.src.ia.is_unspecified()) return;

  ScmpMessage message;
  message.type = type;
  message.origin_as = local_;
  message.interface = interface;
  message.original_dst = original.dst;
  message.original_dst_port = original.dst_port;

  ScionHeader header;
  header.src = ScionAddr{local_, net::IpAddr{0}};
  header.dst = original.src;
  header.next_proto = kProtoScmp;
  header.path = original.path.reversed_prefix(cur_seg, cur_hop);
  header.cur_seg = 0;
  header.cur_hop = 0;

  net::Packet packet;
  packet.proto = net::Protocol::kScion;
  packet.dst = original.src.host;
  // Serialize the SCMP payload straight into the packet buffer after the
  // header — one buffer, one pass, no concatenation copy.
  ByteWriter w;
  write_scion_header(w, header);
  message.serialize_into(w);
  packet.payload = net::PacketView(std::move(w).take());
  ++stats_.scmp_sent;
  PAN_DEBUG(kLog) << local_.to_string() << ": originating " << message.to_string();
  // The report enters this router's own forwarding path: the first hop of
  // the reversed prefix is our hop field.
  process(std::move(packet));
}

void BorderRouter::send_scmp_from_bytes(std::span<const std::uint8_t> packet_bytes,
                                        ScmpType type, IfaceId interface) {
  // Cold path (errors only): materialize the full header to build the
  // reversed return route.
  const Result<ParsedScionPacket> parsed = parse_scion_packet(packet_bytes);
  if (!parsed.ok()) return;
  const ScionHeader& header = parsed.value().header;
  send_scmp(header, header.cur_seg, header.cur_hop, type, interface);
}

bool BorderRouter::police_reservation(std::uint32_t reservation_id, net::Packet& packet) {
  // Reservation validation and policing (Colibri-lite): conforming packets
  // ride priority; unknown/expired/over-rate reservations are dropped so a
  // forged or abusive id cannot claim priority capacity.
  if (reservation_id == 0 || config_.reservations == nullptr) return true;
  const PoliceResult verdict = config_.reservations->police(
      reservation_id, local_, router_.network().simulator().now(), packet.wire_size());
  if (verdict != PoliceResult::kAllow) {
    ++stats_.drop_reservation;
    PAN_DEBUG(kLog) << local_.to_string() << ": reservation drop ("
                    << static_cast<int>(verdict) << ") id " << reservation_id;
    return false;
  }
  packet.priority = true;
  return true;
}

void BorderRouter::process(net::Packet&& packet) {
  if (config_.legacy_reparse) {
    process_legacy(std::move(packet));
  } else {
    process_view(std::move(packet));
  }
}

void BorderRouter::process_view(net::Packet&& packet) {
  const HopDecision d = decide_hop(packet.payload.span(), local_, macs_, config_);
  switch (d.action) {
    case HopDecision::Action::kForward:
      if (!police_reservation(d.reservation_id, packet)) return;
      send_out(d.egress, d.next_seg, d.next_hop, std::move(packet));
      return;
    case HopDecision::Action::kDeliver:
      if (!police_reservation(d.reservation_id, packet)) return;
      deliver_local(d.dst, std::move(packet));
      return;
    case HopDecision::Action::kDropParse:
      ++stats_.drop_parse;
      PAN_DEBUG(kLog) << local_.to_string() << ": SCION parse failed";
      return;
    case HopDecision::Action::kDropWrongAs:
      ++stats_.drop_wrong_as;
      PAN_DEBUG(kLog) << local_.to_string() << ": hop field for another AS";
      return;
    case HopDecision::Action::kDropMac:
      ++stats_.drop_mac;
      PAN_DEBUG(kLog) << local_.to_string() << ": hop-field MAC verification failed";
      return;
    case HopDecision::Action::kDropExpired:
      ++stats_.drop_expired;
      send_scmp_from_bytes(packet.payload.span(), ScmpType::kExpiredHop, kNoIface);
      return;
    case HopDecision::Action::kDropMalformed:
      ++stats_.drop_malformed_path;
      return;
  }
}

void BorderRouter::process_legacy(net::Packet&& packet) {
  auto parsed = parse_scion_packet(packet.payload.span());
  if (!parsed.ok()) {
    ++stats_.drop_parse;
    PAN_DEBUG(kLog) << local_.to_string() << ": " << parsed.error();
    return;
  }
  const ScionHeader& header = parsed.value().header;

  if (!police_reservation(header.reservation_id, packet)) return;

  // Intra-AS packet: empty path, deliver directly.
  if (header.path.segments.empty()) {
    deliver_local(header.dst, std::move(packet));
    return;
  }

  const std::size_t seg_idx = header.cur_seg;
  const std::size_t hop_idx = header.cur_hop;
  if (seg_idx >= header.path.segments.size() ||
      hop_idx >= header.path.segments[seg_idx].length()) {
    ++stats_.drop_malformed_path;
    return;
  }
  const DataplaneSegment& seg = header.path.segments[seg_idx];
  const bool is_scmp = header.next_proto == kProtoScmp;
  switch (check_hop(seg, hop_idx, is_scmp)) {
    case HopCheck::kOk:
      break;
    case HopCheck::kExpired:
      send_scmp(header, seg_idx, hop_idx, ScmpType::kExpiredHop, kNoIface);
      return;
    default:
      return;
  }

  const IfaceId egress = seg.traversal_egress(hop_idx);
  if (egress != kNoIface) {
    // A nonzero egress at the segment's last hop is a peering crossing: the
    // next AS's hop field lives at the start of the next segment.
    std::uint8_t next_seg = static_cast<std::uint8_t>(seg_idx);
    std::uint8_t next_hop = static_cast<std::uint8_t>(hop_idx + 1);
    if (hop_idx + 1 == seg.length()) {
      if (seg_idx + 1 >= header.path.segments.size()) {
        ++stats_.drop_malformed_path;
        return;
      }
      next_seg = static_cast<std::uint8_t>(seg_idx + 1);
      next_hop = 0;
    }
    send_out(egress, next_seg, next_hop, std::move(packet));
    return;
  }

  // Segment end at this AS.
  const bool last_segment = seg_idx + 1 == header.path.segments.size();
  if (last_segment) {
    deliver_local(header.dst, std::move(packet));
    return;
  }

  // Crossover: the next segment must start here with no ingress interface.
  const DataplaneSegment& next_seg = header.path.segments[seg_idx + 1];
  if (next_seg.length() == 0 || next_seg.traversal_ingress(0) != kNoIface) {
    ++stats_.drop_malformed_path;
    return;
  }
  switch (check_hop(next_seg, 0, is_scmp)) {
    case HopCheck::kOk:
      break;
    case HopCheck::kExpired:
      // Report with the cursor still on our completed hop so the reversed
      // prefix ends at this AS.
      send_scmp(header, seg_idx, hop_idx, ScmpType::kExpiredHop, kNoIface);
      return;
    default:
      return;
  }
  const IfaceId next_egress = next_seg.traversal_egress(0);
  if (next_egress == kNoIface) {
    if (seg_idx + 2 == header.path.segments.size()) {
      // A one-hop final segment ending right here.
      deliver_local(header.dst, std::move(packet));
    } else {
      ++stats_.drop_malformed_path;
    }
    return;
  }
  send_out(next_egress, static_cast<std::uint8_t>(seg_idx + 1), 1, std::move(packet));
}

void BorderRouter::deliver_local(const ScionAddr& dst, net::Packet&& packet) {
  if (dst.ia != local_) {
    ++stats_.drop_wrong_as;
    return;
  }
  const auto access_if = router_.host_route(dst.host);
  if (!access_if.has_value()) {
    ++stats_.drop_no_host;
    PAN_DEBUG(kLog) << local_.to_string() << ": no host " << dst.host.to_string();
    return;
  }
  ++stats_.delivered;
  packet.dst = dst.host;
  router_.network().send(router_.node(), *access_if, std::move(packet));
}

void BorderRouter::send_out(IfaceId egress, std::uint8_t cur_seg, std::uint8_t cur_hop,
                            net::Packet&& packet) {
  const net::IfId out_if = to_net_if(egress);
  if (out_if >= router_.network().interface_count(router_.node())) {
    ++stats_.drop_malformed_path;
    return;
  }
  if (!router_.network().link_up(router_.node(), out_if)) {
    ++stats_.drop_link_down;
    // The failure happened while processing the hop *before* the advanced
    // cursor; the packet bytes still carry that cursor, so report from there.
    send_scmp_from_bytes(packet.payload.span(), ScmpType::kLinkDown, egress);
    return;
  }
  patch_cursor(packet.payload, cur_seg, cur_hop);
  ++stats_.forwarded;
  if (config_.forward_latency != nullptr) {
    config_.forward_latency->record(router_.network().simulator().now() - packet.sent_at);
  }
  router_.network().send(router_.node(), out_if, std::move(packet));
}

}  // namespace pan::scion
