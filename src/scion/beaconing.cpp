// Beaconing: the SCION control plane's path exploration.
//
// We model beacon propagation as a k-best loopless path enumeration per
// origin (priority queue ordered by hop count, then accumulated latency,
// then a deterministic sequence number): each AS accepts and re-propagates
// the k best beacons it sees per origin, exactly the candidate-selection
// role real beacon stores play. Propagation happens at topology build time
// (the paper's experiments run against a converged control plane; beacon
// *timing* is not part of any figure).

#include <queue>

#include "scion/topology.hpp"
#include "util/log.hpp"

namespace pan::scion {

namespace {
constexpr std::string_view kLog = "beacon";
/// Lifetime every AS grants the hop fields it seals.
constexpr std::uint32_t kHopExpirySeconds = 24 * 3600;
}

void Topology::run_beaconing() {
  for (std::size_t i = 0; i < ases_.size(); ++i) {
    if (!ases_[i].spec.core) continue;
    // Core beaconing reaches other core ASes; down beaconing descends into
    // the ISD along parent->child links.
    propagate_beacons(i, /*core_beaconing=*/true);
    propagate_beacons(i, /*core_beaconing=*/false);
  }
  PAN_INFO(kLog) << "beaconing complete: " << infra_.core_segment_count() << " core + "
                 << infra_.down_segment_count() << " down segments";
}

void Topology::propagate_beacons(std::size_t origin_index, bool core_beaconing) {
  struct Candidate {
    std::size_t hop_count;
    std::int64_t latency_ns;
    std::uint64_t seq;  // deterministic tie-break
    std::vector<BeaconHop> hops;
  };
  struct Worse {
    bool operator()(const Candidate& a, const Candidate& b) const {
      if (a.hop_count != b.hop_count) return a.hop_count > b.hop_count;
      if (a.latency_ns != b.latency_ns) return a.latency_ns > b.latency_ns;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Candidate, std::vector<Candidate>, Worse> queue;
  std::vector<std::size_t> accepted(ases_.size(), 0);
  std::uint64_t seq = 0;

  queue.push(Candidate{1, 0, seq++, {BeaconHop{origin_index, kNoIface, kNoIface,
                                               static_cast<std::size_t>(-1)}}});

  while (!queue.empty()) {
    Candidate cand = queue.top();
    queue.pop();
    const std::size_t end_as = cand.hops.back().as_index;
    if (accepted[end_as] >= config_.beacons_per_origin) continue;
    ++accepted[end_as];

    // Register every accepted beacon that actually left the origin.
    if (cand.hops.size() > 1) {
      register_beacon(cand.hops, core_beaconing ? SegmentType::kCore : SegmentType::kDown);
    }

    // Re-propagate.
    for (const AsAdjacency& adj : ases_[end_as].adjacency) {
      const bool eligible = core_beaconing
                                ? adj.type == LinkType::kCore
                                : (adj.type == LinkType::kParentChild && adj.is_parent_side);
      if (!eligible) continue;
      const std::size_t next = adj.neighbor;
      bool loops = false;
      for (const BeaconHop& hop : cand.hops) {
        if (hop.as_index == next) {
          loops = true;
          break;
        }
      }
      if (loops) continue;
      if (accepted[next] >= config_.beacons_per_origin) continue;

      // Find the neighbor's interface on this link.
      IfaceId next_in_if = kNoIface;
      for (const AsAdjacency& back : ases_[next].adjacency) {
        if (back.link_spec_index == adj.link_spec_index) {
          next_in_if = back.scion_if;
          break;
        }
      }

      Candidate extended = cand;
      extended.hops.back().out_if = adj.scion_if;
      extended.hops.push_back(BeaconHop{next, next_in_if, kNoIface, adj.link_spec_index});
      extended.hop_count = extended.hops.size();
      extended.latency_ns += link_specs_[adj.link_spec_index].params.latency.nanos();
      extended.seq = seq++;
      queue.push(std::move(extended));
    }
  }
}

void Topology::register_beacon(const std::vector<BeaconHop>& hops, SegmentType type) {
  PathSegment segment = build_segment(hops, type);
  if (config_.sign_beacons && config_.verify_beacons) {
    // Memoize on the full content digest: a rebeacon over an unchanged
    // topology (same timestamp) rebuilds byte-identical segments, so their
    // signatures need no re-verification. Any change — new timestamp, new
    // metadata, tampering — alters the digest and forces a fresh verify.
    const crypto::Digest digest = segment.content_digest();
    if (verified_segments_.contains(digest)) {
      ++beacon_memo_hits_;
    } else {
      ++beacon_verifications_;
      if (!verify_segment(segment, trust_, &beacon_preimages_)) {
        PAN_ERROR(kLog) << "freshly built segment failed verification: " << segment.id();
        return;
      }
      verified_segments_.insert(digest);
    }
  }
  infra_.register_segment(std::move(segment));
}

PathSegment Topology::build_segment(const std::vector<BeaconHop>& hops,
                                    SegmentType type) const {
  PathSegment segment;
  segment.type = type;
  segment.origin = ases_[hops.front().as_index].spec.ia;
  segment.origin_ts = config_.beacon_timestamp;
  segment.entries.reserve(hops.size());

  for (const BeaconHop& hop : hops) {
    const AsState& as = ases_[hop.as_index];
    AsEntry entry;
    entry.hop.isd_as = as.spec.ia;
    entry.hop.in_if = hop.in_if;
    entry.hop.out_if = hop.out_if;
    entry.hop.expiry_s = kHopExpirySeconds;
    seal_hop_field(entry.hop, segment.origin_ts, as.forwarding_key);
    if (hop.in_link_index != static_cast<std::size_t>(-1)) {
      entry.ingress_link = link_meta(hop.in_link_index);
    }
    entry.as_meta = as.spec.meta;
    // Advertise peering shortcuts: a second hop field whose ingress is the
    // peering interface, sealed with the same key/epoch. Only meaningful in
    // down segments (peering paths join an up and a down segment).
    if (type == SegmentType::kDown) {
      for (const AsAdjacency& adj : as.adjacency) {
        if (adj.type != LinkType::kPeering) continue;
        PeerEntry peer;
        peer.hop.isd_as = as.spec.ia;
        peer.hop.in_if = adj.scion_if;
        peer.hop.out_if = hop.out_if;
        peer.hop.expiry_s = kHopExpirySeconds;
        seal_hop_field(peer.hop, segment.origin_ts, as.forwarding_key);
        peer.peer_as = ases_[adj.neighbor].spec.ia;
        for (const AsAdjacency& back : ases_[adj.neighbor].adjacency) {
          if (back.link_spec_index == adj.link_spec_index) {
            peer.peer_if = back.scion_if;
            break;
          }
        }
        peer.peer_link = link_meta(adj.link_spec_index);
        entry.peers.push_back(std::move(peer));
      }
    }
    segment.entries.push_back(std::move(entry));
    if (config_.sign_beacons) {
      const std::size_t index = segment.entries.size() - 1;
      const Bytes input = segment.signing_input(index);
      segment.entries.back().signature =
          crypto::sign(as.keypair.private_key, std::span<const std::uint8_t>(input));
    }
  }
  return segment;
}

}  // namespace pan::scion
