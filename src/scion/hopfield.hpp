// Hop fields: the per-AS forwarding authorizations inside SCION paths.
//
// Each AS MACs its hop field with a local secret forwarding key during
// beaconing; border routers check the MAC every data packet carries, so end
// hosts can only use paths the control plane actually constructed (path
// authorization). A router computes each distinct hop field's expected MAC
// once and memoizes it (HopMacVerifier below).
//
// Simplification vs. production SCION (documented in DESIGN.md): the MAC is
// computed over the direction-normalized interface pair (min, max) rather
// than a per-segment chained input. This keeps hop fields valid when a
// segment is traversed in reverse (up-segment use) without per-direction
// flags in the MAC input, while preserving the property tests care about:
// any tampering with ISD-AS, interfaces, or timestamp invalidates the MAC.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "crypto/hmac.hpp"
#include "scion/types.hpp"
#include "util/bytes.hpp"

namespace pan::scion {

/// Secret forwarding key held by each AS's border routers.
using ForwardingKey = crypto::Key;

/// Wire size of one serialized hop field (isd_as + in_if + out_if + expiry +
/// short MAC).
inline constexpr std::size_t kHopFieldWireSize = 8 + 2 + 2 + 4 + crypto::kShortMacSize;

struct HopField {
  IsdAsn isd_as;
  /// Interface toward the beacon origin (0 at the origin AS).
  IfaceId in_if = kNoIface;
  /// Interface away from the beacon origin (0 at the segment's last AS).
  IfaceId out_if = kNoIface;
  /// Expiry of the authorization, seconds since the epoch of the beacon
  /// origination timestamp.
  std::uint32_t expiry_s = 0;
  crypto::ShortMac mac{};

  bool operator==(const HopField&) const = default;
};

/// The MAC input bytes for a hop field under origination timestamp `ts`.
[[nodiscard]] Bytes hop_mac_input(const HopField& hf, std::uint32_t origin_ts);

/// Computes (and installs) the MAC for `hf` using the AS forwarding key.
void seal_hop_field(HopField& hf, std::uint32_t origin_ts, const ForwardingKey& key);

[[nodiscard]] bool verify_hop_field(const HopField& hf, std::uint32_t origin_ts,
                                    const ForwardingKey& key);

/// Sealing over a precomputed crypto::HmacKey: two SHA-256 compressions per
/// MAC instead of four.
void seal_hop_field(HopField& hf, std::uint32_t origin_ts, const crypto::HmacKey& key);

/// A border router's hop-field MAC check: the precomputed HmacKey of its
/// (fixed) forwarding key plus a direct-mapped memo from a hop field's MAC
/// input to its expected MAC. Every packet of a path presents the same input,
/// so a router computes each distinct hop field's MAC once, not once per
/// packet. The memo only caches the expected MAC: verify() still compares the
/// MAC the packet carries against it on every call, and a slot is used only
/// when its stored input equals the lookup's full input, so a hash collision
/// can never supply another field's MAC. Allocation-free.
class HopMacVerifier {
 public:
  /// Memo size: a router serves a few distinct hop fields per path through
  /// it. On remote-fig5, 64 slots leave 90 misses in 4.5M verifications.
  static constexpr std::size_t kSlots = 64;

  explicit HopMacVerifier(const ForwardingKey& key);

  /// True iff hf.mac is the MAC of (hf, origin_ts) under this router's key.
  /// Same verdict as verify_hop_field(hf, origin_ts, key).
  [[nodiscard]] bool verify(const HopField& hf, std::uint32_t origin_ts);

  /// MACs computed so far, i.e. memo misses.
  [[nodiscard]] std::uint64_t macs_computed() const { return macs_computed_; }

  /// The memo slot (hf, origin_ts) maps to; lets tests and benches build
  /// inputs that collide.
  [[nodiscard]] static std::size_t slot_of(const HopField& hf, std::uint32_t origin_ts);

 private:
  // u32 ts + u64 isd_as + u16 min if + u16 max if + u32 expiry.
  using MacInput = std::array<std::uint8_t, 20>;
  struct Slot {
    MacInput input{};
    crypto::ShortMac mac{};
    bool filled = false;
  };

  [[nodiscard]] static std::size_t slot_index(const MacInput& input);

  crypto::HmacKey key_;
  std::array<Slot, kSlots> slots_{};
  std::uint64_t macs_computed_ = 0;
};

/// Serializes one hop field. Templated over the writer (ByteWriter grows a
/// Bytes, util::SpanWriter targets reserved headroom) so both paths emit
/// byte-identical output from one definition.
template <typename Writer>
void serialize_hop_field(Writer& w, const HopField& hf) {
  w.u64(hf.isd_as.packed());
  w.u16(hf.in_if);
  w.u16(hf.out_if);
  w.u32(hf.expiry_s);
  w.raw(std::span<const std::uint8_t>(hf.mac));
}

/// Reads one hop field; allocation-free. On underrun the reader's error flag
/// is set and the MAC stays zero.
[[nodiscard]] HopField parse_hop_field(ByteReader& r);

/// Decodes one hop field from exactly kHopFieldWireSize bytes without a
/// bounds-checked reader — the hot-path decode used by ScionHeaderView. The
/// caller guarantees `wire.size() >= kHopFieldWireSize`.
[[nodiscard]] HopField decode_hop_field(const std::uint8_t* wire);

}  // namespace pan::scion
