#include "scion/hopfield.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "util/buffer.hpp"

namespace pan::scion {

namespace {

// u32 ts + u64 isd_as + u16 min + u16 max + u32 expiry.
using MacInput = std::array<std::uint8_t, 20>;

// Stack-allocated MAC input: the hop path builds one per forwarded packet,
// so this must not touch the heap.
MacInput mac_input(const HopField& hf, std::uint32_t origin_ts) {
  MacInput buf{};
  util::SpanWriter w(buf);
  w.u32(origin_ts);
  w.u64(hf.isd_as.packed());
  w.u16(std::min(hf.in_if, hf.out_if));
  w.u16(std::max(hf.in_if, hf.out_if));
  w.u32(hf.expiry_s);
  return buf;
}

}  // namespace

Bytes hop_mac_input(const HopField& hf, std::uint32_t origin_ts) {
  const MacInput buf = mac_input(hf, origin_ts);
  return Bytes(buf.begin(), buf.end());
}

void seal_hop_field(HopField& hf, std::uint32_t origin_ts, const ForwardingKey& key) {
  hf.mac = crypto::short_mac(key, mac_input(hf, origin_ts));
}

bool verify_hop_field(const HopField& hf, std::uint32_t origin_ts, const ForwardingKey& key) {
  const crypto::ShortMac expected = crypto::short_mac(key, mac_input(hf, origin_ts));
  return crypto::mac_equal(expected, hf.mac);
}

void seal_hop_field(HopField& hf, std::uint32_t origin_ts, const crypto::HmacKey& key) {
  hf.mac = key.short_mac(mac_input(hf, origin_ts));
}

HopMacVerifier::HopMacVerifier(const ForwardingKey& key) : key_(key) {}

bool HopMacVerifier::verify(const HopField& hf, std::uint32_t origin_ts) {
  const MacInput input = mac_input(hf, origin_ts);
  Slot& slot = slots_[slot_index(input)];
  if (!slot.filled || slot.input != input) {
    slot.input = input;
    slot.mac = key_.short_mac(input);
    slot.filled = true;
    ++macs_computed_;
  }
  return crypto::mac_equal(slot.mac, hf.mac);
}

std::size_t HopMacVerifier::slot_of(const HopField& hf, std::uint32_t origin_ts) {
  return slot_index(mac_input(hf, origin_ts));
}

std::size_t HopMacVerifier::slot_index(const MacInput& input) {
  // Fibonacci hashing of the input's three words: the product's top bits
  // depend on every input bit. Only speed depends on the hash; the full-input
  // compare in verify() keeps the verdict independent of it.
  static_assert(std::has_single_bit(kSlots));
  std::uint64_t head = 0;
  std::uint64_t mid = 0;
  std::uint32_t tail = 0;
  std::memcpy(&head, input.data(), sizeof head);
  std::memcpy(&mid, input.data() + 8, sizeof mid);
  std::memcpy(&tail, input.data() + 16, sizeof tail);
  const std::uint64_t h = (head ^ std::rotl(mid, 29) ^ tail) * 0x9e3779b97f4a7c15ULL;
  return static_cast<std::size_t>(h >> (64 - std::countr_zero(kSlots)));
}

HopField parse_hop_field(ByteReader& r) {
  HopField hf;
  hf.isd_as = IsdAsn::from_packed(r.u64());
  hf.in_if = r.u16();
  hf.out_if = r.u16();
  hf.expiry_s = r.u32();
  // The MAC as u16 + u32: ByteReader::raw would heap-allocate, and every
  // packet a host receives is parsed through here.
  const std::uint16_t mac_hi = r.u16();
  const std::uint32_t mac_lo = r.u32();
  if (!r.failed()) {
    util::SpanWriter w(hf.mac);
    w.u16(mac_hi);
    w.u32(mac_lo);
  }
  return hf;
}

HopField decode_hop_field(const std::uint8_t* wire) {
  HopField hf;
  hf.isd_as = IsdAsn::from_packed(read_be64(wire));
  hf.in_if = read_be16(wire + 8);
  hf.out_if = read_be16(wire + 10);
  hf.expiry_s = read_be32(wire + 12);
  std::copy(wire + 16, wire + 16 + crypto::kShortMacSize, hf.mac.begin());
  return hf;
}

}  // namespace pan::scion
