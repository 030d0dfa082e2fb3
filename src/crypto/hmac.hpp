// HMAC-SHA256 (RFC 2104) and helpers for truncated MACs.
//
// SCION hop fields carry a short MAC computed by each AS with a secret
// forwarding key; we model that with HMAC-SHA256 truncated to 6 bytes, the
// same width the SCION data plane uses.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "crypto/sha256.hpp"

namespace pan::crypto {

using Key = Bytes;  // arbitrary-length secret key

[[nodiscard]] Digest hmac_sha256(std::span<const std::uint8_t> key,
                                 std::span<const std::uint8_t> message);
[[nodiscard]] Digest hmac_sha256(std::span<const std::uint8_t> key, std::string_view message);

/// SCION-style 48-bit MAC: the first 6 bytes of the HMAC digest.
inline constexpr std::size_t kShortMacSize = 6;
using ShortMac = std::array<std::uint8_t, kShortMacSize>;

[[nodiscard]] ShortMac short_mac(std::span<const std::uint8_t> key,
                                 std::span<const std::uint8_t> message);

/// Precomputed HMAC-SHA256 key: the SHA-256 midstates after absorbing the
/// ipad and opad blocks, captured once at construction. Each mac() then costs
/// two compressions instead of four — the forwarding key is fixed for the
/// lifetime of a border router, so the router computes every hop-field MAC
/// through one of these. Produces bit-identical output to hmac_sha256().
class HmacKey {
 public:
  explicit HmacKey(std::span<const std::uint8_t> key);

  /// Allocation-free (stack-copies the midstates and finalizes).
  [[nodiscard]] Digest mac(std::span<const std::uint8_t> message) const;
  [[nodiscard]] ShortMac short_mac(std::span<const std::uint8_t> message) const;

 private:
  Sha256 inner_;  // state after update(ipad)
  Sha256 outer_;  // state after update(opad)
};

/// Constant-time comparison (the simulator does not need side-channel
/// resistance, but getting the idiom right costs nothing).
[[nodiscard]] bool mac_equal(const ShortMac& a, const ShortMac& b);

}  // namespace pan::crypto
