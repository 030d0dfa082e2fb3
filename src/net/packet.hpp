// The unit of transmission in the simulated network.
//
// A Packet carries either a legacy UDP datagram (proto kUdp: src/dst address
// and ports are authoritative, payload is the transport frame) or a SCION
// packet (proto kScion: the payload is the fully serialized SCION header +
// payload and border routers advance it hop by hop; the legacy fields are
// ignored in transit and only used for intra-AS delivery bookkeeping).
//
// Payload bytes live in a PacketView: a window into shared, refcounted
// storage (util::Buffer). A packet is serialized once at the transport edge
// — into a buffer with headroom reserved for the SCION header — and the same
// bytes then travel through sockets, border routers, and link queues by
// moving the view, never by copying. Sub-views (payload delivery, peeks)
// share the storage with a refcount bump.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>

#include "net/addr.hpp"
#include "util/buffer.hpp"
#include "util/bytes.hpp"
#include "util/types.hpp"

namespace pan::net {

/// A [offset, offset+length) window into a refcounted util::Buffer. The
/// bytes before `offset` are headroom: space reserved at allocation time so
/// lower layers can prepend their headers in place (skbuff-style) instead of
/// reserializing the packet.
class PacketView {
 public:
  PacketView() = default;
  /// Copies a byte vector into fresh storage (no headroom). Implicit on
  /// purpose: the edge layers that still build Bytes hand them straight to
  /// the view.
  PacketView(const Bytes& bytes)  // NOLINT(google-explicit-constructor)
      : PacketView(copy_of(bytes)) {}

  /// A view of a tight copy of `bytes` (empty bytes get no storage).
  [[nodiscard]] static PacketView copy_of(std::span<const std::uint8_t> bytes) {
    PacketView v;
    if (bytes.empty()) return v;
    v.buf_ = util::Buffer::copy_of(bytes);
    v.len_ = narrow(bytes.size());
    return v;
  }

  /// Allocates storage with `headroom` bytes reserved in front of a
  /// writable `length`-byte data region.
  [[nodiscard]] static PacketView with_headroom(std::size_t headroom, std::size_t length) {
    PacketView v;
    v.buf_ = util::Buffer(headroom + length);
    v.off_ = narrow(headroom);
    v.len_ = narrow(length);
    return v;
  }

  [[nodiscard]] std::span<const std::uint8_t> span() const {
    return {buf_.data() + off_, len_};
  }
  [[nodiscard]] std::size_t size() const { return len_; }
  [[nodiscard]] bool empty() const { return len_ == 0; }
  [[nodiscard]] std::size_t headroom() const { return off_; }
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const { return buf_.data()[off_ + i]; }

  /// Writable window over the data region; copies the storage first when it
  /// is shared (copy-on-write), so concurrent viewers are never mutated.
  [[nodiscard]] std::span<std::uint8_t> mutable_span() {
    return {buf_.mutable_data() + off_, len_};
  }

  /// Shrinks the view to its first `new_len` bytes (after serializing into
  /// an over-allocated region).
  void truncate(std::size_t new_len) {
    if (new_len < len_) len_ = narrow(new_len);
  }

  /// Grows the view `n` bytes into the headroom and returns a writable span
  /// over the newly exposed front (the prepended header region).
  [[nodiscard]] std::span<std::uint8_t> prepend(std::size_t n) {
    assert(off_ >= n);
    off_ -= narrow(n);
    len_ += narrow(n);
    return {buf_.mutable_data() + off_, n};
  }

  /// A sub-window sharing the same storage (refcount bump, no copy).
  [[nodiscard]] PacketView subview(std::size_t offset, std::size_t length) const {
    assert(offset + length <= len_);
    PacketView v;
    v.buf_ = buf_;
    v.off_ = off_ + narrow(offset);
    v.len_ = narrow(length);
    return v;
  }
  [[nodiscard]] PacketView subview(std::size_t offset) const {
    return subview(offset, len_ - offset);
  }

  /// Materializes an owning copy (edge consumers that outlive the packet).
  [[nodiscard]] Bytes to_bytes() const {
    const auto s = span();
    return Bytes(s.begin(), s.end());
  }

  [[nodiscard]] bool operator==(const PacketView& other) const {
    const auto a = span();
    const auto b = other.span();
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  // 32-bit offset and length keep a view at four words, so a whole Packet
  // still fits a simulator event's inline storage.
  [[nodiscard]] static std::uint32_t narrow(std::size_t n) {
    assert(n <= UINT32_MAX);
    return static_cast<std::uint32_t>(n);
  }

  std::uint32_t off_ = 0;
  std::uint32_t len_ = 0;
  util::Buffer buf_;
};

enum class Protocol : std::uint8_t { kUdp, kScion };

[[nodiscard]] const char* to_string(Protocol p);

struct Packet {
  Protocol proto = Protocol::kUdp;
  IpAddr src;
  IpAddr dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  PacketView payload;
  /// Unique id for tracing; assigned by the sender.
  std::uint64_t id = 0;
  /// Stamped by Network::send on each hop; a border router's forward-latency
  /// histogram reads it to measure queueing + propagation + processing of
  /// the hop it just completed.
  TimePoint sent_at;
  /// Priority (reserved-bandwidth) traffic: exempt from best-effort queue
  /// admission (never tail-dropped), set by border routers for packets
  /// covered by an admitted reservation. Aggregate priority load is bounded
  /// by the reservation admission control, not by the queue.
  bool priority = false;

  /// Bytes on the wire: payload plus link/IP/UDP framing overhead. SCION
  /// packets carry their (variable-size) header inside `payload`, so the
  /// same fixed framing overhead applies.
  [[nodiscard]] std::size_t wire_size() const;

  [[nodiscard]] std::string describe() const;
};

/// Ethernet + IP + UDP framing overhead applied to every simulated packet.
inline constexpr std::size_t kFramingOverhead = 42;

}  // namespace pan::net
