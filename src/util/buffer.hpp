// Shared, refcounted byte storage for the zero-copy packet path.
//
// A Buffer owns a fixed-capacity byte block behind a refcount. Views
// (net::PacketView) reference a [offset, offset+length) window of a Buffer,
// so a packet serialized once at the transport edge can move through socket,
// SCION stack, border routers, and link queues without its bytes ever being
// copied — sharing is a refcount bump, moving is free. The refcount and the
// bytes live in one heap block (make_shared of an array), so a buffer costs
// one allocation.
//
// Mutation discipline (skbuff-style): the forwarding path owns its packet
// uniquely, so in-place writes (cursor patching, headroom prepends) act
// directly on the storage. If the storage happens to be shared — e.g. a
// tracer or test kept a view alive — the writer clones first (copy-on-write),
// so observers can never see bytes change under them.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>

#include "util/bytes.hpp"

namespace pan::util {

class Buffer {
 public:
  Buffer() = default;
  /// Allocates `capacity` zero-initialized bytes.
  explicit Buffer(std::size_t capacity)
      : storage_(std::make_shared<std::uint8_t[]>(capacity)), capacity_(capacity) {}

  /// A buffer holding a copy of `bytes` (one allocation, no zero-fill).
  [[nodiscard]] static Buffer copy_of(std::span<const std::uint8_t> bytes) {
    Buffer b;
    b.storage_ = std::make_shared_for_overwrite<std::uint8_t[]>(bytes.size());
    b.capacity_ = bytes.size();
    if (!bytes.empty()) std::memcpy(b.storage_.get(), bytes.data(), bytes.size());
    return b;
  }

  [[nodiscard]] bool valid() const { return storage_ != nullptr; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] const std::uint8_t* data() const { return storage_.get(); }

  /// True when this handle is the sole owner (in-place writes are safe).
  [[nodiscard]] bool unique() const { return storage_ && storage_.use_count() == 1; }

  /// Writable storage pointer; clones the block first if it is shared, so
  /// other holders keep the bytes they saw (copy-on-write).
  [[nodiscard]] std::uint8_t* mutable_data() {
    if (storage_.use_count() > 1) *this = copy_of({storage_.get(), capacity_});
    return storage_.get();
  }

 private:
  std::shared_ptr<std::uint8_t[]> storage_;
  std::size_t capacity_ = 0;
};

/// Bounds-checked big-endian writer over a fixed span — the headroom-prepend
/// companion of ByteWriter. Same method surface, so wire-format serializers
/// can be written once as templates and target either a growing Bytes
/// (ByteWriter) or a pre-sized buffer region (SpanWriter) with identical
/// output. Overrun sets a sticky failure flag instead of writing.
class SpanWriter {
 public:
  explicit SpanWriter(std::span<std::uint8_t> out) : out_(out) {}

  void u8(std::uint8_t v) {
    if (!need(1)) return;
    out_[pos_++] = v;
  }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v >> 8));
    u8(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void raw(std::span<const std::uint8_t> data) {
    if (data.empty() || !need(data.size())) return;
    std::memcpy(out_.data() + pos_, data.data(), data.size());
    pos_ += data.size();
  }
  void raw(const Bytes& data) { raw(std::span<const std::uint8_t>(data)); }
  void str(std::string_view s) {
    raw(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(s.data()),
                                      s.size()));
  }
  void lp_str(std::string_view s) {
    u16(static_cast<std::uint16_t>(s.size()));
    str(s);
  }
  void lp_bytes(std::span<const std::uint8_t> data) {
    u16(static_cast<std::uint16_t>(data.size()));
    raw(data);
  }

  [[nodiscard]] std::size_t size() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return out_.size() - pos_; }
  [[nodiscard]] bool failed() const { return failed_; }

 private:
  [[nodiscard]] bool need(std::size_t n) {
    if (failed_ || n > out_.size() - pos_) {
      failed_ = true;
      return false;
    }
    return true;
  }

  std::span<std::uint8_t> out_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace pan::util
