// The byte-stream interface HTTP runs on.
//
// Both a TCP-lite connection (its single stream) and a QUIC-lite stream
// implement this, which is what lets the proxy map an HTTP/1 TCP stream
// onto a single bidirectional QUIC stream — the exact trick the paper's
// prototype uses ("we map the TCP data stream into a single bidirectional
// QUIC stream").
#pragma once

#include <cstdint>
#include <functional>
#include <span>

namespace pan::transport {

class Bytestream {
 public:
  virtual ~Bytestream() = default;

  /// Queues bytes for ordered, reliable delivery.
  virtual void write(std::span<const std::uint8_t> data) = 0;
  /// Half-closes the sending direction (FIN).
  virtual void finish() = 0;

  /// Registers the reader. `fin` is true exactly once, with the final chunk
  /// (possibly empty).
  using DataFn = std::function<void(std::span<const std::uint8_t> data, bool fin)>;
  virtual void set_on_data(DataFn on_data) = 0;

  /// The application is done with the stream. From now on no callback is
  /// delivered (incoming bytes are drained silently), and the owner may free
  /// the stream once both directions are done: the peer's FIN arrived (or
  /// the stream broke) and the local FIN was sent and acknowledged. The
  /// caller must not touch the stream after release(). Safe to call from
  /// inside the stream's own data callback; the stream is freed later, never
  /// under a callback. Streams never released live as long as their owner.
  virtual void release() = 0;

  /// True once the peer's FIN (or a connection close) has been seen.
  [[nodiscard]] virtual bool remote_finished() const = 0;
  /// True if the stream can no longer deliver or accept data (reset/closed).
  [[nodiscard]] virtual bool broken() const = 0;
};

}  // namespace pan::transport
