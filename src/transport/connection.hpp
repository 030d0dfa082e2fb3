// The reliable transport engine shared by QUIC-lite and TCP-lite.
//
// One Connection speaks the frame format in frames.hpp over a datagram
// Conduit (plain UDP or UDP-over-SCION). It provides:
//   - a 1-RTT handshake (HELLO / HELLO_REPLY), with configurable extra
//     rounds to emulate e.g. TLS-over-TCP setup costs;
//   - ordered reliable byte streams with FIN semantics (Bytestream);
//   - ACK-based loss detection (packet-threshold reordering) plus a probe
//     timeout (PTO) with exponential backoff;
//   - NewReno congestion control (slow start, AIMD, collapse on PTO);
//   - delayed ACKs (every second ack-eliciting packet or kMaxAckDelay).
//
// TCP-lite is the same engine restricted to a single stream with its own
// wire magic: the paper maps HTTP/1 TCP bytestreams onto one bidirectional
// QUIC stream, so modeling both kinds over one engine mirrors the prototype
// while keeping the handshake/recovery dynamics that affect page load time.
//
// Flow control windows are not modeled (simulated endpoints have ample
// memory); congestion control alone limits data in flight. Documented in
// DESIGN.md.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>

#include "sim/timer.hpp"
#include "transport/bytestream.hpp"
#include "transport/frames.hpp"
#include "util/ring.hpp"

namespace pan::transport {

/// Where datagrams go. `send` must deliver (or drop) asynchronously via the
/// simulator; `max_payload` bounds serialized packet size. `headroom` bytes
/// are reserved in front of every serialized datagram so the layer below
/// (the SCION stack) can prepend its header in place — the datagram is then
/// serialized exactly once on its whole way to the wire.
struct Conduit {
  std::function<void(net::PacketView)> send;
  std::size_t max_payload = 1200;
  std::size_t headroom = 0;
};

struct TransportConfig {
  TransportKind kind = TransportKind::kQuicLite;
  std::string alpn = "http/1.1";
  Duration idle_timeout = seconds(30);
  /// Additional handshake round trips before the connection is established
  /// (0 = QUIC-style 1-RTT; 1 emulates TLS-1.3-over-TCP's extra RTT).
  std::uint8_t extra_handshake_rtts = 0;
  /// Client-side 0-RTT (session resumption): the connection counts as
  /// established immediately at start(), so early data rides right behind
  /// the INITIAL packet and the response arrives one round trip sooner.
  /// Only valid with extra_handshake_rtts == 0 and when the application has
  /// a resumption ticket for the server (it has connected before). Set by
  /// SkipProxy for origins it holds a ticket for, and by transport_test.
  bool zero_rtt = false;
  /// When nonzero, the connection sends PING probes at this interval while
  /// any local stream awaits a response (request FIN sent, peer FIN not yet
  /// received). A pure receiver otherwise goes silent and would never learn
  /// that its path died (no ACKs to lose); the probes keep path failure
  /// detection (PTO, SCMP) alive. Probing stops once nothing is awaited.
  Duration keep_alive = Duration::zero();
};

class Connection;

/// A stream's lifecycle inside its connection: opened (locally or by the
/// peer's first frame) → in the ready queue while it has chunks to send →
/// retired (erased) once both directions are done and the application has
/// called release(). A stream nobody releases lives as long as its connection.
class Stream final : public Bytestream {
 public:
  /// `open_order` is the stream's position in its connection's round-robin
  /// send order (streams are numbered as they are opened, by either side).
  Stream(Connection& conn, std::uint32_t id, std::uint64_t open_order);

  [[nodiscard]] std::uint32_t id() const { return id_; }

  void write(std::span<const std::uint8_t> data) override;
  void finish() override;
  void set_on_data(DataFn on_data) override;
  void release() override;
  [[nodiscard]] bool remote_finished() const override { return fin_delivered_; }
  [[nodiscard]] bool broken() const override;

  /// Bytes received and delivered so far.
  [[nodiscard]] std::uint64_t bytes_received() const { return next_recv_offset_; }

 private:
  friend class Connection;

  struct Chunk {
    std::uint64_t offset = 0;
    /// A slice of the write's buffer; a tight copy once re-queued.
    net::PacketView data;
    bool fin = false;
  };

  void on_stream_frame(const StreamFrame& frame);
  void flush_reassembly();
  /// Delivers the part of `data` (stream bytes starting at `offset`, which
  /// must not be past next_recv_offset_) the reader has not had yet.
  void deliver_fresh(std::uint64_t offset, std::span<const std::uint8_t> data);
  /// Hands received bytes to the reader, unless the stream was released.
  void deliver(std::span<const std::uint8_t> data, bool fin);
  void mark_broken();
  /// Released, FIN delivered (or broken), FIN queued, and nothing left to
  /// send or awaiting an ACK: the connection may free the stream.
  [[nodiscard]] bool retirable() const;
  /// Our FIN is out and the peer's has not reached a reader: keep-alive
  /// probing continues (TransportConfig::keep_alive).
  [[nodiscard]] bool awaiting_response() const;

  Connection& conn_;
  std::uint32_t id_;
  std::uint64_t open_order_;

  // Send side.
  util::Ring<Chunk> pending_;  // not yet (re)transmitted
  std::uint64_t next_send_offset_ = 0;
  std::size_t unacked_chunks_ = 0;  // in-flight SentChunkRefs naming this stream
  bool fin_queued_ = false;
  bool queued_ = false;  // in the connection's ready queue

  // Receive side. Out-of-order data only, as sub-views of their datagrams;
  // in-order data go straight from the datagram to the reader.
  std::map<std::uint64_t, net::PacketView> reassembly_;
  std::uint64_t next_recv_offset_ = 0;
  std::uint64_t fin_offset_ = UINT64_MAX;
  bool fin_delivered_ = false;
  bool broken_ = false;
  bool released_ = false;
  // Released before the peer's FIN was delivered: the reader never sees the
  // response end, so the stream counts as awaiting one for good.
  bool orphaned_ = false;
  DataFn on_data_;
};

class Connection {
 public:
  enum class Role { kClient, kServer };
  enum class State { kIdle, kConnecting, kEstablished, kClosed };

  struct Stats {
    std::uint64_t packets_sent = 0;
    std::uint64_t packets_received = 0;
    std::uint64_t packets_lost = 0;
    std::uint64_t packets_acked = 0;
    std::uint64_t pto_fired = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
  };

  Connection(sim::Simulator& sim, Conduit conduit, Role role, std::uint64_t conn_id,
             TransportConfig config);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] Role role() const { return role_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] std::uint64_t conn_id() const { return conn_id_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] Duration smoothed_rtt() const { return srtt_; }
  /// When the client-side handshake started (start()) and completed
  /// (establish()); origin for connections that never reached the state.
  [[nodiscard]] TimePoint connect_started_at() const { return connect_started_at_; }
  [[nodiscard]] TimePoint established_at() const { return established_at_; }
  /// Client handshake wall time on the simulated clock (zero for 0-RTT
  /// resumption and for connections not yet established).
  [[nodiscard]] Duration handshake_time() const {
    return established_at_ < connect_started_at_ ? Duration::zero()
                                                 : established_at_ - connect_started_at_;
  }
  [[nodiscard]] std::size_t cwnd_bytes() const { return cwnd_; }
  [[nodiscard]] const TransportConfig& config() const { return config_; }

  /// Client: begins the handshake. Server connections establish on demand.
  void start();

  /// Feeds an incoming datagram (from the socket/demux layer).
  void on_datagram(const net::PacketView& data);
  /// Feeds an already parsed datagram of `wire_size` bytes (a server demux
  /// parses once to find the connection). Views in `packet` need only live
  /// for the call.
  void on_packet(const TransportPacket& packet, std::size_t wire_size);

  /// Opens a locally initiated bidirectional stream. TCP-lite connections
  /// allow exactly one. Streams are owned by the connection.
  Stream& open_stream();
  /// nullptr for an id never opened or already retired.
  [[nodiscard]] Stream* stream(std::uint32_t id);
  /// Streams opened and not yet retired.
  [[nodiscard]] std::size_t live_streams() const { return streams_.size(); }

  void set_on_established(std::function<void()> fn) { on_established_ = std::move(fn); }
  /// Fires when the peer opens a stream.
  void set_on_stream(std::function<void(Stream&)> fn) { on_stream_ = std::move(fn); }
  void set_on_closed(std::function<void(const std::string&)> fn) {
    on_closed_ = std::move(fn);
  }

  void close(const std::string& reason);

  /// Swaps the conduit (SCION path migration); in-flight data redelivers via
  /// normal loss recovery, jump-started by on_path_migrated().
  void set_conduit(Conduit conduit);

  /// Adjusts only the reserved header headroom (server-side reply-path
  /// migration: the route changed under the same conduit, so future
  /// datagrams need a different SCION header size in front).
  void set_conduit_headroom(std::size_t headroom) { conduit_.headroom = headroom; }

  /// Signals that the underlying path changed (client conduit swap, or a
  /// server observing a new reply path): resets the PTO backoff — which may
  /// have grown exponentially while the old path was black-holing — and
  /// retransmits outstanding data immediately on the new path.
  void on_path_migrated();

 private:
  friend class Stream;

  struct SentChunkRef {
    std::uint32_t stream_id = 0;
    std::uint64_t offset = 0;
    net::PacketView data;  // shares the frame's slice, for retransmission
    bool fin = false;
  };
  /// An ack-eliciting packet sent and not yet acked or declared lost, or
  /// (once `live` is false) a tombstone awaiting its turn at the front.
  struct SentPacket {
    std::uint64_t pn = 0;
    TimePoint sent_at;
    std::size_t size = 0;
    /// The packet's refs in sent_chunks_: absolute index (see
    /// chunks_popped_) of the first, and how many.
    std::uint64_t first_chunk = 0;
    std::uint32_t chunk_count = 0;
    bool live = true;
    bool hello = false;
    std::uint8_t hello_round = 0;
  };

  void pump();
  /// Creates a stream at the next position of the round-robin order.
  Stream& add_stream(std::uint32_t id);
  /// Puts a stream with pending chunks into the ready queue (once).
  void enqueue(Stream& stream);
  /// Re-queues a sent chunk at the front of its stream (loss, go-back-n).
  void requeue(const SentChunkRef& ref);
  /// Remembers a stream that may have become retirable.
  void note_retirable(Stream& stream);
  /// Erases the retirable streams noted since the last call. Only called
  /// where no stream callback is on the stack.
  void retire_streams();
  [[nodiscard]] bool retired(std::uint32_t id) const;
  void mark_retired(std::uint32_t id);
  void send_hello(std::uint8_t round);
  void establish();
  void note_awaiting_response();
  [[nodiscard]] bool awaiting_response() const;
  void on_keep_alive();
  void process_frame(const Frame& frame, bool* ack_eliciting);
  void process_ack(const AckFrame& ack);
  /// The i-th chunk ref of in-flight record `packet`.
  SentChunkRef& chunk_ref(const SentPacket& packet, std::uint32_t i);
  /// Turns a live in-flight record into a tombstone.
  void bury(SentPacket& packet);
  /// Declares in_flight_[index] lost and re-queues its chunks.
  void declare_lost(std::size_t index);
  void on_pto();
  /// Go-back-n: re-queues every outstanding chunk and pumps.
  void retransmit_all_outstanding();
  void record_received(std::uint64_t pn, bool ack_eliciting);
  [[nodiscard]] AckFrame build_ack() const;
  void maybe_send_pure_ack();
  /// Clears tx_ for a new packet of `type` and returns it.
  TransportPacket& begin_packet(PacketType type);
  /// Serializes tx_ with the next packet number, then clears its frames.
  [[nodiscard]] net::PacketView serialize_tx();
  /// Sends tx_ and tracks it as in flight (every caller's packet is
  /// ack-eliciting); `record` carries its hello and chunk-ref fields.
  void send_packet(SentPacket record);
  /// Forgets every in-flight record and frees both rings' storage.
  void release_in_flight();
  [[nodiscard]] Duration pto_interval() const;
  void arm_pto();
  [[nodiscard]] std::size_t bytes_in_flight() const { return bytes_in_flight_; }
  void on_loss_event(std::uint64_t pn);
  [[nodiscard]] std::size_t mss() const;

  sim::Simulator& sim_;
  Conduit conduit_;
  Role role_;
  std::uint64_t conn_id_;
  TransportConfig config_;
  State state_ = State::kIdle;

  // Streams.
  std::unordered_map<std::uint32_t, std::unique_ptr<Stream>> streams_;
  // The ready queue: streams with pending chunks, ascending open order.
  // pump() serves the first one at or after the cursor (the open order of
  // the stream served last, plus one), wrapping to the front.
  std::vector<Stream*> ready_;
  std::uint64_t rr_cursor_ = 0;
  std::uint64_t next_open_order_ = 0;
  std::uint32_t next_local_stream_;
  std::vector<std::uint32_t> retire_candidates_;
  // Retired streams still awaiting a response (orphans; see Stream).
  std::size_t retired_awaiting_ = 0;
  // Retired stream ids, per id parity, as sorted disjoint [first, last] runs
  // of id / 2: a late frame for one is dropped instead of re-opening it.
  // Peer frames may arrive out of order, so "id <= highest seen" would not do.
  std::array<std::vector<std::pair<std::uint32_t, std::uint32_t>>, 2> retired_;

  // Scratch packets, reused so building or parsing one does not allocate.
  // Their frames are cleared after each use, so no view outlives its
  // datagram. Conduit::send delivers asynchronously, so neither is ever in
  // use twice at once.
  TransportPacket tx_;
  TransportPacket rx_;
  bool receiving_ = false;

  // Packet number spaces (single space for simplicity).
  std::uint64_t next_pn_ = 1;
  // In-flight records in ascending pn order. Acked and lost ones become
  // tombstones, popped once they reach the front; live_in_flight_ counts
  // the others. A record's chunk refs sit in sent_chunks_, in send order,
  // so they leave its front with their record; chunks_popped_ is how many
  // have left it, which turns an absolute ref index into a ring index.
  // Both rings keep their storage between packets and give it back at
  // close(), at go-back-n, and when an ACK empties a flight that had grown
  // in_flight_ past kKeptRingCapacity records (connection.cpp).
  util::Ring<SentPacket> in_flight_;
  util::Ring<SentChunkRef> sent_chunks_;
  std::uint64_t chunks_popped_ = 0;
  std::size_t live_in_flight_ = 0;
  std::size_t bytes_in_flight_ = 0;
  // Indices into in_flight_ of the packets one ACK declares lost (reused).
  std::vector<std::size_t> lost_;

  // ACK state (receiving side).
  std::vector<AckRange> recv_ranges_;  // descending, merged
  bool ack_pending_ = false;
  std::uint32_t ack_eliciting_since_ack_ = 0;

  // RTT / congestion.
  Duration srtt_;
  Duration rttvar_;
  bool have_rtt_sample_ = false;
  std::size_t cwnd_;
  std::size_t ssthresh_;
  std::uint64_t loss_recovery_end_pn_ = 0;
  std::uint32_t pto_count_ = 0;

  // Handshake.
  std::uint8_t hello_rounds_done_ = 0;
  TimePoint connect_started_at_ = TimePoint::origin();
  TimePoint established_at_ = TimePoint::origin();

  sim::Timer ack_timer_;
  sim::Timer pto_timer_;
  sim::Timer idle_timer_;
  sim::Timer keep_alive_timer_;

  std::function<void()> on_established_;
  std::function<void(Stream&)> on_stream_;
  std::function<void(const std::string&)> on_closed_;
  Stats stats_;
};

}  // namespace pan::transport
