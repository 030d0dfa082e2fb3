#include "transport/connection.hpp"

#include <algorithm>
#include <cassert>

#include "util/log.hpp"

namespace pan::transport {

namespace {
constexpr std::string_view kLog = "transport";
/// Reserved bytes so an ACK frame can always piggyback on a data packet.
constexpr std::size_t kAckReserve = 2 + kMaxAckRanges * 16;
/// Congestion window at start (and after a path migration) and its floor
/// after a loss or a PTO, in packets.
constexpr std::size_t kInitialCwndPackets = 10;
constexpr std::size_t kMinCwndPackets = 2;
/// RTT estimate before the first sample.
constexpr Duration kInitialRtt = milliseconds(100);
/// Longest an ACK is delayed waiting for a second ack-eliciting packet.
constexpr Duration kMaxAckDelay = milliseconds(25);
/// Packet-threshold loss detection: a packet this far below the largest
/// acknowledged is declared lost.
constexpr std::uint64_t kReorderThreshold = 3;
/// In-flight capacity, in records, above which an ACK that empties the
/// flight frees the rings. A flight that large was a bulk transfer: growing
/// back costs a few allocations against as many packets, while a connection
/// that then idles (a server whose client is gone waits out its 30 s idle
/// timeout) would hold the peak for nothing. Smaller rings stay for reuse.
constexpr std::size_t kKeptRingCapacity = 64;

/// The first run starting after `k` in a sorted list of [first, last] runs.
auto run_after(auto& runs, std::uint32_t k) {
  return std::upper_bound(runs.begin(), runs.end(), k,
                          [](std::uint32_t v, const auto& run) { return v < run.first; });
}
}  // namespace

// ---------------------------------------------------------------- Stream --

Stream::Stream(Connection& conn, std::uint32_t id, std::uint64_t open_order)
    : conn_(conn), id_(id), open_order_(open_order) {}

void Stream::write(std::span<const std::uint8_t> data) {
  if (broken_ || fin_queued_) return;
  Chunk chunk;
  chunk.offset = next_send_offset_;
  // The one copy into the send buffer: frames and retransmission records
  // are slices of it.
  chunk.data = net::PacketView::copy_of(data);
  next_send_offset_ += data.size();
  pending_.push_back(std::move(chunk));
  conn_.enqueue(*this);
  conn_.pump();
}

void Stream::finish() {
  if (broken_ || fin_queued_) return;
  fin_queued_ = true;
  Chunk chunk;
  chunk.offset = next_send_offset_;
  chunk.fin = true;
  pending_.push_back(std::move(chunk));
  conn_.enqueue(*this);
  conn_.pump();
  conn_.note_awaiting_response();
}

void Stream::set_on_data(DataFn on_data) {
  on_data_ = std::move(on_data);
  flush_reassembly();
}

void Stream::release() {
  if (released_) return;
  // The reader stays in place (this may run inside it) but is never called
  // again; it is destroyed with the stream.
  released_ = true;
  orphaned_ = !fin_delivered_;
  flush_reassembly();  // drains what already arrived; notes a finished stream
}

bool Stream::broken() const { return broken_; }

bool Stream::retirable() const {
  return released_ && (fin_delivered_ || broken_) && fin_queued_ && pending_.empty() &&
         unacked_chunks_ == 0;
}

bool Stream::awaiting_response() const {
  return fin_queued_ && pending_.empty() && (!fin_delivered_ || orphaned_) && !broken_;
}

void Stream::deliver(std::span<const std::uint8_t> data, bool fin) {
  if (!released_ && on_data_) on_data_(data, fin);
}

void Stream::on_stream_frame(const StreamFrame& frame) {
  if (broken_ || fin_delivered_) return;
  if (frame.fin) {
    fin_offset_ = frame.offset + frame.data.size();
  }
  if (reassembly_.empty() && frame.offset <= next_recv_offset_ && (on_data_ || released_)) {
    // In order with nothing buffered: read in place from the datagram.
    deliver_fresh(frame.offset, frame.data.span());
  } else if (!frame.data.empty() && frame.offset + frame.data.size() > next_recv_offset_) {
    reassembly_[frame.offset] = frame.data;
  }
  flush_reassembly();
}

void Stream::deliver_fresh(std::uint64_t offset, std::span<const std::uint8_t> data) {
  if (offset + data.size() <= next_recv_offset_) return;  // duplicate, consumed silently
  const auto fresh = data.subspan(static_cast<std::size_t>(next_recv_offset_ - offset));
  next_recv_offset_ += fresh.size();
  const bool fin_now = next_recv_offset_ == fin_offset_;
  if (fin_now) fin_delivered_ = true;
  deliver(fresh, fin_now);
}

void Stream::flush_reassembly() {
  // A released stream has no reader but still drains up to the peer's FIN,
  // which finishes its receive side.
  if ((!on_data_ && !released_) || broken_) return;
  while (!reassembly_.empty() && reassembly_.begin()->first <= next_recv_offset_) {
    // Out of the map before the reader runs: it may re-enter (release()).
    const auto node = reassembly_.extract(reassembly_.begin());
    deliver_fresh(node.key(), node.mapped().span());
    if (fin_delivered_) break;
  }
  // Pure FIN (no trailing data).
  if (!fin_delivered_ && next_recv_offset_ == fin_offset_) {
    fin_delivered_ = true;
    deliver({}, true);
  }
  if (fin_delivered_) conn_.note_retirable(*this);
}

void Stream::mark_broken() {
  if (broken_) return;
  broken_ = true;
  if (on_data_ && !released_ && !fin_delivered_) {
    fin_delivered_ = true;
    on_data_({}, true);
  }
}

// ------------------------------------------------------------ Connection --

Connection::Connection(sim::Simulator& sim, Conduit conduit, Role role, std::uint64_t conn_id,
                       TransportConfig config)
    : sim_(sim),
      conduit_(std::move(conduit)),
      role_(role),
      conn_id_(conn_id),
      config_(std::move(config)),
      next_local_stream_(role == Role::kClient ? 0 : 1),
      srtt_(kInitialRtt),
      rttvar_(kInitialRtt / 2),
      cwnd_(kInitialCwndPackets * 1200),
      ssthresh_(SIZE_MAX),
      ack_timer_(sim, [this] { maybe_send_pure_ack(); }),
      pto_timer_(sim, [this] { on_pto(); }),
      idle_timer_(sim, [this] { close("idle timeout"); }),
      keep_alive_timer_(sim, [this] { on_keep_alive(); }) {
  if (role_ == Role::kServer) {
    state_ = State::kConnecting;
  }
}

Connection::~Connection() = default;

std::size_t Connection::mss() const { return conduit_.max_payload; }

void Connection::start() {
  assert(role_ == Role::kClient);
  if (state_ != State::kIdle) return;
  state_ = State::kConnecting;
  connect_started_at_ = sim_.now();
  idle_timer_.arm(config_.idle_timeout);
  send_hello(0);
  if (config_.zero_rtt && config_.extra_handshake_rtts == 0) {
    // Early data: the server accepts stream frames as soon as it sees the
    // INITIAL (same datagram ordering on FIFO links), so the client may
    // treat the connection as usable immediately.
    establish();
  }
}

void Connection::send_hello(std::uint8_t round) {
  HelloFrame hello;
  hello.reply = role_ == Role::kServer;
  hello.round = round;
  hello.alpn = config_.alpn;
  begin_packet(role_ == Role::kClient ? PacketType::kInitial : PacketType::kHandshake)
      .frames.emplace_back(std::move(hello));

  SentPacket record;
  record.hello = true;
  record.hello_round = round;
  send_packet(record);
}

void Connection::establish() {
  if (state_ != State::kConnecting) return;
  state_ = State::kEstablished;
  established_at_ = sim_.now();
  PAN_DEBUG(kLog) << to_string(config_.kind) << " conn " << conn_id_ << " established ("
                  << (role_ == Role::kClient ? "client" : "server") << ")";
  if (on_established_) on_established_();
  pump();
}

Stream& Connection::open_stream() {
  if (config_.kind == TransportKind::kTcpLite) {
    assert(next_local_stream_ == 0 && role_ == Role::kClient &&
           "tcp-lite carries exactly one client-opened stream");
  }
  const std::uint32_t id = next_local_stream_;
  next_local_stream_ += 2;
  return add_stream(id);
}

Stream& Connection::add_stream(std::uint32_t id) {
  auto stream = std::make_unique<Stream>(*this, id, next_open_order_++);
  Stream& ref = *stream;
  streams_[id] = std::move(stream);
  return ref;
}

Stream* Connection::stream(std::uint32_t id) {
  const auto it = streams_.find(id);
  return it == streams_.end() ? nullptr : it->second.get();
}

void Connection::enqueue(Stream& stream) {
  if (stream.queued_) return;
  stream.queued_ = true;
  const auto at = std::upper_bound(
      ready_.begin(), ready_.end(), stream.open_order_,
      [](std::uint64_t order, const Stream* other) { return order < other->open_order_; });
  ready_.insert(at, &stream);
}

void Connection::requeue(const SentChunkRef& ref) {
  Stream* target = stream(ref.stream_id);
  if (target == nullptr) return;
  --target->unacked_chunks_;
  if (target->broken_) return;
  Stream::Chunk chunk;
  chunk.offset = ref.offset;
  // A tight copy, not the shared slice: a lost packet can wait long for its
  // retransmission (a connection idles 30 s after its client is gone), and
  // a slice would keep the whole write's buffer alive until then.
  chunk.data = net::PacketView::copy_of(ref.data.span());
  chunk.fin = ref.fin;
  target->pending_.push_front(std::move(chunk));
  enqueue(*target);
}

void Connection::note_retirable(Stream& stream) {
  if (stream.retirable()) retire_candidates_.push_back(stream.id_);
}

void Connection::retire_streams() {
  for (const std::uint32_t id : retire_candidates_) {
    const auto it = streams_.find(id);
    if (it == streams_.end() || !it->second->retirable()) continue;  // already gone
    // A retired stream's state is final, so whether it awaits is too.
    if (it->second->awaiting_response()) ++retired_awaiting_;
    streams_.erase(it);
    mark_retired(id);
  }
  retire_candidates_.clear();
}

bool Connection::retired(std::uint32_t id) const {
  const auto& runs = retired_[id & 1];
  const std::uint32_t k = id >> 1;
  const auto after = run_after(runs, k);
  return after != runs.begin() && std::prev(after)->second >= k;
}

void Connection::mark_retired(std::uint32_t id) {
  auto& runs = retired_[id & 1];
  const std::uint32_t k = id >> 1;
  const auto after = run_after(runs, k);
  const bool joins_before = after != runs.begin() && std::prev(after)->second + 1 == k;
  const bool joins_after = after != runs.end() && after->first == k + 1;
  if (joins_before && joins_after) {
    std::prev(after)->second = after->second;
    runs.erase(after);
  } else if (joins_before) {
    std::prev(after)->second = k;
  } else if (joins_after) {
    after->first = k;
  } else {
    runs.insert(after, {k, k});
  }
}

void Connection::close(const std::string& reason) {
  if (state_ == State::kClosed) return;
  if (state_ != State::kIdle && conduit_.send) {
    begin_packet(PacketType::kData).frames.emplace_back(CloseFrame{reason});
    conduit_.send(serialize_tx());
  }
  state_ = State::kClosed;
  ack_timer_.cancel();
  pto_timer_.cancel();
  idle_timer_.cancel();
  release_in_flight();
  for (auto& [id, stream] : streams_) stream->mark_broken();
  if (on_closed_) {
    // Move out so a re-entrant close cannot fire it twice.
    auto cb = std::move(on_closed_);
    on_closed_ = nullptr;
    cb(reason);
  }
}

void Connection::set_conduit(Conduit conduit) {
  conduit_ = std::move(conduit);
  on_path_migrated();
}

void Connection::on_path_migrated() {
  if (state_ != State::kEstablished) return;
  // RFC 9000 §9.4: on path migration, reset the congestion controller — the
  // old path's state (including an ssthresh crushed by blackhole PTOs) says
  // nothing about the new path.
  pto_count_ = 0;
  cwnd_ = kInitialCwndPackets * 1200;
  ssthresh_ = SIZE_MAX;
  have_rtt_sample_ = false;
  srtt_ = kInitialRtt;
  rttvar_ = kInitialRtt / 2;
  loss_recovery_end_pn_ = next_pn_;
  retransmit_all_outstanding();
}

void Connection::on_datagram(const net::PacketView& data) {
  if (state_ == State::kClosed) return;
  const Status parsed = parse_packet_into(data, rx_);
  if (!parsed.ok()) {
    PAN_DEBUG(kLog) << "conn " << conn_id_ << ": " << parsed.error();
    return;
  }
  on_packet(rx_, data.size());
  rx_.frames.clear();
}

void Connection::on_packet(const TransportPacket& packet, std::size_t wire_size) {
  if (state_ == State::kClosed) return;
  if (packet.kind != config_.kind || packet.conn_id != conn_id_) return;
  // Conduit::send is asynchronous, so no callback below can feed this
  // connection another datagram (which would reuse rx_ under our feet).
  assert(!receiving_ && "Conduit::send must deliver asynchronously");
  receiving_ = true;

  ++stats_.packets_received;
  stats_.bytes_received += wire_size;
  idle_timer_.arm(config_.idle_timeout);

  bool ack_eliciting = false;
  for (const Frame& frame : packet.frames) {
    process_frame(frame, &ack_eliciting);
    if (state_ == State::kClosed) break;
  }
  if (state_ != State::kClosed) {
    record_received(packet.packet_number, ack_eliciting);
    pump();
    // Every frame is processed and no stream callback is running: a safe
    // point to free finished streams.
    retire_streams();
  }
  receiving_ = false;
}

void Connection::process_frame(const Frame& frame, bool* ack_eliciting) {
  if (const auto* hello = std::get_if<HelloFrame>(&frame)) {
    *ack_eliciting = true;
    if (role_ == Role::kServer && !hello->reply) {
      // Respond to this round; establish after the final round.
      send_hello(hello->round);
      if (hello->round >= config_.extra_handshake_rtts) establish();
    } else if (role_ == Role::kClient && hello->reply) {
      if (hello->round >= config_.extra_handshake_rtts) {
        establish();
      } else if (hello->round >= hello_rounds_done_) {
        hello_rounds_done_ = static_cast<std::uint8_t>(hello->round + 1);
        send_hello(hello_rounds_done_);
      }
    }
  } else if (const auto* stream_frame = std::get_if<StreamFrame>(&frame)) {
    *ack_eliciting = true;
    Stream* target = stream(stream_frame->stream_id);
    if (target == nullptr) {
      // A late or duplicate frame for a retired stream: acked, then dropped.
      if (retired(stream_frame->stream_id)) return;
      // Peer-initiated stream.
      target = &add_stream(stream_frame->stream_id);
      if (on_stream_) on_stream_(*target);
    }
    target->on_stream_frame(*stream_frame);
  } else if (const auto* ack = std::get_if<AckFrame>(&frame)) {
    process_ack(*ack);
  } else if (const auto* close_frame = std::get_if<CloseFrame>(&frame)) {
    const std::string reason = "peer closed: " + close_frame->reason;
    // Suppress our own CLOSE echo.
    conduit_.send = nullptr;
    close(reason);
  } else if (std::get_if<PingFrame>(&frame) != nullptr) {
    *ack_eliciting = true;
  }
}

void Connection::process_ack(const AckFrame& ack) {
  bool newly_acked_largest = false;
  TimePoint largest_sent_at;
  lost_.clear();

  // A packet above every acked range is neither acked nor lost (a loss needs
  // a larger pn acked), so the walk stops there: an ACK costs what it acks,
  // not the whole flight.
  std::uint64_t top = 0;
  for (const AckRange& range : ack.ranges) top = std::max(top, range.last);
  for (std::size_t i = 0; i < in_flight_.size() && in_flight_[i].pn <= top; ++i) {
    SentPacket& packet = in_flight_[i];
    if (!packet.live) continue;
    if (ack.contains(packet.pn)) {
      ++stats_.packets_acked;
      if (packet.pn == ack.largest()) {
        newly_acked_largest = true;
        largest_sent_at = packet.sent_at;
      }
      // Congestion control growth.
      if (cwnd_ < ssthresh_) {
        cwnd_ += packet.size;  // slow start
      } else {
        cwnd_ += std::max<std::size_t>(1, mss() * packet.size / cwnd_);
      }
      for (std::uint32_t c = 0; c < packet.chunk_count; ++c) {
        SentChunkRef& ref = chunk_ref(packet, c);
        if (Stream* target = stream(ref.stream_id)) {
          --target->unacked_chunks_;
          note_retirable(*target);
        }
        ref.data = {};
      }
      bury(packet);
    } else if (packet.pn + kReorderThreshold <= ack.largest()) {
      lost_.push_back(i);
    }
  }

  if (newly_acked_largest) {
    const Duration sample = sim_.now() - largest_sent_at;
    if (!have_rtt_sample_) {
      srtt_ = sample;
      rttvar_ = sample / 2;
      have_rtt_sample_ = true;
    } else {
      const Duration err = sample > srtt_ ? sample - srtt_ : srtt_ - sample;
      rttvar_ = Duration{(3 * rttvar_.nanos() + err.nanos()) / 4};
      srtt_ = Duration{(7 * srtt_.nanos() + sample.nanos()) / 8};
    }
    pto_count_ = 0;
  }

  // Ascending pn. A re-sent HELLO only appends, so the indices hold.
  for (const std::size_t i : lost_) declare_lost(i);

  while (!in_flight_.empty() && !in_flight_[0].live) {
    const std::uint32_t chunks = in_flight_[0].chunk_count;
    for (std::uint32_t c = 0; c < chunks; ++c) sent_chunks_.pop_front();
    chunks_popped_ += chunks;
    in_flight_.pop_front();
  }

  if (live_in_flight_ == 0) {
    if (in_flight_.empty() && in_flight_.capacity() > kKeptRingCapacity) release_in_flight();
    pto_timer_.cancel();
  } else {
    arm_pto();
  }
}

Connection::SentChunkRef& Connection::chunk_ref(const SentPacket& packet, std::uint32_t i) {
  return sent_chunks_[static_cast<std::size_t>(packet.first_chunk - chunks_popped_) + i];
}

void Connection::bury(SentPacket& packet) {
  packet.live = false;
  --live_in_flight_;
  bytes_in_flight_ -= std::min(bytes_in_flight_, packet.size);
}

void Connection::on_loss_event(std::uint64_t pn) {
  if (pn < loss_recovery_end_pn_) return;  // already reacted this window
  loss_recovery_end_pn_ = next_pn_;
  ssthresh_ = std::max(cwnd_ / 2, kMinCwndPackets * mss());
  cwnd_ = ssthresh_;
}

void Connection::declare_lost(std::size_t index) {
  SentPacket& packet = in_flight_[index];
  ++stats_.packets_lost;
  bury(packet);
  on_loss_event(packet.pn);
  if (packet.hello) {
    if (state_ == State::kConnecting) send_hello(packet.hello_round);
    return;
  }
  // Re-queue the chunks at the front of their streams.
  for (std::uint32_t c = 0; c < packet.chunk_count; ++c) {
    SentChunkRef& ref = chunk_ref(packet, c);
    requeue(ref);
    ref.data = {};
  }
}

void Connection::retransmit_all_outstanding() {
  // Everything outstanding is presumed lost. Re-queue all stream chunks
  // (walking in reverse pn order with push_front keeps offsets ascending
  // ahead of fresh data) and clear the in-flight accounting. Re-queueing
  // only part of it while the rest still counted against a collapsed cwnd
  // would deadlock the sender (nothing fits in the window).
  stats_.packets_lost += live_in_flight_;
  bool resend_hello = false;
  std::uint8_t hello_round = 0;
  for (std::size_t i = in_flight_.size(); i-- > 0;) {
    const SentPacket& packet = in_flight_[i];
    if (!packet.live) continue;
    if (packet.hello) {
      resend_hello = true;
      hello_round = packet.hello_round;
      continue;
    }
    for (std::uint32_t c = packet.chunk_count; c-- > 0;) requeue(chunk_ref(packet, c));
  }
  // A connection whose peer is gone probes until its idle timeout: it keeps
  // no flight-sized storage meanwhile.
  release_in_flight();
  if (resend_hello && state_ == State::kConnecting) send_hello(hello_round);
  pump();
  if (live_in_flight_ > 0) arm_pto();
}

void Connection::release_in_flight() {
  in_flight_.release();
  sent_chunks_.release();
  chunks_popped_ = 0;
  live_in_flight_ = 0;
  bytes_in_flight_ = 0;
}

void Connection::on_pto() {
  if (state_ == State::kClosed || live_in_flight_ == 0) return;
  ++stats_.pto_fired;
  ++pto_count_;
  // RTO semantics: collapse the window, then go-back-n.
  ssthresh_ = std::max(cwnd_ / 2, kMinCwndPackets * mss());
  cwnd_ = kMinCwndPackets * mss();
  loss_recovery_end_pn_ = next_pn_;
  retransmit_all_outstanding();
}

bool Connection::awaiting_response() const {
  if (retired_awaiting_ > 0) return true;
  return std::any_of(streams_.begin(), streams_.end(),
                     [](const auto& entry) { return entry.second->awaiting_response(); });
}

void Connection::note_awaiting_response() {
  if (config_.keep_alive > Duration::zero() && state_ != State::kClosed) {
    keep_alive_timer_.arm_if_idle(config_.keep_alive);
  }
}

void Connection::on_keep_alive() {
  if (state_ == State::kClosed || !awaiting_response()) return;  // stop probing
  if (state_ == State::kEstablished) {
    TransportPacket& packet = begin_packet(PacketType::kData);
    packet.frames.emplace_back(PingFrame{});
    if (ack_pending_) {
      packet.frames.emplace_back(build_ack());
      ack_pending_ = false;
      ack_eliciting_since_ack_ = 0;
      ack_timer_.cancel();
    }
    send_packet(SentPacket{});
  }
  keep_alive_timer_.arm(config_.keep_alive);
}

Duration Connection::pto_interval() const {
  Duration base = srtt_ + Duration{4 * rttvar_.nanos()} + kMaxAckDelay;
  for (std::uint32_t i = 0; i < pto_count_ && i < 8; ++i) base = base * 2;
  return base;
}

void Connection::arm_pto() { pto_timer_.arm(pto_interval()); }

void Connection::record_received(std::uint64_t pn, bool ack_eliciting) {
  // Merge pn into the descending range list.
  bool merged = false;
  for (std::size_t i = 0; i < recv_ranges_.size(); ++i) {
    AckRange& range = recv_ranges_[i];
    if (pn >= range.first && pn <= range.last) {
      merged = true;  // duplicate
      break;
    }
    if (pn == range.last + 1) {
      range.last = pn;
      if (i > 0 && recv_ranges_[i - 1].first == range.last + 1) {
        recv_ranges_[i - 1].first = range.first;
        recv_ranges_.erase(recv_ranges_.begin() + static_cast<std::ptrdiff_t>(i));
      }
      merged = true;
      break;
    }
    if (pn + 1 == range.first) {
      range.first = pn;
      if (i + 1 < recv_ranges_.size() && recv_ranges_[i + 1].last + 1 == range.first) {
        range.first = recv_ranges_[i + 1].first;
        recv_ranges_.erase(recv_ranges_.begin() + static_cast<std::ptrdiff_t>(i + 1));
      }
      merged = true;
      break;
    }
    if (pn > range.last) {
      recv_ranges_.insert(recv_ranges_.begin() + static_cast<std::ptrdiff_t>(i),
                          AckRange{pn, pn});
      merged = true;
      break;
    }
  }
  if (!merged) recv_ranges_.push_back(AckRange{pn, pn});
  if (recv_ranges_.size() > kMaxAckRanges) recv_ranges_.resize(kMaxAckRanges);

  if (ack_eliciting) {
    ack_pending_ = true;
    ++ack_eliciting_since_ack_;
    if (ack_eliciting_since_ack_ >= 2) {
      maybe_send_pure_ack();
    } else {
      ack_timer_.arm_if_idle(kMaxAckDelay);
    }
  }
}

AckFrame Connection::build_ack() const {
  AckFrame ack;
  ack.ranges.assign(recv_ranges_);
  return ack;
}

void Connection::maybe_send_pure_ack() {
  if (!ack_pending_ || state_ == State::kClosed) return;
  begin_packet(PacketType::kData).frames.emplace_back(build_ack());
  ack_pending_ = false;
  ack_eliciting_since_ack_ = 0;
  ack_timer_.cancel();
  net::PacketView wire = serialize_tx();
  stats_.bytes_sent += wire.size();
  if (conduit_.send) conduit_.send(std::move(wire));
}

TransportPacket& Connection::begin_packet(PacketType type) {
  tx_.kind = config_.kind;
  tx_.type = type;
  tx_.conn_id = conn_id_;
  tx_.frames.clear();
  return tx_;
}

net::PacketView Connection::serialize_tx() {
  tx_.packet_number = next_pn_++;
  net::PacketView wire = serialize_packet_view(tx_, conduit_.headroom);
  tx_.frames.clear();
  ++stats_.packets_sent;
  return wire;
}

void Connection::send_packet(SentPacket record) {
  record.pn = next_pn_;
  net::PacketView wire = serialize_tx();
  record.sent_at = sim_.now();
  record.size = wire.size();
  stats_.bytes_sent += wire.size();
  bytes_in_flight_ += record.size;
  ++live_in_flight_;
  in_flight_.push_back(record);  // pn is the largest
  arm_pto();
  if (conduit_.send) conduit_.send(std::move(wire));
}

void Connection::pump() {
  if (state_ != State::kEstablished) return;

  while (bytes_in_flight_ < cwnd_) {
    // Gather chunks round-robin across streams up to the datagram budget.
    std::size_t budget = mss();
    if (budget < packet_header_size() + kAckReserve + stream_frame_overhead() + 1) break;
    budget -= packet_header_size() + kAckReserve;

    TransportPacket& packet = begin_packet(PacketType::kData);
    SentPacket record;
    record.first_chunk = chunks_popped_ + sent_chunks_.size();

    bool any = false;
    while (budget > stream_frame_overhead() && !ready_.empty()) {
      auto at = std::lower_bound(
          ready_.begin(), ready_.end(), rr_cursor_,
          [](const Stream* s, std::uint64_t order) { return s->open_order_ < order; });
      if (at == ready_.end()) at = ready_.begin();
      Stream* target = *at;
      rr_cursor_ = target->open_order_ + 1;

      Stream::Chunk& chunk = target->pending_[0];
      const std::size_t room = budget - stream_frame_overhead();
      StreamFrame frame;
      frame.stream_id = target->id_;
      frame.offset = chunk.offset;
      if (chunk.data.size() <= room) {
        frame.data = std::move(chunk.data);
        frame.fin = chunk.fin;
        target->pending_.pop_front();
        if (target->pending_.empty()) {
          target->queued_ = false;
          ready_.erase(at);
        }
      } else {
        // Cut the frame off the front of the chunk: two views, no copy.
        frame.data = chunk.data.subview(0, room);
        chunk.data = chunk.data.subview(room);
        chunk.offset += room;
      }
      budget -= stream_frame_overhead() + frame.data.size();
      ++target->unacked_chunks_;
      sent_chunks_.push_back(SentChunkRef{frame.stream_id, frame.offset, frame.data, frame.fin});
      ++record.chunk_count;
      packet.frames.emplace_back(std::move(frame));
      any = true;
    }

    if (!any) break;
    if (ack_pending_) {
      packet.frames.emplace_back(build_ack());
      ack_pending_ = false;
      ack_eliciting_since_ack_ = 0;
      ack_timer_.cancel();
    }
    send_packet(record);
  }
}

}  // namespace pan::transport
