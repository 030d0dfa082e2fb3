// Tests for the transport engine: frames, handshake, reliable delivery,
// multiplexing, loss recovery, congestion behaviour, timeouts, round-robin
// send order, stream retirement, and the allocations a bulk write costs
// (over a bare pair and over real SCION paths).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "core/scenarios.hpp"
#include "crypto/sha256.hpp"
#include "http/client.hpp"
#include "http/file_server.hpp"  // generate_blob for payload integrity
#include "net/host.hpp"
#include "net/router.hpp"
#include "support/alloc_probe.hpp"
#include "transport/scion_host.hpp"
#include "transport/udp_host.hpp"
#include "util/rng.hpp"

namespace pan::transport {
namespace {

// ---------------------------------------------------------------- frames --

TEST(FramesTest, PacketRoundTrip) {
  TransportPacket packet;
  packet.kind = TransportKind::kQuicLite;
  packet.type = PacketType::kData;
  packet.conn_id = 0xABCDEF;
  packet.packet_number = 42;
  packet.frames.emplace_back(HelloFrame{true, 2, "h3-lite"});
  packet.frames.emplace_back(StreamFrame{4, 1000, true, from_string("data")});
  packet.frames.emplace_back(AckFrame{{{5, 9}, {1, 3}}});
  packet.frames.emplace_back(CloseFrame{"bye"});
  packet.frames.emplace_back(PingFrame{});

  const Bytes wire = serialize_packet(packet);
  const auto parsed = parse_packet(wire);
  ASSERT_TRUE(parsed.ok());
  const TransportPacket& out = parsed.value();
  EXPECT_EQ(out.conn_id, packet.conn_id);
  EXPECT_EQ(out.packet_number, 42u);
  ASSERT_EQ(out.frames.size(), 5u);
  EXPECT_EQ(std::get<HelloFrame>(out.frames[0]).round, 2);
  EXPECT_EQ(std::get<StreamFrame>(out.frames[1]).offset, 1000u);
  EXPECT_TRUE(std::get<StreamFrame>(out.frames[1]).fin);
  EXPECT_EQ(std::get<AckFrame>(out.frames[2]).largest(), 9u);
  EXPECT_EQ(std::get<CloseFrame>(out.frames[3]).reason, "bye");
}

TEST(FramesTest, RejectsGarbage) {
  EXPECT_FALSE(parse_packet(Bytes{0x00}).ok());
  EXPECT_FALSE(parse_packet(Bytes{}).ok());
  Bytes truncated = serialize_packet(TransportPacket{});
  truncated.pop_back();
  EXPECT_FALSE(parse_packet(truncated).ok());
}

TEST(FramesTest, ParseIntoReadsStreamDataInPlace) {
  TransportPacket packet;
  packet.frames.emplace_back(StreamFrame{4, 1000, false, from_string("payload")});
  packet.frames.emplace_back(PingFrame{});
  const net::PacketView wire = serialize_packet_view(packet, 0);
  TransportPacket out;
  out.frames.emplace_back(CloseFrame{"stale"});
  ASSERT_TRUE(parse_packet_into(wire, out).ok());
  ASSERT_EQ(out.frames.size(), 2u);  // replaced, not appended
  const net::PacketView& data = std::get<StreamFrame>(out.frames[0]).data;
  EXPECT_EQ(to_string_view_copy(data.span()), "payload");
  // The frame's bytes are the datagram's own, not a copy.
  const auto datagram = wire.span();
  EXPECT_TRUE(std::less_equal<>()(datagram.data(), data.span().data()));
  EXPECT_TRUE(std::less_equal<>()(data.span().data() + data.size(),
                                  datagram.data() + datagram.size()));
}

TEST(FramesTest, RejectsTruncatedStreamAndTooManyAckRanges) {
  TransportPacket packet;
  packet.frames.emplace_back(StreamFrame{0, 0, false, from_string("abcdef")});
  Bytes wire = serialize_packet(packet);
  ASSERT_TRUE(parse_packet(wire).ok());
  wire.pop_back();  // the length prefix claims one byte more than follows
  EXPECT_FALSE(parse_packet(wire).ok());
  wire.resize(packet_header_size() + stream_frame_overhead() - 1);  // inside the prefix
  EXPECT_FALSE(parse_packet(wire).ok());

  TransportPacket acks;
  AckFrame ack;
  for (std::uint64_t i = 0; i < kMaxAckRanges; ++i) ack.ranges.push_back({100 - 4 * i, 101 - 4 * i});
  acks.frames.emplace_back(ack);
  Bytes ack_wire = serialize_packet(acks);
  const auto sixteen = parse_packet(ack_wire);
  ASSERT_TRUE(sixteen.ok());
  EXPECT_EQ(std::get<AckFrame>(sixteen.value().frames.at(0)).ranges.size(), kMaxAckRanges);
  // A 17th range: bump the count (after the frame type) and append one.
  ack_wire[packet_header_size() + 1] = kMaxAckRanges + 1;
  ack_wire.insert(ack_wire.end(), 16, 0);
  const auto seventeen = parse_packet(ack_wire);
  ASSERT_FALSE(seventeen.ok());
  EXPECT_EQ(seventeen.error(), "too many ack ranges");
}

TEST(FramesTest, AckContains) {
  AckFrame ack{{{10, 12}, {5, 7}}};
  EXPECT_TRUE(ack.contains(5));
  EXPECT_TRUE(ack.contains(11));
  EXPECT_FALSE(ack.contains(8));
  EXPECT_FALSE(ack.contains(13));
  EXPECT_EQ(ack.largest(), 12u);
}

// --------------------------------------------------------- world fixture --

/// Two hosts joined through a router; client dials the server over UDP.
struct TransportWorld {
  sim::Simulator sim;
  net::Network net{sim, 3};
  std::unique_ptr<net::Router> router;
  std::unique_ptr<net::Host> client_host;
  std::unique_ptr<net::Host> server_host;

  explicit TransportWorld(const net::LinkParams& link = make_default_link()) {
    const net::NodeId r = net.add_node("r");
    router = std::make_unique<net::Router>(net, r);
    const net::NodeId c = net.add_node("client");
    const net::NodeId s = net.add_node("server");
    const auto [c_if, r_c] = net.connect(c, r, link);
    const auto [s_if, r_s] = net.connect(s, r, link);
    (void)c_if;
    (void)s_if;
    client_host = std::make_unique<net::Host>(net, c, net::IpAddr{(1u << 16) | 1});
    server_host = std::make_unique<net::Host>(net, s, net::IpAddr{(1u << 16) | 2});
    router->set_host_route(client_host->address(), r_c);
    router->set_host_route(server_host->address(), r_s);
  }

  static net::LinkParams make_default_link() {
    net::LinkParams link;
    link.latency = milliseconds(10);
    link.bandwidth_bps = 100e6;
    link.max_queue_delay = milliseconds(200);
    return link;
  }

  [[nodiscard]] net::Endpoint server_endpoint(std::uint16_t port) const {
    return net::Endpoint{server_host->address(), port};
  }
};

TransportConfig quic_config() {
  TransportConfig config;
  config.kind = TransportKind::kQuicLite;
  return config;
}

TEST(ConnectionTest, HandshakeTakesOneRtt) {
  TransportWorld world;
  UdpTransportServer server(*world.server_host, 4433, quic_config(), nullptr);
  UdpTransportClient client(*world.client_host, world.server_endpoint(4433), quic_config());
  TimePoint established_at;
  client.connection().set_on_established([&] { established_at = world.sim.now(); });
  client.connection().start();
  world.sim.run_until(TimePoint{seconds(1).nanos()});
  ASSERT_EQ(client.connection().state(), Connection::State::kEstablished);
  // RTT = 4 * 10ms link latency (client->router->server and back).
  EXPECT_GE(established_at.nanos(), milliseconds(40).nanos());
  EXPECT_LE(established_at.nanos(), milliseconds(42).nanos());
}

TEST(ConnectionTest, ExtraHandshakeRttsDelayEstablishment) {
  TransportWorld world;
  TransportConfig config = quic_config();
  config.extra_handshake_rtts = 1;
  UdpTransportServer server(*world.server_host, 4433, config, nullptr);
  UdpTransportClient client(*world.client_host, world.server_endpoint(4433), config);
  TimePoint established_at;
  client.connection().set_on_established([&] { established_at = world.sim.now(); });
  client.connection().start();
  world.sim.run_until(TimePoint{seconds(1).nanos()});
  ASSERT_EQ(client.connection().state(), Connection::State::kEstablished);
  EXPECT_GE(established_at.nanos(), milliseconds(80).nanos());
}

TEST(ConnectionTest, EchoIntegrity) {
  TransportWorld world;
  const Bytes blob = http::generate_blob(50'000, 7);
  Bytes server_received;
  UdpTransportServer server(*world.server_host, 4433, quic_config(),
                            [&](Connection& conn) {
    conn.set_on_stream([&](Stream& stream) {
      stream.set_on_data([&, s = &stream](std::span<const std::uint8_t> data, bool fin) {
        server_received.insert(server_received.end(), data.begin(), data.end());
        if (fin) {
          s->write(server_received);
          s->finish();
        }
      });
    });
  });
  UdpTransportClient client(*world.client_host, world.server_endpoint(4433), quic_config());
  Bytes echoed;
  bool done = false;
  client.connection().set_on_established([&] {
    Stream& stream = client.connection().open_stream();
    stream.set_on_data([&](std::span<const std::uint8_t> data, bool fin) {
      echoed.insert(echoed.end(), data.begin(), data.end());
      if (fin) done = true;
    });
    stream.write(blob);
    stream.finish();
  });
  client.connection().start();
  world.sim.run_until_condition([&] { return done; }, TimePoint{seconds(30).nanos()});
  ASSERT_TRUE(done);
  EXPECT_EQ(server_received, blob);
  EXPECT_EQ(echoed, blob);
}

/// Reliable delivery under parameterized loss rates.
class LossRecovery : public ::testing::TestWithParam<double> {};

TEST_P(LossRecovery, TransfersDespiteLoss) {
  net::LinkParams link = TransportWorld::make_default_link();
  link.loss_rate = GetParam();
  TransportWorld world(link);
  const Bytes blob = http::generate_blob(40'000, 11);
  Bytes received;
  bool done = false;
  UdpTransportServer server(*world.server_host, 4433, quic_config(),
                            [&](Connection& conn) {
    conn.set_on_stream([&](Stream& stream) {
      stream.set_on_data([&, s = &stream](std::span<const std::uint8_t>, bool fin) {
        if (fin) {
          s->write(blob);
          s->finish();
        }
      });
    });
  });
  UdpTransportClient client(*world.client_host, world.server_endpoint(4433), quic_config());
  client.connection().set_on_established([&] {
    Stream& stream = client.connection().open_stream();
    stream.set_on_data([&](std::span<const std::uint8_t> data, bool fin) {
      received.insert(received.end(), data.begin(), data.end());
      if (fin) done = true;
    });
    stream.write(from_string("gimme"));
    stream.finish();
  });
  client.connection().start();
  world.sim.run_until_condition([&] { return done; }, TimePoint{seconds(120).nanos()});
  ASSERT_TRUE(done) << "loss rate " << GetParam();
  EXPECT_EQ(received, blob);
  if (GetParam() > 0) {
    EXPECT_GT(world.net.drop_totals().loss, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(LossRates, LossRecovery,
                         ::testing::Values(0.0, 0.01, 0.05, 0.15));

TEST(ConnectionTest, ManyConcurrentStreams) {
  TransportWorld world;
  constexpr int kStreams = 20;
  UdpTransportServer server(*world.server_host, 4433, quic_config(),
                            [&](Connection& conn) {
    conn.set_on_stream([&](Stream& stream) {
      stream.set_on_data([s = &stream](std::span<const std::uint8_t> data, bool fin) {
        static_cast<void>(data);
        if (fin) {
          // Echo the stream id as payload so the client can verify demux.
          const std::string tag = "stream-" + std::to_string(s->id());
          s->write(from_string(tag));
          s->finish();
        }
      });
    });
  });
  UdpTransportClient client(*world.client_host, world.server_endpoint(4433), quic_config());
  int done = 0;
  bool mismatch = false;
  std::unordered_map<std::uint32_t, std::string> accumulated;
  client.connection().set_on_established([&] {
    for (int i = 0; i < kStreams; ++i) {
      Stream& stream = client.connection().open_stream();
      stream.set_on_data([&, id = stream.id()](std::span<const std::uint8_t> data, bool fin) {
        accumulated[id].append(reinterpret_cast<const char*>(data.data()), data.size());
        if (fin) {
          const std::string expected = "stream-" + std::to_string(id);
          if (accumulated[id] != expected) mismatch = true;
          ++done;
        }
      });
      stream.write(from_string("x"));
      stream.finish();
    }
  });
  client.connection().start();
  world.sim.run_until_condition([&] { return done == kStreams; },
                                TimePoint{seconds(30).nanos()});
  EXPECT_EQ(done, kStreams);
  EXPECT_FALSE(mismatch);
}

TEST(ConnectionTest, TcpLiteSingleStreamExchange) {
  TransportWorld world;
  TransportConfig tcp;
  tcp.kind = TransportKind::kTcpLite;
  UdpTransportServer server(*world.server_host, 8080, tcp, [&](Connection& conn) {
    conn.set_on_stream([&](Stream& stream) {
      stream.set_on_data([s = &stream](std::span<const std::uint8_t>, bool fin) {
        if (fin) {
          s->write(from_string("response"));
          s->finish();
        }
      });
    });
  });
  UdpTransportClient client(*world.client_host, world.server_endpoint(8080), tcp);
  Stream& stream = client.connection().open_stream();  // queued pre-handshake
  std::string got;
  bool done = false;
  stream.set_on_data([&](std::span<const std::uint8_t> data, bool fin) {
    got.append(reinterpret_cast<const char*>(data.data()), data.size());
    if (fin) done = true;
  });
  stream.write(from_string("request"));
  stream.finish();
  client.connection().start();
  world.sim.run_until_condition([&] { return done; }, TimePoint{seconds(10).nanos()});
  EXPECT_EQ(got, "response");
}

TEST(ConnectionTest, CloseNotifiesPeerAndBreaksStreams) {
  TransportWorld world;
  UdpTransportServer server(*world.server_host, 4433, quic_config(), nullptr);
  UdpTransportClient client(*world.client_host, world.server_endpoint(4433), quic_config());
  std::string close_reason;
  client.connection().set_on_closed([&](const std::string& reason) { close_reason = reason; });
  client.connection().start();
  world.sim.run_until_condition(
      [&] { return client.connection().state() == Connection::State::kEstablished; },
      TimePoint{seconds(2).nanos()});
  Stream& stream = client.connection().open_stream();
  client.connection().close("test over");
  EXPECT_EQ(client.connection().state(), Connection::State::kClosed);
  EXPECT_EQ(close_reason, "test over");
  EXPECT_TRUE(stream.broken());
}

TEST(ConnectionTest, IdleTimeoutCloses) {
  TransportWorld world;
  TransportConfig config = quic_config();
  config.idle_timeout = milliseconds(500);
  UdpTransportServer server(*world.server_host, 4433, config, nullptr);
  UdpTransportClient client(*world.client_host, world.server_endpoint(4433), config);
  std::string reason;
  client.connection().set_on_closed([&](const std::string& r) { reason = r; });
  client.connection().start();
  world.sim.run_until(TimePoint{seconds(5).nanos()});
  EXPECT_EQ(client.connection().state(), Connection::State::kClosed);
  EXPECT_EQ(reason, "idle timeout");
}

TEST(ConnectionTest, CongestionWindowGrowsDuringTransfer) {
  TransportWorld world;
  Connection* server_conn = nullptr;
  UdpTransportServer server(*world.server_host, 4433, quic_config(),
                            [&](Connection& conn) {
    server_conn = &conn;
    conn.set_on_stream([&](Stream& stream) {
      stream.set_on_data([s = &stream](std::span<const std::uint8_t>, bool fin) {
        if (fin) {
          s->write(Bytes(200'000, 0x55));
          s->finish();
        }
      });
    });
  });
  UdpTransportClient client(*world.client_host, world.server_endpoint(4433), quic_config());
  bool done = false;
  client.connection().set_on_established([&] {
    Stream& stream = client.connection().open_stream();
    stream.set_on_data([&](std::span<const std::uint8_t>, bool fin) {
      if (fin) done = true;
    });
    stream.write(from_string("go"));
    stream.finish();
  });
  client.connection().start();
  world.sim.run_until_condition([&] { return done; }, TimePoint{seconds(60).nanos()});
  ASSERT_TRUE(done);
  ASSERT_NE(server_conn, nullptr);
  EXPECT_GT(server_conn->cwnd_bytes(), 12'000u);  // grew beyond initial
  EXPECT_EQ(server_conn->stats().packets_lost, 0u);
  // RTT estimate near the real 40ms.
  EXPECT_NEAR(server_conn->smoothed_rtt().millis(), 40.0, 15.0);
}

TEST(ConnectionTest, KindMismatchIgnored) {
  TransportWorld world;
  // A QUIC server; a TCP-lite client dials it. The INITIAL carries the
  // wrong magic for the server's config, so no connection forms.
  UdpTransportServer server(*world.server_host, 4433, quic_config(), nullptr);
  TransportConfig tcp;
  tcp.kind = TransportKind::kTcpLite;
  tcp.idle_timeout = milliseconds(500);
  UdpTransportClient client(*world.client_host, world.server_endpoint(4433), tcp);
  client.connection().start();
  world.sim.run_until(TimePoint{seconds(2).nanos()});
  EXPECT_EQ(server.connection_count(), 1u);  // demuxed by conn id...
  // ...but the server connection never establishes: its kind filter drops
  // every packet, and the client gives up via idle timeout.
  EXPECT_EQ(client.connection().state(), Connection::State::kClosed);
}

TEST(ConnectionTest, ServerRejectsNonInitialForUnknownConn) {
  TransportWorld world;
  UdpTransportServer server(*world.server_host, 4433, quic_config(), nullptr);
  // Hand-craft a data packet for an unknown connection.
  TransportPacket packet;
  packet.kind = TransportKind::kQuicLite;
  packet.type = PacketType::kData;
  packet.conn_id = 0xDEAD;
  packet.packet_number = 1;
  packet.frames.emplace_back(PingFrame{});
  auto socket = world.client_host->udp_bind(0, nullptr);
  socket->send_to(world.server_endpoint(4433), serialize_packet(packet));
  world.sim.run();
  EXPECT_EQ(server.connection_count(), 0u);
}

TEST(ConnectionTest, ZeroRttSavesOneRoundTrip) {
  const auto time_to_response = [](bool zero_rtt) {
    TransportWorld world;
    TransportConfig config = quic_config();
    UdpTransportServer server(*world.server_host, 4433, config, [](Connection& conn) {
      conn.set_on_stream([](Stream& stream) {
        stream.set_on_data([s = &stream](std::span<const std::uint8_t>, bool fin) {
          if (fin) {
            s->write(from_string("resp"));
            s->finish();
          }
        });
      });
    });
    TransportConfig client_config = config;
    client_config.zero_rtt = zero_rtt;
    UdpTransportClient client(*world.client_host, world.server_endpoint(4433),
                              client_config);
    TimePoint responded;
    bool done = false;
    client.connection().set_on_established([&] {
      if (done || client.connection().stream(0) != nullptr) return;
      Stream& stream = client.connection().open_stream();
      stream.set_on_data([&](std::span<const std::uint8_t>, bool fin) {
        if (fin) {
          responded = world.sim.now();
          done = true;
        }
      });
      stream.write(from_string("req"));
      stream.finish();
    });
    client.connection().start();
    world.sim.run_until_condition([&] { return done; }, TimePoint{seconds(5).nanos()});
    EXPECT_TRUE(done);
    return responded;
  };
  const TimePoint regular = time_to_response(false);
  const TimePoint zero_rtt = time_to_response(true);
  // One round trip = 40 ms in this world; 0-RTT saves exactly that.
  EXPECT_NEAR(regular.millis() - zero_rtt.millis(), 40.0, 2.0);
}

TEST(ConnectionTest, KeepAliveProbesWhileAwaitingResponse) {
  TransportWorld world;
  TransportConfig config = quic_config();
  config.keep_alive = milliseconds(50);
  config.idle_timeout = seconds(60);
  // A server that never answers.
  UdpTransportServer server(*world.server_host, 4433, config, [](Connection& conn) {
    conn.set_on_stream([](Stream& stream) { stream.set_on_data(nullptr); });
  });
  UdpTransportClient client(*world.client_host, world.server_endpoint(4433), config);
  client.connection().set_on_established([&] {
    Stream& stream = client.connection().open_stream();
    stream.write(from_string("request"));
    stream.finish();
  });
  client.connection().start();
  world.sim.run_until(TimePoint{seconds(1).nanos()});
  // Handshake + request are a handful of packets; the rest are probes.
  EXPECT_GT(client.connection().stats().packets_sent, 10u);
}

TEST(ConnectionTest, KeepAliveStopsAfterResponse) {
  TransportWorld world;
  TransportConfig config = quic_config();
  config.keep_alive = milliseconds(50);
  config.idle_timeout = seconds(600);
  UdpTransportServer server(*world.server_host, 4433, config, [](Connection& conn) {
    conn.set_on_stream([](Stream& stream) {
      stream.set_on_data([s = &stream](std::span<const std::uint8_t>, bool fin) {
        if (fin) {
          s->write(from_string("done"));
          s->finish();
        }
      });
    });
  });
  UdpTransportClient client(*world.client_host, world.server_endpoint(4433), config);
  bool finished = false;
  client.connection().set_on_established([&] {
    Stream& stream = client.connection().open_stream();
    stream.set_on_data([&](std::span<const std::uint8_t>, bool fin) { finished = fin; });
    stream.write(from_string("request"));
    stream.finish();
  });
  client.connection().start();
  world.sim.run_until_condition([&] { return finished; }, TimePoint{seconds(5).nanos()});
  ASSERT_TRUE(finished);
  const std::uint64_t sent_at_finish = client.connection().stats().packets_sent;
  world.sim.run_until(world.sim.now() + seconds(2));
  // At most one trailing probe/ack after completion; probing must stop.
  EXPECT_LE(client.connection().stats().packets_sent, sent_at_finish + 2);
}

TEST(ConnectionTest, PathMigrationResetsCongestionState) {
  TransportWorld world;
  Connection* server_conn = nullptr;
  UdpTransportServer server(*world.server_host, 4433, quic_config(),
                            [&](Connection& conn) {
    server_conn = &conn;
    conn.set_on_stream([&](Stream& stream) {
      stream.set_on_data([s = &stream](std::span<const std::uint8_t>, bool fin) {
        if (fin) {
          s->write(Bytes(150'000, 0x42));
          s->finish();
        }
      });
    });
  });
  UdpTransportClient client(*world.client_host, world.server_endpoint(4433), quic_config());
  bool done = false;
  client.connection().set_on_established([&] {
    Stream& stream = client.connection().open_stream();
    stream.set_on_data([&](std::span<const std::uint8_t>, bool fin) {
      if (fin) done = true;
    });
    stream.write(from_string("go"));
    stream.finish();
  });
  client.connection().start();
  world.sim.run_until_condition([&] { return done; }, TimePoint{seconds(30).nanos()});
  ASSERT_TRUE(done);
  ASSERT_NE(server_conn, nullptr);
  EXPECT_GT(server_conn->cwnd_bytes(), 12'000u);  // grew during the transfer
  server_conn->on_path_migrated();
  EXPECT_EQ(server_conn->cwnd_bytes(), 12'000u);  // reset to initial
}

TEST(ConnectionTest, StatsCountersAdvance) {
  TransportWorld world;
  UdpTransportServer server(*world.server_host, 4433, quic_config(), nullptr);
  UdpTransportClient client(*world.client_host, world.server_endpoint(4433), quic_config());
  client.connection().start();
  world.sim.run_until(TimePoint{seconds(1).nanos()});
  EXPECT_GT(client.connection().stats().packets_sent, 0u);
  EXPECT_GT(client.connection().stats().packets_received, 0u);
  EXPECT_GT(client.connection().stats().bytes_sent, 0u);
}

// ------------------------------------------------------ scripted wire pair --

/// A client and a server connection joined by a scripted wire: a side's n-th
/// datagram reaches the peer 10 ms + n µs after it is sent (in order, and
/// never two at the same instant), unless `drop` loses it. `on_wire` sees
/// every datagram as it is sent, lost ones included.
struct WirePair {
  sim::Simulator sim;
  /// Loses the n-th datagram (0-based) that one side sends when true.
  std::function<bool(bool from_client, std::uint64_t n)> drop;
  std::function<void(bool from_client, const TransportPacket& packet)> on_wire;
  std::unique_ptr<Connection> client;
  std::unique_ptr<Connection> server;

  WirePair()
      : client(std::make_unique<Connection>(sim, conduit(true), Connection::Role::kClient, 1,
                                            quic_config())),
        server(std::make_unique<Connection>(sim, conduit(false), Connection::Role::kServer, 1,
                                            quic_config())) {}

 private:
  Conduit conduit(bool from_client) {
    Conduit conduit;
    conduit.send = [this, from_client, sent = std::uint64_t{0}](net::PacketView wire) mutable {
      if (on_wire) on_wire(from_client, parse_packet(wire.span()).value());
      const std::uint64_t n = sent++;
      if (drop && drop(from_client, n)) return;
      sim.schedule_after(milliseconds(10) + microseconds(static_cast<std::int64_t>(n)),
                         [this, from_client, wire = std::move(wire)] {
                           (from_client ? server : client)->on_datagram(wire);
                         });
    };
    return conduit;
  }
};

/// "c4@1800F": a STREAM frame the client sent on stream 4 at offset 1800,
/// carrying the FIN.
std::string describe(bool from_client, const StreamFrame& frame) {
  return (from_client ? "c" : "s") + std::to_string(frame.stream_id) + "@" +
         std::to_string(frame.offset) + (frame.fin ? "F" : "");
}

TEST(StreamSchedulingTest, RoundRobinOrderMatchesGolden) {
  // Interleaved writes on three streams; a fourth stream opened right after
  // a send pass that ended on the last stream, so the send cursor sits past
  // the end; and one lost client datagram whose chunks are re-queued. The
  // expected sequence was recorded from the full-history round-robin scan
  // the ready queue replaced: every STREAM frame, in wire order, from both
  // sides ("open" marks when stream 6 was opened).
  WirePair wire;
  std::vector<std::string> frames;
  std::uint32_t last_client_stream = 0;
  bool opened_late = false;
  const auto open_late = [&] {
    if (opened_late || last_client_stream != 4) return;
    opened_late = true;
    frames.emplace_back("open");
    Stream& late = wire.client->open_stream();
    late.write(Bytes(2500, 0xA3));
    late.finish();
  };
  wire.on_wire = [&](bool from_client, const TransportPacket& packet) {
    for (const Frame& frame : packet.frames) {
      if (const auto* stream_frame = std::get_if<StreamFrame>(&frame)) {
        frames.push_back(describe(from_client, *stream_frame));
        if (from_client) last_client_stream = stream_frame->stream_id;
      }
    }
    // Once the current send pass is over (streams must not be opened from
    // inside the connection's send path).
    if (from_client && frames.size() > 30) wire.sim.schedule_after(Duration::zero(), open_late);
  };
  wire.drop = [](bool from_client, std::uint64_t n) { return from_client && n == 20; };
  wire.server->set_on_stream([](Stream& stream) {
    stream.set_on_data([s = &stream](std::span<const std::uint8_t>, bool fin) {
      if (fin) {
        s->write(Bytes(1500 + 1000 * s->id(), 0x5A));
        s->finish();
      }
    });
  });
  wire.client->set_on_established([&] {
    Stream& a = wire.client->open_stream();
    Stream& b = wire.client->open_stream();
    Stream& c = wire.client->open_stream();
    a.write(Bytes(12'000, 0xA0));
    b.write(Bytes(12'000, 0xA1));
    c.write(Bytes(8'000, 0xA2));
    a.write(Bytes(4'000, 0xA0));
    for (Stream* s : {&a, &b, &c}) s->finish();
  });
  wire.client->start();
  wire.sim.run_until(TimePoint{seconds(5).nanos()});
  std::string joined;
  for (const std::string& f : frames) joined += f + " ";
  EXPECT_EQ(joined,
            // The initial window goes to stream 0, then round robin 2, 4, 0.
            "c0@0 c0@908 c0@1816 c0@2724 c0@3632 c0@4540 c0@5448 c0@6356 c0@7264 c0@8172 "
            "c0@9080 c0@9988 c0@10896 c2@0 c4@0 c0@11804 c2@908 c4@908 c0@12000 c2@1604 "
            "c4@1816 c0@12908 c2@2512 c4@2724 c0@13816 c2@3420 c4@3632 c0@14724 c2@4328 "
            "c4@4540 c0@15632 c2@5236 c4@5448 "
            // The cursor is past the end: the new stream goes first.
            "open c6@0 c0@16000F c2@5760 c4@6356 c6@908 c2@6652 c4@7264 c6@1816 c2@7560 "
            "c4@8000F c6@1972 c2@8468 s0@0 s0@908 s0@1500F c6@2500F c2@8816 c2@9708 "
            "c2@10616 c2@11524 c2@12000F "
            // The lost datagram's chunk, re-queued.
            "c4@1816 "
            "s6@0 s6@908 s6@1816 s6@2724 s6@3632 s6@4540 s6@5448 s6@6356 s6@7264 s6@7500F "
            "s2@0 s2@908 s2@1816 s4@0 s2@2724 s4@908 s2@3500F s4@1024 s4@1916 s4@2824 "
            "s4@3732 s4@4640 s4@5500F ");
}

TEST(ConnectionTest, GoBackNResendsWriteIntact) {
  // The client's first flight of a multi-packet write is lost (its datagram
  // 0 is the INITIAL). Only the PTO recovers it: go-back-n re-queues every
  // in-flight slice as a copy, and pump cuts frames from those copies and
  // from the rest of the write.
  WirePair wire;
  wire.drop = [](bool from_client, std::uint64_t n) { return from_client && n >= 1 && n <= 20; };
  const Bytes blob = http::generate_blob(30'000, 5);
  Bytes received;
  bool fin = false;
  wire.server->set_on_stream([&](Stream& stream) {
    stream.set_on_data([&](std::span<const std::uint8_t> data, bool last) {
      received.insert(received.end(), data.begin(), data.end());
      fin = last;
    });
  });
  wire.client->set_on_established([&] {
    Stream& stream = wire.client->open_stream();
    stream.write(blob);
    stream.finish();
  });
  wire.client->start();
  ASSERT_TRUE(wire.sim.run_until_condition([&] { return fin; }, TimePoint{seconds(30).nanos()}));
  EXPECT_EQ(received, blob);
  EXPECT_GT(wire.client->stats().pto_fired, 0u);
  EXPECT_GE(wire.client->stats().packets_lost, 10u);  // the whole first flight
}

// ------------------------------------------------ seeded lossy wire pair --

/// A client and a server connection joined by a seeded lossy wire: a datagram
/// is lost with probability 1%, and the rest arrive after `delay` plus up to
/// 3 ms of uniform jitter, so they overtake one another. Client datagrams sent
/// inside [blackout_from, blackout_until) are all lost. Each side's datagrams
/// are hashed in send order, lost ones included.
struct LossyPair {
  sim::Simulator sim;
  Rng rng;
  Duration delay = milliseconds(10);
  TimePoint blackout_from;
  TimePoint blackout_until;
  std::array<crypto::Sha256, 2> wire_hash;  // [0] client, [1] server
  std::unique_ptr<Connection> client;
  std::unique_ptr<Connection> server;

  explicit LossyPair(std::uint64_t seed)
      : rng(seed),
        client(std::make_unique<Connection>(sim, conduit(true), Connection::Role::kClient, 1,
                                            quic_config())),
        server(std::make_unique<Connection>(sim, conduit(false), Connection::Role::kServer, 1,
                                            quic_config())) {}

  Conduit conduit(bool from_client, std::size_t max_payload = 1200) {
    Conduit conduit;
    conduit.max_payload = max_payload;
    conduit.send = [this, from_client](net::PacketView wire) {
      wire_hash[from_client ? 0 : 1].update(wire.span());
      const bool dark =
          from_client && sim.now() >= blackout_from && sim.now() < blackout_until;
      if (rng.chance(0.01) || dark) return;
      const Duration jitter = nanoseconds(static_cast<std::int64_t>(rng.next_below(3'000'000)));
      sim.schedule_after(delay + jitter, [this, from_client, wire = std::move(wire)] {
        (from_client ? server : client)->on_datagram(wire);
      });
    };
    return conduit;
  }
};

std::string describe(const Connection::Stats& s) {
  return std::to_string(s.packets_sent) + "/" + std::to_string(s.packets_received) + "/" +
         std::to_string(s.packets_lost) + "/" + std::to_string(s.packets_acked) + "/" +
         std::to_string(s.pto_fired) + "/" + std::to_string(s.bytes_sent) + "/" +
         std::to_string(s.bytes_received);
}

TEST(ConnectionTest, LossyTransferMatchesGolden) {
  // Eight concurrent request streams of 30 kB to 3 MB, each answered with a
  // third of its size, over a wire that drops and reorders. A 400 ms client
  // blackout forces a PTO go-back-n, and a client path migration (longer
  // delay, smaller datagrams) re-queues the whole flight once more. Every
  // datagram either end sent and the final statistics are pinned; the
  // expected values were recorded from the map-based in-flight bookkeeping
  // the per-connection rings replaced. Stats read
  // sent/received/lost/acked/pto/bytes sent/bytes received.
  struct Golden {
    std::uint64_t seed;
    const char* client_wire;
    const char* server_wire;
    const char* client_stats;
    const char* server_stats;
  };
  const Golden goldens[] = {
      {1, "694135bf5715d8935a64389350e130e143eed775798734c9c2f087ad6b72cd34",
       "7118c36fbad93c773b746eb25117b9818022bd72b68053371a40b3428b5540c9",
       "6357/4388/337/5226/4/4920305/2203959", "4434/6282/133/1561/0/2226715/4862091"},
      {2, "3d14cd597db043ca796cb772160c50b21779941746ed610fd5584d9327585b33",
       "62b480241ae8d38d1ae40eddc931a2cd505f2288b9bad21b75a724a2dac574fb",
       "6360/4401/354/5213/3/4932873/2214345", "4442/6278/129/1558/0/2233939/4868967"},
      {3, "822aecdc9737dfa6b654ea0dc714c395f37bbae76399858d33929e726c88776d",
       "99f6852e6e136162e4ed9026366b1c20c2cb5e74d17667204077bf7924e4bc36",
       "6361/4394/341/5232/4/4925311/2209269", "4441/6297/116/1560/1/2234775/4872703"},
      {4, "6acf704f042a268110896461159f2267884597f03b404fe7aa4b8e036390b6ed",
       "157e58cc32a4c113205b83e98d9fe16e13e920a7ff8d6379c8e03c237aabaf98",
       "6385/4411/364/5232/4/4947707/2250391", "4458/6296/119/1556/0/2275881/4880025"},
  };
  const std::size_t sizes[] = {30'000,  3'000'000, 120'000, 45'000,
                               700'000, 64'000,    250'000, 31'000};
  constexpr std::size_t kStreams = std::size(sizes);
  for (const Golden& golden : goldens) {
    SCOPED_TRACE("seed " + std::to_string(golden.seed));
    LossyPair wire(golden.seed);
    wire.blackout_from = TimePoint{milliseconds(300).nanos()};
    wire.blackout_until = TimePoint{milliseconds(700).nanos()};
    std::array<Bytes, kStreams> requests;
    std::array<Bytes, kStreams> responses;
    std::array<std::size_t, kStreams> request_got{};
    std::array<std::size_t, kStreams> response_got{};
    std::size_t intact_requests = 0;
    std::size_t intact_responses = 0;
    for (std::size_t i = 0; i < kStreams; ++i) {
      requests[i] = http::generate_blob(sizes[i], i + 1);
      responses[i] = http::generate_blob(sizes[i] / 3, i + 101);
    }
    // Appends `data` to the running comparison against `expected`; true once
    // the whole of it arrived intact with the FIN.
    const auto receive = [](const Bytes& expected, std::size_t& got,
                            std::span<const std::uint8_t> data, bool fin) {
      const bool match = got + data.size() <= expected.size() &&
                         std::equal(data.begin(), data.end(), expected.begin() + got);
      got = match ? got + data.size() : SIZE_MAX;
      return fin && got == expected.size();
    };
    wire.server->set_on_stream([&](Stream& stream) {
      const std::size_t i = stream.id() / 2;
      stream.set_on_data([&, i, s = &stream](std::span<const std::uint8_t> data, bool fin) {
        if (!receive(requests[i], request_got[i], data, fin)) return;
        ++intact_requests;
        s->write(responses[i]);
        s->finish();
      });
    });
    wire.client->set_on_established([&] {
      for (std::size_t i = 0; i < kStreams; ++i) {
        Stream& stream = wire.client->open_stream();
        stream.set_on_data([&, i](std::span<const std::uint8_t> data, bool fin) {
          if (receive(responses[i], response_got[i], data, fin)) ++intact_responses;
        });
        stream.write(requests[i]);
        stream.finish();
      }
    });
    wire.sim.schedule_at(TimePoint{milliseconds(1500).nanos()}, [&wire] {
      wire.delay = milliseconds(14);
      wire.client->set_conduit(wire.conduit(true, 1100));
    });
    wire.client->start();
    ASSERT_TRUE(wire.sim.run_until_condition([&] { return intact_responses == kStreams; },
                                             TimePoint{seconds(300).nanos()}));
    EXPECT_EQ(intact_requests, kStreams);
    EXPECT_GT(wire.client->stats().pto_fired, 0u);
    EXPECT_EQ(crypto::hex_digest(wire.wire_hash[0].finalize()), golden.client_wire);
    EXPECT_EQ(crypto::hex_digest(wire.wire_hash[1].finalize()), golden.server_wire);
    EXPECT_EQ(describe(wire.client->stats()), golden.client_stats);
    EXPECT_EQ(describe(wire.server->stats()), golden.server_stats);
  }
}

/// Heap allocations per packet sent (data and ACKs, both ends) while an
/// established pair moves one write of `size` bytes on a fresh stream. A
/// first write of the same size warms the pair, so the connection's rings
/// have grown to the flight and the count is what each further write pays.
double allocations_per_packet(std::size_t size) {
  WirePair wire;
  const Bytes blob = http::generate_blob(size, 9);
  std::size_t received = 0;
  bool intact = true;
  bool fin = false;
  wire.server->set_on_stream([&](Stream& stream) {
    stream.set_on_data([&](std::span<const std::uint8_t> data, bool last) {
      intact = intact && std::equal(data.begin(), data.end(), blob.begin() + received);
      received += data.size();
      fin = last;
    });
  });
  const auto transfer = [&] {
    received = 0;
    fin = false;
    Stream& stream = wire.client->open_stream();
    stream.write(blob);
    stream.finish();
    EXPECT_TRUE(wire.sim.run_until_condition([&] { return fin; }, wire.sim.now() + seconds(60)));
    EXPECT_EQ(received, size);
  };
  wire.client->start();
  wire.sim.run_for(seconds(1));
  transfer();
  const auto packets = [&] {
    return wire.client->stats().packets_sent + wire.server->stats().packets_sent;
  };
  const std::uint64_t packets_before = packets();
  const std::uint64_t allocations_before = testsupport::allocation_count();
  transfer();
  const std::uint64_t allocations = testsupport::allocation_count() - allocations_before;
  const std::uint64_t sent = packets() - packets_before;
  EXPECT_TRUE(intact);
  EXPECT_GT(sent, size / 1200);
  return static_cast<double>(allocations) / static_cast<double>(sent);
}

TEST(ConnectionTest, BulkWriteCostsAboutOneAllocationPerPacket) {
  if (!testsupport::alloc_probe_active()) {
    GTEST_SKIP() << "counting allocator disabled under sanitizers";
  }
  // One copy into the send buffer, slices from there on, in-place reads on
  // receipt, and in-flight records and chunk refs in rings the connection
  // reuses: what is left per packet is its wire buffer, plus the fresh
  // stream's own few allocations spread over the write.
  for (const std::size_t size : {30'000u, 300'000u, 3'000'000u}) {
    EXPECT_LE(allocations_per_packet(size), 1.25) << size << "-byte write";
  }
}

/// Heap allocations per packet sent (data and ACKs, both ends) while a fresh,
/// established ScionTransportClient/Server pair moves one write of `size`
/// bytes from `client` to `server` over the best path between them: every
/// datagram is prepended, forwarded by the border routers and validated at
/// the receiving stack. `segments` reports the path's segment count.
double scion_allocations_per_packet(browser::World& world, scion::HostId client,
                                    scion::HostId server, std::size_t size,
                                    std::size_t& segments) {
  scion::Topology& topo = world.topology();
  const auto paths = topo.daemon_for(client).query_now(topo.as_of(server));
  EXPECT_FALSE(paths.empty());
  if (paths.empty()) return 0;
  segments = paths.front().dataplane().segments.size();

  const Bytes blob = http::generate_blob(size, 9);
  std::size_t received = 0;
  bool intact = true;
  bool fin = false;
  Connection* server_conn = nullptr;
  ScionTransportServer transport_server(
      topo.scion_stack(server), 4433, quic_config(), [&](Connection& conn) {
        server_conn = &conn;
        conn.set_on_stream([&](Stream& stream) {
          stream.set_on_data([&](std::span<const std::uint8_t> data, bool last) {
            intact = intact && std::equal(data.begin(), data.end(), blob.begin() + received);
            received += data.size();
            fin = last;
          });
        });
      });
  ScionTransportClient transport_client(topo.scion_stack(client),
                                        scion::ScionEndpoint{topo.scion_addr(server), 4433},
                                        paths.front().dataplane(), quic_config());
  Connection& conn = transport_client.connection();
  sim::Simulator& sim = world.sim();
  conn.start();
  EXPECT_TRUE(sim.run_until_condition(
      [&] { return conn.state() == Connection::State::kEstablished && server_conn != nullptr; },
      sim.now() + seconds(5)));
  if (server_conn == nullptr) return 0;
  const auto packets = [&] {
    return conn.stats().packets_sent + server_conn->stats().packets_sent;
  };
  const std::uint64_t packets_before = packets();
  const std::uint64_t allocations_before = testsupport::allocation_count();
  Stream& stream = conn.open_stream();
  stream.write(blob);
  stream.finish();
  EXPECT_TRUE(sim.run_until_condition([&] { return fin; }, sim.now() + seconds(60)));
  const std::uint64_t allocations = testsupport::allocation_count() - allocations_before;
  const std::uint64_t sent = packets() - packets_before;
  EXPECT_EQ(received, size);
  EXPECT_TRUE(intact);
  EXPECT_GT(sent, size / 1200);
  return static_cast<double>(allocations) / static_cast<double>(sent);
}

TEST(ScionTransportTest, RemotePathCostsNoMoreAllocationsPerPacketThanLocal) {
  if (!testsupport::alloc_probe_active()) {
    GTEST_SKIP() << "counting allocator disabled under sanitizers";
  }
  // End hosts keep paths in wire form: a sender prepends its pre-encoded
  // path and the receiver validates a view and compares bytes, so a
  // multi-segment inter-ISD path costs no allocation the empty intra-AS path
  // does not.
  auto world = browser::make_remote_world();
  scion::Topology& topo = world->topology();
  const scion::HostId far_www = topo.host_by_name("far-www");
  const scion::HostId far_static = topo.host_by_name("far-static");
  const scion::HostId far_rp = topo.host_by_name("far-rp1");
  double remote = 0;
  double local = 0;
  std::size_t remote_segments = 0;
  std::size_t local_segments = 0;
  // Each pair runs once unmeasured first, so one-time growth (the event
  // heap's capacity, a router's first use) is not counted against it.
  for (int run = 0; run < 2; ++run) {
    remote = scion_allocations_per_packet(*world, world->client, far_rp, 300'000,
                                          remote_segments);
    local = scion_allocations_per_packet(*world, far_www, far_static, 300'000, local_segments);
  }
  EXPECT_GE(remote_segments, 2u);
  EXPECT_EQ(local_segments, 0u);
  EXPECT_LE(remote, local);
  EXPECT_LE(remote, 3.0);
}

// ------------------------------------------------------ stream retirement --

http::HttpServer::Handler answer_ok() {
  return [](const http::HttpRequest&, http::HttpServer::Respond respond) {
    respond(http::make_text_response(200, "ok"));
  };
}

http::HttpRequest get_root() {
  http::HttpRequest request;
  request.target = "/";
  return request;
}

TEST(StreamLifecycleTest, SequentialExchangesKeepLiveStreamsBounded) {
  // 5000 exchanges one after another, each on a fresh stream of the same
  // connection. Both ends retire finished streams, so neither holds more
  // than a handful however long the history gets.
  WirePair wire;
  http::HttpServer http_server(answer_ok());
  int accepted = 0;
  wire.server->set_on_stream([&](Stream& stream) {
    ++accepted;
    http_server.serve(stream);
  });
  constexpr int kExchanges = 5000;
  int completed = 0;
  std::size_t max_live = 0;
  std::unique_ptr<http::HttpClientStream> exchange;
  std::function<void()> next = [&] {
    exchange = std::make_unique<http::HttpClientStream>(wire.client->open_stream(),
                                                        /*close_after_request=*/true);
    exchange->fetch(get_root(), [&](Result<http::HttpResponse> response) {
      EXPECT_TRUE(response.ok());
      ++completed;
      // Drop the exchange (releasing its stream) outside its own callback.
      wire.sim.schedule_after(Duration::zero(), [&] {
        exchange.reset();
        max_live = std::max({max_live, wire.client->live_streams(), wire.server->live_streams()});
        if (completed < kExchanges) next();
      });
    });
  };
  wire.client->set_on_established(next);
  wire.client->start();
  wire.sim.run_until_condition([&] { return completed == kExchanges && exchange == nullptr; },
                               TimePoint{seconds(1000).nanos()});
  wire.sim.run_for(seconds(1));  // trailing ACKs
  EXPECT_EQ(completed, kExchanges);
  EXPECT_EQ(accepted, kExchanges);
  EXPECT_EQ(http_server.requests_handled(), static_cast<std::uint64_t>(kExchanges));
  EXPECT_LE(max_live, 4u);
  EXPECT_LE(wire.client->live_streams(), 4u);
  EXPECT_LE(wire.server->live_streams(), 4u);
}

TEST(StreamLifecycleTest, LateFrameForRetiredStreamIsAckedAndDropped) {
  WirePair wire;
  http::HttpServer http_server(answer_ok());
  int accepted = 0;
  wire.server->set_on_stream([&](Stream& stream) {
    ++accepted;
    http_server.serve(stream);
  });
  std::optional<StreamFrame> request_frame;
  std::vector<AckFrame> server_acks;
  wire.on_wire = [&](bool from_client, const TransportPacket& packet) {
    for (const Frame& frame : packet.frames) {
      const auto* stream_frame = std::get_if<StreamFrame>(&frame);
      if (stream_frame != nullptr && from_client && !request_frame) request_frame = *stream_frame;
      const auto* ack = std::get_if<AckFrame>(&frame);
      if (ack != nullptr && !from_client) server_acks.push_back(*ack);
    }
  };
  bool answered = false;
  std::unique_ptr<http::HttpClientStream> exchange;
  wire.client->set_on_established([&] {
    exchange = std::make_unique<http::HttpClientStream>(wire.client->open_stream(),
                                                        /*close_after_request=*/true);
    exchange->fetch(get_root(), [&](Result<http::HttpResponse> response) {
      EXPECT_TRUE(response.ok());
      answered = true;
    });
  });
  wire.client->start();
  ASSERT_TRUE(wire.sim.run_until_condition([&] { return answered; }, TimePoint{seconds(5).nanos()}));
  exchange.reset();
  wire.sim.run_for(seconds(1));
  ASSERT_EQ(wire.server->live_streams(), 0u);
  ASSERT_TRUE(request_frame.has_value());

  // The request's first frame again, in a fresh packet, after its stream
  // was retired: acked, but it neither re-opens the stream nor reaches the
  // application.
  const auto deliver = [&](std::uint64_t packet_number, StreamFrame frame) {
    TransportPacket packet;
    packet.conn_id = 1;
    packet.packet_number = packet_number;
    packet.frames.emplace_back(std::move(frame));
    wire.server->on_datagram(serialize_packet(packet));
    wire.sim.run_for(milliseconds(100));
  };
  deliver(1000, *request_frame);
  EXPECT_EQ(accepted, 1);
  EXPECT_EQ(wire.server->live_streams(), 0u);
  EXPECT_EQ(http_server.requests_handled(), 1u);
  ASSERT_FALSE(server_acks.empty());
  EXPECT_TRUE(server_acks.back().contains(1000));

  // Peer streams opened out of order (4 before 2) are both new: only the
  // retired ids are refused, not every id below the highest seen.
  deliver(1001, StreamFrame{4, 0, false, from_string("x")});
  deliver(1002, StreamFrame{2, 0, false, from_string("x")});
  EXPECT_EQ(accepted, 3);
  EXPECT_EQ(wire.server->live_streams(), 2u);
}

TEST(StreamLifecycleTest, ReleasedStreamLivesUntilItsDataIsAcked) {
  // The client releases its stream right after queueing the request and
  // FIN, and the first data datagram is lost. The server answers as soon as
  // the stream appears, so the client's receive side is done early; its send
  // side is not until the retransmission is acked.
  WirePair wire;
  wire.drop = [](bool from_client, std::uint64_t n) { return from_client && n == 1; };
  Bytes server_got;
  bool server_fin = false;
  wire.server->set_on_stream([&](Stream& stream) {
    stream.write(from_string("response"));
    stream.finish();
    stream.set_on_data([&](std::span<const std::uint8_t> data, bool fin) {
      server_got.insert(server_got.end(), data.begin(), data.end());
      server_fin = fin;
    });
  });
  const Bytes request = http::generate_blob(3000, 3);
  bool reader_called = false;
  wire.client->set_on_established([&] {
    Stream& stream = wire.client->open_stream();
    stream.set_on_data([&](std::span<const std::uint8_t>, bool) { reader_called = true; });
    stream.write(request);
    stream.finish();
    stream.release();
  });
  wire.client->start();
  ASSERT_TRUE(
      wire.sim.run_until_condition([&] { return server_fin; }, TimePoint{seconds(10).nanos()}));
  EXPECT_EQ(server_got, request);  // the lost chunk was retransmitted
  EXPECT_GT(wire.client->stats().packets_lost, 0u);
  // The response FIN is in, but the retransmission's ACK is still on its way.
  const Stream* stream = wire.client->stream(0);
  ASSERT_NE(stream, nullptr);
  EXPECT_TRUE(stream->remote_finished());

  wire.sim.run_for(seconds(1));
  EXPECT_EQ(wire.client->stream(0), nullptr);
  EXPECT_EQ(wire.client->live_streams(), 0u);
  EXPECT_FALSE(reader_called);
}

}  // namespace
}  // namespace pan::transport
