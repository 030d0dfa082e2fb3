// Micro-benchmarks (google-benchmark) for the hot paths: crypto primitives,
// hop-field MACs, segment verification, SCION header codec, PPL parsing and
// evaluation, sequence matching, legacy route computation, one exchange on a
// long-lived transport connection, and the simulator's event core.
#include <benchmark/benchmark.h>

#include "core/layer_model.hpp"
#include "crypto/signature.hpp"
#include "http/client.hpp"
#include "http/server.hpp"
#include "net/graph.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "ppl/parser.hpp"
#include "scion/border_router.hpp"
#include "scion/header.hpp"
#include "scion/segment.hpp"
#include "sim/timer.hpp"
#include "support/alloc_probe.hpp"
#include "transport/connection.hpp"
#include "util/stats.hpp"

using namespace pan;

namespace {

void BM_Sha256(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_HopFieldMac(benchmark::State& state) {
  const scion::ForwardingKey key(16, 0x42);
  scion::HopField hf;
  hf.isd_as = scion::IsdAsn{1, 0x110};
  hf.in_if = 3;
  hf.out_if = 7;
  hf.expiry_s = 3600;
  for (auto _ : state) {
    scion::seal_hop_field(hf, 1000, key);
    benchmark::DoNotOptimize(hf.mac);
  }
}
BENCHMARK(BM_HopFieldMac);

void BM_HopFieldMacPrecomputed(benchmark::State& state) {
  const scion::ForwardingKey key(16, 0x42);
  const crypto::HmacKey mac_key(key);
  scion::HopField hf;
  hf.isd_as = scion::IsdAsn{1, 0x110};
  hf.in_if = 3;
  hf.out_if = 7;
  hf.expiry_s = 3600;
  for (auto _ : state) {
    scion::seal_hop_field(hf, 1000, mac_key);
    benchmark::DoNotOptimize(hf.mac);
  }
}
BENCHMARK(BM_HopFieldMacPrecomputed);

void BM_LamportSign(benchmark::State& state) {
  Rng rng(1);
  const auto kp = crypto::generate_keypair(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sign(kp.private_key, "beacon entry"));
  }
}
BENCHMARK(BM_LamportSign);

void BM_LamportVerify(benchmark::State& state) {
  Rng rng(1);
  const auto kp = crypto::generate_keypair(rng);
  const auto sig = crypto::sign(kp.private_key, "beacon entry");
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::verify(kp.public_key, "beacon entry", sig));
  }
}
BENCHMARK(BM_LamportVerify);

scion::DataplanePath make_path(std::size_t hops) {
  scion::DataplaneSegment seg;
  seg.origin_ts = 1000;
  for (std::size_t i = 0; i < hops; ++i) {
    scion::HopField hf;
    hf.isd_as = scion::IsdAsn{1, 0x100 + i};
    hf.in_if = static_cast<scion::IfaceId>(i);
    hf.out_if = static_cast<scion::IfaceId>(i + 1);
    seg.hops.push_back(hf);
  }
  scion::DataplanePath path;
  path.segments.push_back(std::move(seg));
  return path;
}

void BM_ScionHeaderSerialize(benchmark::State& state) {
  scion::ScionHeader header;
  header.path = make_path(static_cast<std::size_t>(state.range(0)));
  const Bytes payload(1200, 0x11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scion::serialize_scion_packet(header, payload));
  }
}
BENCHMARK(BM_ScionHeaderSerialize)->Arg(3)->Arg(8);

void BM_ScionHeaderParse(benchmark::State& state) {
  scion::ScionHeader header;
  header.path = make_path(static_cast<std::size_t>(state.range(0)));
  const Bytes wire = scion::serialize_scion_packet(header, Bytes(1200, 0x11));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scion::parse_scion_packet(wire));
  }
}
BENCHMARK(BM_ScionHeaderParse)->Arg(3)->Arg(8);

void BM_ScionHeaderViewParse(benchmark::State& state) {
  scion::ScionHeader header;
  header.path = make_path(static_cast<std::size_t>(state.range(0)));
  const Bytes wire = scion::serialize_scion_packet(header, Bytes(1200, 0x11));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scion::ScionHeaderView::parse(wire));
  }
}
BENCHMARK(BM_ScionHeaderViewParse)->Arg(3)->Arg(8);

/// A MAC-sealed transit packet: `hops`-hop single segment, cursor on the
/// middle AS, 1200-byte payload — the steady-state border-router workload.
struct ForwardFixture {
  scion::ForwardingKey key = scion::ForwardingKey(16, 0x42);
  scion::IsdAsn local;
  Bytes wire;

  explicit ForwardFixture(std::size_t hops) {
    constexpr std::uint32_t kTs = 1'000'000;
    scion::ScionHeader header;
    scion::DataplaneSegment seg;
    seg.origin_ts = kTs;
    for (std::size_t i = 0; i < hops; ++i) {
      scion::HopField hf;
      hf.isd_as = scion::IsdAsn{1, static_cast<scion::Asn>(0x100 + i)};
      hf.in_if = i == 0 ? scion::kNoIface : static_cast<scion::IfaceId>(i);
      hf.out_if = i + 1 == hops ? scion::kNoIface : static_cast<scion::IfaceId>(i + 1);
      hf.expiry_s = 24 * 3600;
      scion::seal_hop_field(hf, kTs, key);
      seg.hops.push_back(hf);
    }
    header.src = scion::ScionAddr{seg.hops.front().isd_as, net::IpAddr{1}};
    header.dst = scion::ScionAddr{seg.hops.back().isd_as, net::IpAddr{2}};
    header.path.segments.push_back(std::move(seg));
    header.cur_seg = 0;
    header.cur_hop = static_cast<std::uint8_t>(hops / 2);
    local = header.path.segments[0].hops[hops / 2].isd_as;
    wire = scion::serialize_scion_packet(header, Bytes(1200, 0x11));
  }
};

/// Per-hop forwarding work of the legacy pipeline: full eager reparse of
/// every segment and hop field, then hop check and in-place cursor patch.
void BM_ForwardHopLegacy(benchmark::State& state) {
  ForwardFixture fx(static_cast<std::size_t>(state.range(0)));
  scion::BorderRouterConfig config;
  Bytes packet = fx.wire;
  const std::uint64_t allocs_before = testsupport::allocation_count();
  for (auto _ : state) {
    const auto parsed = scion::parse_scion_packet(packet);
    const scion::ScionHeader& header = parsed.value().header;
    const scion::DataplaneSegment& seg = header.path.segments[header.cur_seg];
    const scion::HopField& hf = seg.hop_at(header.cur_hop);
    bool ok = hf.isd_as == fx.local && scion::verify_hop_field(hf, seg.origin_ts, fx.key);
    benchmark::DoNotOptimize(ok);
    scion::patch_cursor(packet, header.cur_seg, header.cur_hop);  // cursor stays put
  }
  const std::uint64_t allocs = testsupport::allocation_count() - allocs_before;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["allocs_per_forward"] =
      benchmark::Counter(static_cast<double>(allocs) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ForwardHopLegacy)->Arg(3)->Arg(8);

/// Per-hop forwarding work of the zero-copy pipeline: decide_hop over the
/// lazy view (decodes exactly one hop field) and in-place cursor patch.
void BM_ForwardHopZeroCopy(benchmark::State& state) {
  ForwardFixture fx(static_cast<std::size_t>(state.range(0)));
  scion::BorderRouterConfig config;
  const crypto::HmacKey mac_key(fx.key);  // router steady state: precomputed once
  net::PacketView packet{Bytes(fx.wire)};
  (void)packet.mutable_span();  // unique storage: patch_cursor patches in place
  const std::uint8_t cur_seg = 0;
  const std::uint8_t cur_hop = static_cast<std::uint8_t>(state.range(0) / 2);
  const std::uint64_t allocs_before = testsupport::allocation_count();
  for (auto _ : state) {
    const scion::HopDecision d = scion::decide_hop(packet.span(), fx.local, mac_key, config);
    benchmark::DoNotOptimize(d);
    scion::patch_cursor(packet, cur_seg, cur_hop);  // cursor stays put
  }
  const std::uint64_t allocs = testsupport::allocation_count() - allocs_before;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["allocs_per_forward"] =
      benchmark::Counter(static_cast<double>(allocs) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ForwardHopZeroCopy)->Arg(3)->Arg(8);

// ------------------------------------------------------------- telemetry --

/// Histogram record on the steady-state path: instrument already registered,
/// reference cached. The log-linear bucket search plus extremes update.
void BM_HistogramRecord(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram& hist = registry.histogram("bench.latency");
  Duration value = milliseconds(3);
  const std::uint64_t allocs_before = testsupport::allocation_count();
  for (auto _ : state) {
    hist.record(value);
    value = Duration{(value.nanos() * 16'807) % 1'000'000'000};  // vary buckets
    benchmark::DoNotOptimize(value);
  }
  const std::uint64_t allocs = testsupport::allocation_count() - allocs_before;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["allocs_per_record"] =
      benchmark::Counter(static_cast<double>(allocs) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_HistogramRecord);

/// Tagged record: the bucket work plus the exemplar-slot offer (bounded
/// array scan, no allocation).
void BM_HistogramRecordExemplar(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram& hist = registry.histogram("bench.latency");
  Duration value = milliseconds(3);
  std::uint64_t trace_id = 1;
  const std::uint64_t allocs_before = testsupport::allocation_count();
  for (auto _ : state) {
    hist.record(value, trace_id++, TimePoint{} + value);
    value = Duration{(value.nanos() * 16'807) % 1'000'000'000};
    benchmark::DoNotOptimize(value);
  }
  const std::uint64_t allocs = testsupport::allocation_count() - allocs_before;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["allocs_per_record"] =
      benchmark::Counter(static_cast<double>(allocs) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_HistogramRecordExemplar);

/// Fleet-merge cost: one count-wise bucket sum of two fully populated
/// default-layout histograms (what a /skip/fleet/metrics scrape does once
/// per replica per histogram name).
void BM_HistogramMerge(benchmark::State& state) {
  Rng rng(7);
  obs::Histogram source;
  for (int i = 0; i < 10'000; ++i) {
    source.record(microseconds(rng.next_in(10, 10'000'000)),
                  static_cast<std::uint64_t>(i + 1), TimePoint{});
  }
  obs::Histogram target;
  for (auto _ : state) {
    const bool ok = target.merge(source);
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HistogramMerge);

/// The instrumented border-router hop: decide_hop plus the per-router
/// forward-latency record. The telemetry must keep the hop path at zero
/// allocations — this is the counter --bench-smoke asserts on.
void BM_ForwardHopZeroCopyInstrumented(benchmark::State& state) {
  ForwardFixture fx(static_cast<std::size_t>(state.range(0)));
  obs::MetricsRegistry registry;
  scion::BorderRouterConfig config;
  config.forward_latency = &registry.histogram("router.bench.forward_latency");
  const crypto::HmacKey mac_key(fx.key);
  net::PacketView packet{Bytes(fx.wire)};
  (void)packet.mutable_span();
  const std::uint8_t cur_seg = 0;
  const std::uint8_t cur_hop = static_cast<std::uint8_t>(state.range(0) / 2);
  Duration hop_latency = microseconds(180);
  const std::uint64_t allocs_before = testsupport::allocation_count();
  for (auto _ : state) {
    const scion::HopDecision d = scion::decide_hop(packet.span(), fx.local, mac_key, config);
    benchmark::DoNotOptimize(d);
    scion::patch_cursor(packet, cur_seg, cur_hop);
    config.forward_latency->record(hop_latency);
    hop_latency = Duration{(hop_latency.nanos() * 16'807) % 50'000'000};
  }
  const std::uint64_t allocs = testsupport::allocation_count() - allocs_before;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["allocs_per_forward"] =
      benchmark::Counter(static_cast<double>(allocs) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ForwardHopZeroCopyInstrumented)->Arg(3)->Arg(8);

/// Time-series capture: one interval tick over a registry with range(0)
/// counters (the per-tick cost the lazy observe() pays per crossed boundary).
void BM_TimeSeriesTick(benchmark::State& state) {
  obs::MetricsRegistry registry;
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<obs::Counter*> counters;
  counters.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    counters.push_back(&registry.counter("bench.c" + std::to_string(i)));
  }
  obs::TimeSeriesConfig config;
  config.interval = milliseconds(100);
  obs::TimeSeriesStore store(registry, config, TimePoint{});
  TimePoint now;
  for (auto _ : state) {
    for (obs::Counter* c : counters) c->inc();
    now = now + milliseconds(100);
    store.observe(now);  // exactly one tick per iteration
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TimeSeriesTick)->Arg(16)->Arg(128);

// ------------------------------------------------------------- transport --

/// A QUIC-lite client/server pair joined by a 10 ms wire; the server answers
/// every request with a short 200, one stream per exchange.
class ExchangeFixture {
 public:
  ExchangeFixture()
      : client_(sim_, conduit(&server_), transport::Connection::Role::kClient, 1, {}),
        server_(sim_, conduit(&client_), transport::Connection::Role::kServer, 1, {}) {
    server_.set_on_stream([this](transport::Stream& stream) { http_.serve(stream); });
    client_.start();
    sim_.run_for(seconds(1));
  }

  /// One request/response on a fresh stream, run to completion; true iff it
  /// was answered.
  bool exchange() {
    bool done = false;
    http::HttpClientStream stream(client_.open_stream(), /*close_after_request=*/true);
    http::HttpRequest request;
    request.target = "/";
    stream.fetch(request, [&](Result<http::HttpResponse> response) { done = response.ok(); });
    return sim_.run_until_condition([&] { return done; }, sim_.now() + seconds(5));
  }

 private:
  transport::Conduit conduit(transport::Connection* peer) {
    transport::Conduit conduit;
    conduit.send = [this, peer](net::PacketView wire) {
      sim_.schedule_after(milliseconds(10), [peer, bytes = Bytes(wire.span().begin(),
                                                                 wire.span().end())] {
        peer->on_datagram(bytes);
      });
    };
    return conduit;
  }

  sim::Simulator sim_;
  http::HttpServer http_{[](const http::HttpRequest&, http::HttpServer::Respond respond) {
    respond(http::make_text_response(200, "ok"));
  }};
  transport::Connection client_;
  transport::Connection server_;
};

/// One exchange on a connection with range(0) finished exchanges behind it:
/// the per-exchange cost must not grow with the connection's history.
void BM_ExchangeWithHistory(benchmark::State& state) {
  ExchangeFixture fx;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    if (!fx.exchange()) {
      state.SkipWithError("exchange unanswered");
      return;
    }
  }
  for (auto _ : state) benchmark::DoNotOptimize(fx.exchange());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ExchangeWithHistory)->Arg(10)->Arg(10'000);

// ------------------------------------------------------------ sim engine --

/// Schedule-and-run of events whose capture is packet-sized, like the
/// per-hop delivery closure of Network::send; 64 events per iteration at
/// spread-out times. Once warm the event core must not allocate.
void BM_SimScheduleRun(benchmark::State& state) {
  constexpr int kBatch = 64;
  sim::Simulator sim;
  std::uint64_t delivered = 0;
  const auto batch = [&] {
    for (int i = 0; i < kBatch; ++i) {
      net::Packet packet;
      packet.id = static_cast<std::uint64_t>(i);
      sim.schedule_after(Duration{(i * 7919) % 1000}, [&delivered, p = std::move(packet)] {
        delivered += p.id;
      });
    }
    sim.run();
  };
  batch();  // warm: the heap and the slot pool reach their capacity
  const std::uint64_t allocs_before = testsupport::allocation_count();
  for (auto _ : state) batch();
  const std::uint64_t allocs = testsupport::allocation_count() - allocs_before;
  benchmark::DoNotOptimize(delivered);
  const auto events = static_cast<double>(state.iterations()) * kBatch;
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["allocs_per_event"] = benchmark::Counter(static_cast<double>(allocs) / events);
}
BENCHMARK(BM_SimScheduleRun);

/// Re-arming an idle timeout, as a transport does on every datagram, with
/// 256 other events pending: one cancel plus one schedule per iteration.
void BM_TimerRearm(benchmark::State& state) {
  sim::Simulator sim;
  for (int i = 0; i < 256; ++i) sim.schedule_after(seconds(60) + Duration{i}, [] {});
  sim::Timer timer(sim, [] {});
  timer.arm(seconds(30));
  timer.arm(seconds(30));  // warm: the free-slot list has its capacity
  const std::uint64_t allocs_before = testsupport::allocation_count();
  for (auto _ : state) timer.arm(seconds(30));
  const std::uint64_t allocs = testsupport::allocation_count() - allocs_before;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["allocs_per_rearm"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_TimerRearm);

void BM_LamportVerifyMemoized(benchmark::State& state) {
  Rng rng(1);
  const auto kp = crypto::generate_keypair(rng);
  const auto sig = crypto::sign(kp.private_key, "beacon entry");
  crypto::PreimageCache cache;
  const std::string_view msg = "beacon entry";
  const auto span = std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size());
  (void)crypto::verify(kp.public_key, span, sig, &cache);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::verify(kp.public_key, span, sig, &cache));
  }
}
BENCHMARK(BM_LamportVerifyMemoized);

void BM_PplParse(benchmark::State& state) {
  static constexpr std::string_view kPolicy = R"(
    policy "bench" {
      acl { deny 3-*; deny 4-ff00:0:9; allow *; }
      sequence "1-* * 2-*";
      require mtu >= 1400;
      require latency <= 80ms;
      order latency asc, co2 asc;
    }
  )";
  for (auto _ : state) {
    benchmark::DoNotOptimize(ppl::parse_policy(kPolicy));
  }
}
BENCHMARK(BM_PplParse);

void BM_PplApply(benchmark::State& state) {
  Rng rng(7);
  const auto paths =
      browser::sample_candidate_paths(rng, static_cast<std::size_t>(state.range(0)));
  const auto policy = ppl::parse_policy(
      "policy { acl { deny 3-*; allow *; } require mtu >= 1280; order latency asc; }");
  for (auto _ : state) {
    auto copy = paths;
    benchmark::DoNotOptimize(policy.value().apply(std::move(copy)));
  }
}
BENCHMARK(BM_PplApply)->Arg(10)->Arg(100);

void BM_SequenceMatch(benchmark::State& state) {
  Rng rng(9);
  const auto paths = browser::sample_candidate_paths(rng, 50);
  const auto seq = ppl::Sequence::parse("1-* * 2-* 3-*?");
  for (auto _ : state) {
    std::size_t matched = 0;
    for (const auto& p : paths) {
      matched += seq.value().matches(p) ? 1 : 0;
    }
    benchmark::DoNotOptimize(matched);
  }
}
BENCHMARK(BM_SequenceMatch);

void BM_Dijkstra(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  net::Adjacency adj(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (int e = 0; e < 4; ++e) {
      const auto j = static_cast<std::uint32_t>(rng.next_below(n));
      if (j != i) adj[i].push_back(net::GraphEdge{j, 1 + rng.next_double() * 9, static_cast<std::uint32_t>(e)});
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::dijkstra(adj, 0));
  }
}
BENCHMARK(BM_Dijkstra)->Arg(64)->Arg(512);

void BM_BoxStats(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> samples;
  for (int i = 0; i < 1000; ++i) samples.push_back(rng.next_normal(100, 15));
  for (auto _ : state) {
    auto copy = samples;
    benchmark::DoNotOptimize(box_stats(std::move(copy)));
  }
}
BENCHMARK(BM_BoxStats);

}  // namespace

BENCHMARK_MAIN();
