// Tests for Colibri-lite bandwidth reservations: admission control, token
// bucket policing, lifetimes, and end-to-end priority under congestion.
#include <gtest/gtest.h>

#include "core/scenarios.hpp"
#include "scion/colibri.hpp"

namespace pan::scion {
namespace {

using browser::make_remote_world;

struct QosFixture {
  std::unique_ptr<browser::World> world;
  Topology* topo = nullptr;
  Path best;

  explicit QosFixture(double core_bw = 10e9) {
    browser::WorldConfig config;
    config.seed = 19;
    config.link_jitter = 0;
    config.core_bandwidth_bps = core_bw;
    world = make_remote_world(config);
    topo = &world->topology();
    const auto paths =
        topo->daemon_for(world->client).query_now(topo->as_by_name("server-as"));
    best = paths.front();
  }

  [[nodiscard]] TimePoint now() const { return world->sim().now(); }
};

TEST(ColibriTest, AdmitsWithinBudgetAndDeniesBeyond) {
  QosFixture fx(100e6);  // 100 Mbps core links, 50% reservable = 50 Mbps
  ReservationManager& manager = fx.topo->reservations();
  const auto first = manager.reserve(fx.best, 30e6, fx.now());
  ASSERT_TRUE(first.ok()) << first.error();
  const auto second = manager.reserve(fx.best, 30e6, fx.now());
  EXPECT_FALSE(second.ok());  // 60 > 50 Mbps budget
  const auto third = manager.reserve(fx.best, 15e6, fx.now());
  EXPECT_TRUE(third.ok());
  EXPECT_EQ(manager.active_reservations(fx.now()), 2u);
}

TEST(ColibriTest, ReleaseFreesBudget) {
  QosFixture fx(100e6);
  ReservationManager& manager = fx.topo->reservations();
  const auto first = manager.reserve(fx.best, 45e6, fx.now());
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(manager.reserve(fx.best, 45e6, fx.now()).ok());
  manager.release(first.value(), fx.now());
  EXPECT_TRUE(manager.reserve(fx.best, 45e6, fx.now()).ok());
}

TEST(ColibriTest, ExpiryFreesBudgetAndRenewExtends) {
  QosFixture fx(100e6);
  ReservationManager& manager = fx.topo->reservations();
  const auto id = manager.reserve(fx.best, 45e6, fx.now(), seconds(10));
  ASSERT_TRUE(id.ok());
  // Renew before expiry works.
  EXPECT_TRUE(manager.renew(id.value(), fx.now() + seconds(5), seconds(10)).ok());
  // After expiry: budget freed, renewal refused.
  const TimePoint later = fx.now() + seconds(30);
  EXPECT_EQ(manager.active_reservations(later), 0u);
  EXPECT_TRUE(manager.reserve(fx.best, 45e6, later).ok());
  EXPECT_FALSE(manager.renew(id.value(), later, seconds(10)).ok());
}

TEST(ColibriTest, PolicingAllowsAtRateAndDropsBursts) {
  QosFixture fx(100e6);
  ReservationManager& manager = fx.topo->reservations();
  const auto id = manager.reserve(fx.best, 8e6, fx.now());  // 1 MB/s
  ASSERT_TRUE(id.ok());
  const IsdAsn as = fx.best.hops().front().isd_as;
  // Burst window is 50 ms -> 50 kB of tokens.
  EXPECT_EQ(manager.police(id.value(), as, fx.now(), 40'000), PoliceResult::kAllow);
  EXPECT_EQ(manager.police(id.value(), as, fx.now(), 40'000), PoliceResult::kOverRate);
  // After 100 ms the bucket refills (capped at the 50 kB burst).
  EXPECT_EQ(manager.police(id.value(), as, fx.now() + milliseconds(100), 40'000),
            PoliceResult::kAllow);
}

TEST(ColibriTest, PolicingRejectsUnknownWrongAsAndExpired) {
  QosFixture fx(100e6);
  ReservationManager& manager = fx.topo->reservations();
  EXPECT_EQ(manager.police(999, fx.best.hops().front().isd_as, fx.now(), 100),
            PoliceResult::kUnknownReservation);
  const auto id = manager.reserve(fx.best, 8e6, fx.now(), seconds(5));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(manager.police(id.value(), IsdAsn{9, 0x999}, fx.now(), 100),
            PoliceResult::kWrongAs);
  EXPECT_EQ(manager.police(id.value(), fx.best.hops().front().isd_as,
                           fx.now() + seconds(6), 100),
            PoliceResult::kUnknownReservation);  // lazily expired
}

TEST(ColibriTest, IntraAsPathRejected) {
  QosFixture fx;
  ReservationManager& manager = fx.topo->reservations();
  EXPECT_FALSE(manager.reserve(Path::local(IsdAsn{1, 1}), 1e6, fx.now()).ok());
  EXPECT_FALSE(manager.reserve(fx.best, -5, fx.now()).ok());
}

TEST(ColibriTest, ForgedReservationIdDroppedByRouters) {
  QosFixture fx;
  auto& topo = *fx.topo;
  const auto server = topo.host_by_name("far-www");
  int received = 0;
  auto srv = topo.scion_stack(server).bind(
      9000, [&](const ScionEndpoint&, const ScionHeaderView&, net::PacketView) { ++received; });
  auto client = topo.scion_stack(fx.world->client).bind(0, nullptr);
  client->send_to(ScionEndpoint{topo.scion_addr(server), 9000}, WirePath(fx.best.dataplane()),
                  from_string("forged"), /*reservation=*/0xDEAD);
  fx.world->sim().run();
  EXPECT_EQ(received, 0);
  std::uint64_t drops = 0;
  for (const auto ia : topo.all_ases()) {
    drops += topo.border_router_stats(ia).drop_reservation;
  }
  EXPECT_GE(drops, 1u);
}

TEST(ColibriTest, ReservedFlowSurvivesBestEffortFlood) {
  // 20 Mbps core links; a best-effort flood saturates the path. The
  // reserved 4 Mbps flow keeps its delivery rate; an identical best-effort
  // flow loses packets to queue drops.
  QosFixture fx(20e6);
  auto& topo = *fx.topo;
  auto& sim = fx.world->sim();
  const auto server = topo.host_by_name("far-www");
  const auto flooder_host = topo.host_by_name("far-static");

  // 1000 B payload every 2 ms is ~5 Mbps on the wire once SCION headers and
  // framing are added; reserve 6 Mbps so the policer has headroom.
  const auto id = topo.reservations().reserve(fx.best, 6e6, sim.now(), seconds(300));
  ASSERT_TRUE(id.ok()) << id.error();

  int reserved_received = 0;
  int be_received = 0;
  auto srv_reserved = topo.scion_stack(server).bind(
      9001,
      [&](const ScionEndpoint&, const ScionHeaderView&, net::PacketView) { ++reserved_received; });
  auto srv_be = topo.scion_stack(server).bind(
      9002, [&](const ScionEndpoint&, const ScionHeaderView&, net::PacketView) { ++be_received; });
  auto srv_flood = topo.scion_stack(server).bind(
      9003, [&](const ScionEndpoint&, const ScionHeaderView&, net::PacketView) {});

  auto client = topo.scion_stack(fx.world->client).bind(0, nullptr);
  // The flood comes from a different host but shares the core links via the
  // same best path shape; simplest: flood from the client too.
  (void)flooder_host;

  // Schedule: every 2 ms for 1 s, send 1000-byte probes on both flows and a
  // 30-packet flood burst (-> ~120 Mbps offered on a 20 Mbps link).
  constexpr int kProbes = 500;
  for (int i = 0; i < kProbes; ++i) {
    sim.schedule_after(milliseconds(2 * i), [&, i] {
      // Interleave the probes inside the flood burst so neither flow gets a
      // deterministic head-of-burst advantage in the FIFO queue.
      for (int f = 0; f < 30; ++f) {
        if (f == 10) {
          client->send_to(ScionEndpoint{topo.scion_addr(server), 9001},
                          WirePath(fx.best.dataplane()), Bytes(1000, 0x01), id.value());
        }
        if (f == 20) {
          client->send_to(ScionEndpoint{topo.scion_addr(server), 9002},
                          WirePath(fx.best.dataplane()), Bytes(1000, 0x02));
        }
        client->send_to(ScionEndpoint{topo.scion_addr(server), 9003}, WirePath(fx.best.dataplane()),
                        Bytes(1000, 0x03));
      }
      (void)i;
    });
  }
  sim.run();

  // The reserved flow (4 Mbps = 1000 B / 2 ms exactly) is delivered in full;
  // the best-effort probe flow loses heavily to the flood.
  EXPECT_EQ(reserved_received, kProbes);
  EXPECT_LT(be_received, kProbes / 2);
}

}  // namespace
}  // namespace pan::scion
