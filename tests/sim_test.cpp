// Unit tests for the discrete-event simulator, its callbacks and timers.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "sim/callback.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "support/alloc_probe.hpp"
#include "util/rng.hpp"

namespace pan::sim {
namespace {

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(milliseconds(3), [&] { order.push_back(3); });
  sim.schedule_after(milliseconds(1), [&] { order.push_back(1); });
  sim.schedule_after(milliseconds(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, TiesBreakFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator sim;
  TimePoint seen;
  sim.schedule_after(milliseconds(7), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen.nanos(), milliseconds(7).nanos());
  EXPECT_EQ(sim.now().nanos(), milliseconds(7).nanos());
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(milliseconds(1), [&] {
    sim.schedule_after(milliseconds(1), [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().nanos(), milliseconds(2).nanos());
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  bool fired = false;
  sim.schedule_after(milliseconds(-5), [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now().nanos(), 0);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_after(milliseconds(1), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // double cancel is a no-op
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelUnknownIdIsSafe) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(kInvalidEventId));
  EXPECT_FALSE(sim.cancel(9999));
  // The id the freed slot would hand out next was never issued.
  const EventId fired = sim.schedule_after(milliseconds(1), [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(fired + (EventId{1} << 32)));
}

TEST(SimulatorTest, CancelAfterFireReturnsFalse) {
  Simulator sim;
  const EventId first = sim.schedule_after(milliseconds(1), [] {});
  sim.schedule_after(milliseconds(10), [] {});
  sim.run_until(TimePoint{milliseconds(5).nanos()});
  EXPECT_FALSE(sim.cancel(first));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.run(), 1u);
}

TEST(SimulatorTest, CallbackCancellingItsOwnIdGetsFalse) {
  Simulator sim;
  EventId self = kInvalidEventId;
  bool result = true;
  self = sim.schedule_after(milliseconds(1), [&] { result = sim.cancel(self); });
  sim.schedule_after(milliseconds(2), [] {});
  sim.run_until(TimePoint{milliseconds(1).nanos()});
  EXPECT_FALSE(result);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, StaleIdDoesNotCancelSlotReuser) {
  Simulator sim;
  const EventId old_id = sim.schedule_after(milliseconds(1), [] {});
  ASSERT_TRUE(sim.cancel(old_id));
  bool fired = false;
  const EventId new_id = sim.schedule_after(milliseconds(1), [&] { fired = true; });
  EXPECT_NE(new_id, old_id);
  EXPECT_NE(new_id, kInvalidEventId);
  EXPECT_FALSE(sim.cancel(old_id));
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, CancelKeepsOrderOfTheRest) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back(sim.schedule_after(milliseconds(i % 5), [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 40; i += 3) EXPECT_TRUE(sim.cancel(ids[static_cast<std::size_t>(i)]));
  sim.run();
  std::vector<int> expected;
  for (int ms = 0; ms < 5; ++ms) {
    for (int i = ms; i < 40; i += 5) {
      if (i % 3 != 0) expected.push_back(i);
    }
  }
  EXPECT_EQ(order, expected);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(milliseconds(1), [&] { ++fired; });
  sim.schedule_after(milliseconds(10), [&] { ++fired; });
  sim.run_until(TimePoint{milliseconds(5).nanos()});
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().nanos(), milliseconds(5).nanos());
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator sim;
  sim.schedule_after(milliseconds(1), [] {});
  sim.run();
  EXPECT_EQ(sim.now().nanos(), milliseconds(1).nanos());
  sim.run_for(milliseconds(4));
  EXPECT_EQ(sim.now().nanos(), milliseconds(5).nanos());
}

TEST(SimulatorTest, RunUntilConditionStopsEarly) {
  Simulator sim;
  int counter = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(milliseconds(i + 1), [&] { ++counter; });
  }
  const bool met = sim.run_until_condition([&] { return counter == 3; },
                                           TimePoint{seconds(1).nanos()});
  EXPECT_TRUE(met);
  EXPECT_EQ(counter, 3);
}

TEST(SimulatorTest, RunUntilConditionFailsOnDrain) {
  Simulator sim;
  const bool met = sim.run_until_condition([] { return false; },
                                           TimePoint{seconds(1).nanos()});
  EXPECT_FALSE(met);
}

TEST(SimulatorTest, PendingEventsAccountsForCancellations) {
  Simulator sim;
  const EventId a = sim.schedule_after(milliseconds(1), [] {});
  sim.schedule_after(milliseconds(2), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, ExecutedCounter) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_after(milliseconds(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

// ---------------------------------------------------------------- timer --

TEST(TimerTest, FiresOnce) {
  Simulator sim;
  int fired = 0;
  Timer timer(sim, [&] { ++fired; });
  timer.arm(milliseconds(5));
  EXPECT_TRUE(timer.pending());
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.pending());
}

TEST(TimerTest, RearmReplacesDeadline) {
  Simulator sim;
  TimePoint fired_at;
  Timer timer(sim, [&] { fired_at = sim.now(); });
  timer.arm(milliseconds(5));
  timer.arm(milliseconds(20));
  sim.run();
  EXPECT_EQ(fired_at.nanos(), milliseconds(20).nanos());
}

TEST(TimerTest, ArmIfIdleDoesNotReplace) {
  Simulator sim;
  TimePoint fired_at;
  Timer timer(sim, [&] { fired_at = sim.now(); });
  timer.arm(milliseconds(5));
  timer.arm_if_idle(milliseconds(20));
  sim.run();
  EXPECT_EQ(fired_at.nanos(), milliseconds(5).nanos());
}

TEST(TimerTest, CancelStopsFiring) {
  Simulator sim;
  int fired = 0;
  Timer timer(sim, [&] { ++fired; });
  timer.arm(milliseconds(5));
  timer.cancel();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(TimerTest, DestructionCancelsSafely) {
  Simulator sim;
  int fired = 0;
  {
    Timer timer(sim, [&] { ++fired; });
    timer.arm(milliseconds(5));
  }
  sim.run();  // must not crash or fire
  EXPECT_EQ(fired, 0);
}

TEST(TimerTest, RearmFromCallback) {
  Simulator sim;
  int fired = 0;
  Timer timer(sim, [&] {
    if (++fired < 3) timer.arm(milliseconds(1));
  });
  timer.arm(milliseconds(1));
  sim.run();
  EXPECT_EQ(fired, 3);
}

// ------------------------------------------------------------- teardown --

// Counts destructions of the captures that own it.
struct DeathCounter {
  explicit DeathCounter(int* deaths) : deaths(deaths) {}
  DeathCounter(DeathCounter&& other) noexcept : deaths(std::exchange(other.deaths, nullptr)) {}
  ~DeathCounter() {
    if (deaths != nullptr) ++*deaths;
  }
  int* deaths;
};

TEST(SimulatorTeardownTest, PendingCaptureOwningArmedTimer) {
  // The capture's Timer cancels itself on the simulator that is destroying
  // the capture; LeakSanitizer checks nothing is left behind.
  int fired = 0;
  int deaths = 0;
  {
    Simulator sim;
    auto timer = std::make_shared<Timer>(sim, [&] { ++fired; });
    timer->arm(milliseconds(5));
    sim.schedule_after(milliseconds(1), [timer, counter = DeathCounter(&deaths)] {});
    timer.reset();
    sim.schedule_after(milliseconds(2), [counter = DeathCounter(&deaths)] {});
    EXPECT_EQ(sim.pending_events(), 3u);
  }
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(deaths, 2);
}

TEST(SimulatorTeardownTest, CaptureDestructorMaySchedule) {
  int deaths = 0;
  {
    Simulator sim;
    struct Rescheduler {
      Simulator* sim;
      int* deaths;
      Rescheduler(Simulator* sim, int* deaths) : sim(sim), deaths(deaths) {}
      Rescheduler(Rescheduler&& other) noexcept
          : sim(std::exchange(other.sim, nullptr)), deaths(other.deaths) {}
      ~Rescheduler() {
        if (sim != nullptr) sim->schedule_after(milliseconds(1), [c = DeathCounter(deaths)] {});
      }
    };
    sim.schedule_after(milliseconds(1), [r = Rescheduler(&sim, &deaths)] {});
  }
  EXPECT_EQ(deaths, 1);
}

// --------------------------------------------------------- golden order --

// A seeded engine script: bursts of same-time events (delays are multiples
// of 250 us, some negative and so clamped), nested scheduling, cancels of
// random pending ids, and Timer re-arms from inside callbacks. Returns an
// FNV-1a hash of every firing's token, now() and pending_events(), plus
// every cancel result and the final clock and event count.
std::uint64_t run_event_script(std::uint64_t seed) {
  Simulator sim;
  Rng rng(seed);
  std::uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&hash](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 1099511628211ULL;
    }
  };
  std::vector<EventId> ids;             // by token
  std::vector<std::size_t> live;        // tokens still pending
  std::vector<std::size_t> live_pos;    // token -> index into live
  int budget = 20'000;
  const auto drop_live = [&](std::size_t token) {
    const std::size_t at = live_pos[token];
    live[at] = live.back();
    live_pos[live[at]] = at;
    live.pop_back();
  };
  const auto random_delay = [&rng] {
    return microseconds(250 * rng.next_in(-1, 3));
  };

  std::vector<std::unique_ptr<Timer>> timers;
  std::function<void()> spawn = [&] {
    const std::size_t token = ids.size();
    live_pos.push_back(live.size());
    live.push_back(token);
    ids.push_back(sim.schedule_after(random_delay(), [&, token] {
      drop_live(token);
      mix(token);
      mix(static_cast<std::uint64_t>(sim.now().nanos()));
      mix(sim.pending_events());
      if (--budget <= 0) return;
      for (std::uint64_t n = rng.next_below(4); n > 0; --n) spawn();
      if (!live.empty() && rng.chance(0.3)) {
        const std::size_t victim = live[rng.next_below(live.size())];
        drop_live(victim);
        mix(sim.cancel(ids[victim]) ? 1 : 0);
      }
      if (rng.chance(0.3)) timers[rng.next_below(timers.size())]->arm(random_delay());
    }));
  };
  for (std::uint64_t t = 0; t < 8; ++t) {
    timers.push_back(std::make_unique<Timer>(sim, [&, t] {
      mix(1'000'000 + t);
      mix(static_cast<std::uint64_t>(sim.now().nanos()));
      if (budget <= 0) return;
      if (rng.chance(0.5)) timers[t]->arm(random_delay() + milliseconds(1));
      if (rng.chance(0.3)) spawn();
    }));
  }

  for (int i = 0; i < 64; ++i) spawn();
  for (int i = 0; i < 8; ++i) timers[static_cast<std::size_t>(i)]->arm(random_delay());
  while (sim.pending_events() > 0 && sim.now() < TimePoint{seconds(10).nanos()}) {
    sim.run_for(milliseconds(1));
  }
  sim.run();
  mix(static_cast<std::uint64_t>(sim.now().nanos()));
  mix(sim.events_executed());
  return hash;
}

TEST(SimulatorGoldenTest, EventOrderMatchesRecordedDigest) {
  // Recorded on the std::priority_queue engine this one replaced: the
  // firing order of the (when, seq) key must not change.
  EXPECT_EQ(run_event_script(1), 0x4bdab650e546ee59ULL);
  EXPECT_EQ(run_event_script(42), 0xde7d990da6cf6a57ULL);
}

// ------------------------------------------------------------- callback --

TEST(CallbackTest, MoveOnlyCaptureRuns) {
  Simulator sim;
  int seen = 0;
  sim.schedule_after(milliseconds(1), [&seen, v = std::make_unique<int>(7)] { seen = *v; });
  sim.run();
  EXPECT_EQ(seen, 7);
}

TEST(CallbackTest, StdFunctionArgumentStillCompiles) {
  Simulator sim;
  int fired = 0;
  const std::function<void()> fn = [&] { ++fired; };
  sim.schedule_after(milliseconds(1), fn);
  sim.schedule_after(milliseconds(2), fn);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(CallbackTest, CancelDestroysCaptureAtOnce) {
  Simulator sim;
  int deaths = 0;
  const EventId id = sim.schedule_after(milliseconds(1), [c = DeathCounter(&deaths)] {});
  EXPECT_EQ(deaths, 0);
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_EQ(deaths, 1);
}

// The captures of Network::send's per-hop delivery closure (the Network,
// both node ids, the ingress interface and the Packet itself), with the
// Network pointer swapped for a counter of the same size.
auto packet_sized_closure(int* fired) {
  static_assert(sizeof(fired) == sizeof(net::Network*));
  return [fired, from = net::NodeId{}, to = net::NodeId{}, in_if = net::IfId{},
          p = net::Packet{}] { ++*fired; };
}

TEST(CallbackTest, PacketSizedCaptureSchedulesWithoutAllocating) {
  int fired = 0;
  static_assert(Callback::fits_inline<decltype(packet_sized_closure(&fired))>);
  if (!testsupport::alloc_probe_active()) {
    GTEST_SKIP() << "counting allocator disabled under sanitizers";
  }
  Simulator sim;
  // Warm up: the heap and the slot pool reach their steady-state capacity.
  for (int i = 0; i < 64; ++i) sim.schedule_after(microseconds(i), packet_sized_closure(&fired));
  sim.run();
  const std::uint64_t before = testsupport::allocation_count();
  for (int i = 0; i < 64; ++i) sim.schedule_after(microseconds(i), packet_sized_closure(&fired));
  sim.run();
  EXPECT_EQ(testsupport::allocation_count() - before, 0u);
  EXPECT_EQ(fired, 128);
}

TEST(CallbackTest, OversizedCaptureFallsBackToOneAllocation) {
  if (!testsupport::alloc_probe_active()) {
    GTEST_SKIP() << "counting allocator disabled under sanitizers";
  }
  Simulator sim;
  int fired = 0;
  std::array<char, Callback::kInlineSize> blob{};
  const auto big = [blob, &fired] { fired += blob[0] + 1; };
  static_assert(!Callback::fits_inline<decltype(big)>);
  sim.schedule_after(milliseconds(1), big);
  sim.run();
  const std::uint64_t before = testsupport::allocation_count();
  sim.schedule_after(milliseconds(1), big);
  sim.run();
  EXPECT_EQ(testsupport::allocation_count() - before, 1u);
  EXPECT_EQ(fired, 2);
}

TEST(CallbackTest, TimerRearmDoesNotAllocate) {
  if (!testsupport::alloc_probe_active()) {
    GTEST_SKIP() << "counting allocator disabled under sanitizers";
  }
  Simulator sim;
  int fired = 0;
  Timer timer(sim, [&] { ++fired; });
  timer.arm(milliseconds(1));
  timer.arm(milliseconds(1));  // warm: the free-slot list has its capacity
  const std::uint64_t before = testsupport::allocation_count();
  for (int i = 0; i < 1000; ++i) timer.arm(milliseconds(1));
  sim.run();
  EXPECT_EQ(testsupport::allocation_count() - before, 0u);
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace pan::sim
