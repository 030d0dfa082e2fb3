// Deterministic discrete-event simulation engine.
//
// The whole system — links, transports, proxies, the browser model — runs on
// one Simulator. Events are (time, sequence, closure) triples ordered by time
// with the sequence number breaking ties FIFO, which makes runs bit-for-bit
// reproducible. Everything is single-threaded by design: handlers run to
// completion and schedule follow-up events.
//
// The queue holds only live events: an indexed 4-ary min-heap of small
// {when, seq, slot} entries over a pool of recycled slots, each holding the
// event's callback, a generation counter and its heap position. Cancel
// removes the entry at once; a stale id fails the generation check.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/callback.hpp"
#include "util/types.hpp"

namespace pan::sim {

/// Identifies a scheduled event so it can be cancelled:
/// (slot generation << 32) | slot index. Generations start at 1, so 0 is
/// never issued.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class Simulator {
 public:
  Simulator();
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `fn` to run at the absolute time `when` (>= now, else clamped
  /// to now). Returns an id usable with cancel().
  EventId schedule_at(TimePoint when, Callback fn);

  /// Schedules `fn` to run `delay` after now (negative delays clamp to 0).
  EventId schedule_after(Duration delay, Callback fn);

  /// Cancels a pending event and destroys its callback. Cancelling an
  /// already-fired, already-cancelled or unknown id is a harmless no-op.
  /// Returns true iff the event was pending.
  bool cancel(EventId id);

  /// Runs events until the queue drains. Returns the number of events run.
  std::size_t run();

  /// Runs events with time <= deadline. The clock always ends at the
  /// deadline, even when the queue drains early, so repeated calls advance
  /// monotonically. Returns the number of events run.
  std::size_t run_until(TimePoint deadline);

  /// Runs for `span` of simulated time from now.
  std::size_t run_for(Duration span);

  /// Runs events until `pred()` becomes true (checked after each event) or
  /// the queue drains or `deadline` passes. Returns true iff pred held.
  bool run_until_condition(const std::function<bool()>& pred, TimePoint deadline);

  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

 private:
  struct Entry {
    TimePoint when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    Callback fn;
    std::uint32_t generation = 1;
    std::uint32_t heap_pos = kFree;
  };
  static constexpr std::uint32_t kFree = ~std::uint32_t{0};

  /// Pops and runs the next event; returns false if the queue is empty or the
  /// next event is beyond `deadline` (clock untouched in that case).
  bool step(TimePoint deadline);

  /// Removes heap_[pos], returns its slot to the pool and hands back the
  /// callback (the caller decides when it runs or dies).
  Callback take(std::uint32_t pos);
  /// Move a hole from `pos` up or down to where `e` belongs and drop it in.
  void sift_up(std::uint32_t pos, const Entry& e);
  void sift_down(std::uint32_t pos, const Entry& e);
  void place(std::uint32_t pos, const Entry& e);
  static bool before(const Entry& a, const Entry& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  TimePoint now_ = TimePoint::origin();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace pan::sim
