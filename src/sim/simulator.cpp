#include "sim/simulator.hpp"

#include <utility>

#include "util/log.hpp"

namespace pan::sim {

namespace {
TimePoint clock_hook(const void* ctx) {
  return static_cast<const Simulator*>(ctx)->now();
}

constexpr std::uint32_t kArity = 4;
}  // namespace

Simulator::Simulator() {
  // Make log records carry simulated timestamps. The last-constructed
  // simulator wins, which matches the one-simulator-per-process usage.
  Logger::set_clock(&clock_hook, this);
}

Simulator::~Simulator() {
  // Destroying a pending callback runs arbitrary code: a captured Timer
  // cancels itself, a captured object's destructor may schedule. Unlink one
  // event at a time so every such call sees a consistent queue.
  while (!heap_.empty()) {
    Callback dead = take(static_cast<std::uint32_t>(heap_.size() - 1));
  }
}

EventId Simulator::schedule_at(TimePoint when, Callback fn) {
  if (when < now_) when = now_;
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].fn = std::move(fn);
  heap_.emplace_back();
  sift_up(static_cast<std::uint32_t>(heap_.size() - 1), Entry{when, next_seq_++, slot});
  return (EventId{slots_[slot].generation} << 32) | slot;
}

EventId Simulator::schedule_after(Duration delay, Callback fn) {
  if (delay < Duration::zero()) delay = Duration::zero();
  return schedule_at(now_ + delay, std::move(fn));
}

bool Simulator::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  if (s.generation != static_cast<std::uint32_t>(id >> 32) || s.heap_pos == kFree) return false;
  Callback dead = take(s.heap_pos);  // destroyed after the queue is consistent again
  return true;
}

Callback Simulator::take(std::uint32_t pos) {
  const std::uint32_t slot = heap_[pos].slot;
  Slot& s = slots_[slot];
  Callback fn = std::move(s.fn);
  s.heap_pos = kFree;
  if (++s.generation == 0) s.generation = 1;  // 0 would make kInvalidEventId reachable
  free_slots_.push_back(slot);

  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    if (pos > 0 && before(last, heap_[(pos - 1) / kArity])) {
      sift_up(pos, last);
    } else {
      sift_down(pos, last);
    }
  }
  return fn;
}

// Every entry a sift moves is written once, and place() tells its slot the
// new position.
void Simulator::sift_up(std::uint32_t pos, const Entry& e) {
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / kArity;
    if (!before(e, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void Simulator::sift_down(std::uint32_t pos, const Entry& e) {
  const auto n = static_cast<std::uint32_t>(heap_.size());
  while (true) {
    const std::uint32_t first = pos * kArity + 1;
    if (first >= n) break;
    const std::uint32_t end = first + kArity < n ? first + kArity : n;
    std::uint32_t best = first;
    for (std::uint32_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], e)) break;
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, e);
}

void Simulator::place(std::uint32_t pos, const Entry& e) {
  heap_[pos] = e;
  slots_[e.slot].heap_pos = pos;
}

bool Simulator::step(TimePoint deadline) {
  if (heap_.empty() || heap_.front().when > deadline) return false;
  now_ = heap_.front().when;
  // Take the callback out and free its slot first: the callback may schedule
  // (growing the pool) or try to cancel its own, already-fired id.
  Callback fn = take(0);
  ++executed_;
  fn();
  return true;
}

std::size_t Simulator::run() {
  std::size_t n = 0;
  while (step(TimePoint::max())) ++n;
  return n;
}

std::size_t Simulator::run_until(TimePoint deadline) {
  std::size_t n = 0;
  while (step(deadline)) ++n;
  if (now_ < deadline) now_ = deadline;
  return n;
}

std::size_t Simulator::run_for(Duration span) { return run_until(now_ + span); }

bool Simulator::run_until_condition(const std::function<bool()>& pred, TimePoint deadline) {
  if (pred()) return true;
  while (step(deadline)) {
    if (pred()) return true;
  }
  return pred();
}

}  // namespace pan::sim
