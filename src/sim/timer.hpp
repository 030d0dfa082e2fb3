// RAII one-shot, re-armable timer on top of the Simulator (retransmission
// timeouts, idle timeouts). It cancels itself on destruction, so owning
// objects can be destroyed without leaving dangling callbacks.
#pragma once

#include <functional>

#include "sim/simulator.hpp"

namespace pan::sim {

class Timer {
 public:
  Timer(Simulator& sim, std::function<void()> on_fire);
  ~Timer();

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// (Re)arms the timer to fire `delay` from now; cancels any pending firing.
  void arm(Duration delay);
  /// Arms only if not already pending (useful for RTO-style timers).
  void arm_if_idle(Duration delay);
  void cancel();
  [[nodiscard]] bool pending() const { return pending_; }
  [[nodiscard]] TimePoint deadline() const { return deadline_; }

 private:
  void fire();

  Simulator& sim_;
  std::function<void()> on_fire_;
  // Cancel is exact, so the scheduled [this] closure never outlives *this.
  EventId event_ = kInvalidEventId;
  bool pending_ = false;
  TimePoint deadline_;
};

}  // namespace pan::sim
