#include "sim/timer.hpp"

#include <utility>

namespace pan::sim {

Timer::Timer(Simulator& sim, std::function<void()> on_fire)
    : sim_(sim), on_fire_(std::move(on_fire)) {}

Timer::~Timer() { cancel(); }

void Timer::arm(Duration delay) {
  cancel();
  pending_ = true;
  deadline_ = sim_.now() + delay;
  event_ = sim_.schedule_after(delay, [this] { fire(); });
}

void Timer::arm_if_idle(Duration delay) {
  if (!pending_) arm(delay);
}

void Timer::cancel() {
  if (pending_) {
    sim_.cancel(event_);
    pending_ = false;
  }
}

void Timer::fire() {
  pending_ = false;
  on_fire_();
}

}  // namespace pan::sim
