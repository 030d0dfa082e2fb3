#include "obs/flight_recorder.hpp"

#include "util/log.hpp"
#include "util/json.hpp"

namespace pan::obs {

void FlightRecorder::record(TimePoint at, std::string_view component, std::string_view kind,
                            std::string_view detail) {
  PAN_DEBUG("flight") << component << ' ' << kind << (detail.empty() ? "" : " ") << detail;
  FlightEvent event{next_seq_++, at, std::string(component), std::string(kind),
                    std::string(detail)};
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
    return;
  }
  ring_[head_] = std::move(event);
  head_ = (head_ + 1) % capacity_;
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::vector<FlightEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::vector<FlightEvent> FlightRecorder::last(std::size_t n) const {
  std::vector<FlightEvent> all = snapshot();
  if (all.size() > n) all.erase(all.begin(), all.end() - static_cast<std::ptrdiff_t>(n));
  return all;
}

std::string FlightRecorder::snapshot_json() const {
  util::JsonWriter w;
  w.begin_array();
  for (const FlightEvent& event : snapshot()) {
    w.begin_object().field("seq", event.seq).key("at_ms").fixed(event.at.millis(), 3);
    w.field("component", event.component).field("kind", event.kind);
    w.field("detail", event.detail).end_object();
  }
  w.end_array();
  return w.take();
}

}  // namespace pan::obs
