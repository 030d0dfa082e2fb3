#include "obs/timeseries.hpp"

#include <algorithm>

#include "util/json.hpp"
#include "util/strings.hpp"

namespace pan::obs {

TimeSeriesStore::TimeSeriesStore(const MetricsRegistry& registry, TimeSeriesConfig config,
                                 TimePoint start)
    : registry_(registry), config_(std::move(config)), last_tick_(start) {
  if (config_.retention_slots == 0) config_.retention_slots = 1;
}

std::size_t TimeSeriesStore::retention_slots_for(std::string_view name) const {
  std::size_t slots = config_.retention_slots;
  std::size_t best_len = 0;
  for (const auto& [prefix, override_slots] : config_.retention_overrides) {
    if (prefix.size() >= best_len && strings::starts_with(name, prefix)) {
      best_len = prefix.size();
      slots = std::max<std::size_t>(1, override_slots);
    }
  }
  return slots;
}

void TimeSeriesStore::observe(TimePoint now) {
  if (config_.interval <= Duration::zero()) return;
  // Catch up across every boundary crossed since the last tick. The registry
  // is read at catch-up time, so the first missed slot absorbs the whole
  // accumulated delta and the remaining slots record empty deltas — slot
  // timestamps stay aligned to the interval grid.
  while (now - last_tick_ >= config_.interval) {
    last_tick_ = last_tick_ + config_.interval;
    capture();
  }
}

void TimeSeriesStore::capture() {
  ++ticks_;
  for (const auto& [name, counter] : registry_.counters()) {
    capture_value(name, counter.value());
  }
  for (const auto& [name, histogram] : registry_.histograms()) {
    capture_value(name + ".count", histogram.count());
  }
}

void TimeSeriesStore::capture_value(const std::string& name, std::uint64_t cumulative) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_.emplace(name, Series{}).first;
    it->second.ring.assign(retention_slots_for(name), 0);
  }
  Series& series = it->second;
  std::uint64_t delta;
  if (cumulative < series.previous) {
    // The instrument restarted (replica bounce): the new cumulative value is
    // everything that happened since, and the base resets with it.
    delta = cumulative;
    ++series.resets;
  } else {
    delta = cumulative - series.previous;
  }
  series.previous = cumulative;
  series.ring[series.head] = delta;
  series.head = (series.head + 1) % series.ring.size();
  series.filled = std::min(series.filled + 1, series.ring.size());
}

SeriesWindow TimeSeriesStore::query(const std::string& name, Duration window) const {
  SeriesWindow out;
  const auto it = series_.find(name);
  if (it == series_.end() || config_.interval <= Duration::zero()) return out;
  const Series& series = it->second;
  out.known = true;
  out.resets = series.resets;
  if (window <= Duration::zero() || series.filled == 0) return out;
  // Ceil-divide: a 250 ms window over 100 ms slots covers 3 slots.
  const std::int64_t interval_ns = config_.interval.nanos();
  std::size_t want =
      static_cast<std::size_t>((window.nanos() + interval_ns - 1) / interval_ns);
  const std::size_t covered_slots = std::min(want, series.filled);
  const std::size_t capacity = series.ring.size();
  for (std::size_t i = 0; i < covered_slots; ++i) {
    const std::size_t slot = (series.head + capacity - 1 - i) % capacity;
    out.delta += series.ring[slot];
  }
  out.covered = config_.interval * static_cast<std::int64_t>(covered_slots);
  if (out.covered > Duration::zero()) {
    out.rate_per_s = static_cast<double>(out.delta) / out.covered.seconds();
  }
  return out;
}

std::string TimeSeriesStore::query_json(std::string_view prefix, Duration window) const {
  util::JsonWriter w;
  w.begin_object().key("interval_ms").fixed(config_.interval.millis(), 3);
  w.key("window_ms").fixed(window.millis(), 3).field("ticks", ticks_);
  w.key("series").begin_object();
  for (const auto& [name, series] : series_) {
    (void)series;
    if (!prefix.empty() && !strings::starts_with(name, prefix)) continue;
    const SeriesWindow sw = query(name, window);
    w.key(name).begin_object().field("delta", sw.delta);
    w.key("rate_per_s").fixed(sw.rate_per_s, 6);
    w.key("covered_ms").fixed(sw.covered.millis(), 3);
    w.field("resets", sw.resets).end_object();
  }
  w.end_object().end_object();
  return w.take();
}

}  // namespace pan::obs
