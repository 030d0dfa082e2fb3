#include "proxy/circuit_breaker.hpp"

#include "util/json.hpp"

namespace pan::proxy {

CircuitBreaker::CircuitBreaker(sim::Simulator& sim, CircuitBreakerConfig config,
                               obs::MetricsRegistry* metrics)
    : sim_(sim), config_(config), metrics_(metrics) {}

bool CircuitBreaker::allow(const std::string& key) {
  if (config_.failure_threshold == 0) return true;
  const auto it = entries_.find(key);
  if (it == entries_.end()) return true;
  Entry& entry = it->second;
  switch (entry.state) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (sim_.now() - entry.opened_at < config_.open_ttl) return false;
      entry.state = State::kHalfOpen;
      entry.probe_in_flight = false;
      [[fallthrough]];
    case State::kHalfOpen:
      if (entry.probe_in_flight) return false;
      entry.probe_in_flight = true;
      count("breaker.probes");
      event("probe", key);
      return true;
  }
  return true;
}

void CircuitBreaker::record_success(const std::string& key) {
  if (config_.failure_threshold == 0) return;
  const auto it = entries_.find(key);
  if (it == entries_.end()) return;
  if (it->second.state != State::kClosed) {
    count("breaker.closes");
    event("close", key);
  }
  entries_.erase(it);
}

void CircuitBreaker::record_failure(const std::string& key) {
  if (config_.failure_threshold == 0) return;
  Entry& entry = entries_[key];
  ++entry.consecutive_failures;
  if (entry.state == State::kHalfOpen ||
      (entry.state == State::kClosed &&
       entry.consecutive_failures >= config_.failure_threshold)) {
    // A failed probe re-opens; enough consecutive failures trip a closed
    // breaker.
    entry.state = State::kOpen;
    entry.opened_at = sim_.now();
    entry.probe_in_flight = false;
    count("breaker.trips");
    event("trip", key + " after " + std::to_string(entry.consecutive_failures) + " failures");
  }
}

bool CircuitBreaker::is_open(const std::string& key) const {
  const auto it = entries_.find(key);
  return it != entries_.end() && it->second.state == State::kOpen;
}

std::size_t CircuitBreaker::open_count() const {
  std::size_t count = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry.state == State::kOpen) ++count;
  }
  return count;
}

std::string_view CircuitBreaker::state_name(State state) {
  switch (state) {
    case State::kClosed: return "closed";
    case State::kOpen: return "open";
    case State::kHalfOpen: return "half-open";
  }
  return "?";
}

std::string CircuitBreaker::snapshot_json() const {
  util::JsonWriter w;
  w.begin_object();
  for (const auto& [key, entry] : entries_) {
    w.key(key).begin_object().field("state", state_name(entry.state));
    w.field("consecutive_failures", entry.consecutive_failures);
    if (entry.state != State::kClosed) w.key("opened_at_ms").fixed(entry.opened_at.millis(), 3);
    w.end_object();
  }
  w.end_object();
  return w.take();
}

std::vector<CircuitBreaker::ExportedEntry> CircuitBreaker::export_entries() const {
  std::vector<ExportedEntry> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    out.push_back(ExportedEntry{key, static_cast<std::uint8_t>(entry.state),
                                entry.consecutive_failures, entry.opened_at});
  }
  return out;
}

void CircuitBreaker::import_entries(const std::vector<ExportedEntry>& entries) {
  for (const auto& imported : entries) {
    if (imported.state > static_cast<std::uint8_t>(State::kHalfOpen)) continue;
    Entry& entry = entries_[imported.key];
    entry.state = static_cast<State>(imported.state);
    entry.consecutive_failures = imported.consecutive_failures;
    entry.opened_at = imported.opened_at;
    // The exporting instance's probe (if any) died with it.
    entry.probe_in_flight = false;
  }
}

void CircuitBreaker::count(const std::string& name) {
  if (metrics_ != nullptr) metrics_->counter(name).inc();
}

void CircuitBreaker::event(std::string_view kind, std::string detail) {
  if (metrics_ != nullptr) {
    metrics_->events().record(sim_.now(), "breaker", kind, std::move(detail));
  }
}

}  // namespace pan::proxy
