#include "proxy/overload.hpp"

#include <algorithm>
#include <cmath>

#include "util/log.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace pan::proxy {

namespace {
constexpr std::string_view kLog = "overload";
/// AIMD: multiplicative decrease factor per over-target completion, and the
/// additive increase per on-target completion (fractional: ~1/step
/// completions reopen the window by one slot).
constexpr double kDecreaseFactor = 0.7;
constexpr double kIncreaseStep = 0.1;
/// Priority ladder: fraction of max_in_flight at which the class is
/// rejected. Documents always get the full cap.
constexpr double kSubresourceAdmitFraction = 0.9;
constexpr double kProbeAdmitFraction = 0.5;
/// Brownout hysteresis thresholds on the pressure EWMA, apart so it does
/// not flap.
constexpr double kBrownoutEnter = 0.9;
constexpr double kBrownoutExit = 0.6;
/// EWMA time constant: pressure closes ~63% of the gap to the current
/// utilization per tau of elapsed sim time.
constexpr Duration kPressureTau = milliseconds(100);
}  // namespace

const char* to_string(RequestPriority priority) {
  switch (priority) {
    case RequestPriority::kDocument: return "document";
    case RequestPriority::kSubresource: return "subresource";
    case RequestPriority::kProbe: return "probe";
  }
  return "?";
}

RequestPriority parse_priority(std::string_view text) {
  if (text == "document") return RequestPriority::kDocument;
  if (text == "probe") return RequestPriority::kProbe;
  return RequestPriority::kSubresource;
}

RequestPriority priority_of(const http::HttpRequest& request) {
  const auto header = request.headers.get(kPriorityHeader);
  return header.has_value() ? parse_priority(*header) : RequestPriority::kSubresource;
}

std::string client_of(const http::HttpRequest& request) {
  return request.headers.get(kClientHeader).value_or("local");
}

// --- AimdController ---------------------------------------------------------

AimdController::AimdController(std::string name, AimdConfig config,
                               obs::MetricsRegistry& metrics)
    : name_(name),
      config_(config),
      metrics_(metrics),
      narrowed_(metrics.counter("overload." + name + ".narrowed")),
      widened_(metrics.counter("overload." + name + ".widened")),
      limit_min_(metrics.gauge("overload." + name + ".limit_min")) {}

AimdController::Window& AimdController::window(const std::string& key) {
  auto [it, inserted] = windows_.try_emplace(key);
  if (inserted) it->second.limit = static_cast<double>(config_.max_limit);
  return it->second;
}

void AimdController::set_min_gauge() {
  double min_limit = static_cast<double>(config_.max_limit);
  for (const auto& [key, w] : windows_) min_limit = std::min(min_limit, w.limit);
  limit_min_.set(std::floor(min_limit));
}

std::size_t AimdController::limit(const std::string& key) {
  const double floor_limit = std::floor(window(key).limit);
  return std::max(config_.min_limit,
                  std::max<std::size_t>(1, static_cast<std::size_t>(floor_limit)));
}

void AimdController::record(const std::string& key, Duration latency, bool ok) {
  Window& w = window(key);
  const double min_limit = static_cast<double>(std::max<std::size_t>(1, config_.min_limit));
  const double max_limit = static_cast<double>(config_.max_limit);
  if (!ok || latency > config_.latency_target) {
    // Multiplicative decrease: the origin is sick or saturated; narrow the
    // window so queued work waits at the pool instead of piling onto it.
    const double next = std::max(min_limit, w.limit * kDecreaseFactor);
    if (next < w.limit) {
      const bool hit_floor = next <= min_limit && w.limit > min_limit;
      w.limit = next;
      ++w.narrowed;
      narrowed_.inc();
      // Only the floor-hit transition is a flight event: recording every
      // narrow would wash the ring with routine AIMD adjustments.
      if (hit_floor && sim_ != nullptr) {
        metrics_.events().record(sim_->now(), "aimd", "floor",
                                 name_ + " " + key + " window at min");
      }
      PAN_DEBUG(kLog) << key << ": window narrowed to " << w.limit;
    }
  } else {
    const double next = std::min(max_limit, w.limit + kIncreaseStep);
    if (next > w.limit) {
      w.limit = next;
      widened_.inc();
    }
  }
  set_min_gauge();
}

std::string AimdController::snapshot_json() const {
  util::JsonWriter w;
  w.begin_object();
  for (const auto& [key, window] : windows_) {
    w.key(key).begin_object().field("limit", static_cast<std::size_t>(std::floor(window.limit)));
    w.field("narrowed", window.narrowed).end_object();
  }
  w.end_object();
  return w.take();
}

// --- OverloadController -----------------------------------------------------

OverloadController::OverloadController(sim::Simulator& sim, obs::MetricsRegistry& metrics,
                                       OverloadConfig config, std::string prefix)
    : sim_(sim),
      config_(config),
      metrics_(metrics),
      prefix_(prefix),
      pressure_updated_(sim.now()),
      admitted_(metrics.counter(prefix + ".admitted")),
      rejected_rate_(metrics.counter(prefix + ".rejected_rate")),
      rejected_capacity_(metrics.counter(prefix + ".rejected_capacity")),
      brownout_entered_(metrics.counter(prefix + ".brownout_entered")),
      brownout_exited_(metrics.counter(prefix + ".brownout_exited")),
      in_flight_gauge_(metrics.gauge(prefix + ".in_flight")),
      pressure_gauge_(metrics.gauge(prefix + ".pressure")),
      brownout_gauge_(metrics.gauge(prefix + ".brownout")) {}

OverloadController::Bucket& OverloadController::refill(const std::string& client) {
  const double burst = std::max(1.0, config_.client_rate);
  auto [it, inserted] = buckets_.try_emplace(client);
  Bucket& bucket = it->second;
  if (inserted) {
    bucket.tokens = burst;
    bucket.updated = sim_.now();
    return bucket;
  }
  const double elapsed_s = (sim_.now() - bucket.updated).millis() / 1000.0;
  bucket.tokens = std::min(burst, bucket.tokens + elapsed_s * config_.client_rate);
  bucket.updated = sim_.now();
  return bucket;
}

std::size_t OverloadController::admit_threshold(RequestPriority priority) const {
  const double cap = static_cast<double>(config_.max_in_flight);
  double fraction = 1.0;
  if (priority == RequestPriority::kSubresource) {
    fraction = kSubresourceAdmitFraction;
  } else if (priority == RequestPriority::kProbe) {
    fraction = kProbeAdmitFraction;
  }
  return std::max<std::size_t>(1, static_cast<std::size_t>(cap * fraction));
}

void OverloadController::update_pressure() {
  if (config_.max_in_flight == 0) return;  // no cap: pressure undefined
  const Duration elapsed = sim_.now() - pressure_updated_;
  pressure_updated_ = sim_.now();
  const double utilization =
      static_cast<double>(in_flight_) / static_cast<double>(config_.max_in_flight);
  if (elapsed > Duration::zero()) {
    const double alpha = 1.0 - std::exp(-elapsed.millis() / kPressureTau.millis());
    pressure_ += alpha * (utilization - pressure_);
  }
  pressure_gauge_.set(pressure_);

  if (!config_.enabled) return;
  // Brownout hysteresis: sustained pressure trips it, a lower exit
  // threshold clears it.
  if (pressure_ >= kBrownoutEnter) {
    if (!above_enter_since_.has_value()) above_enter_since_ = sim_.now();
    if (!brownout_ && sim_.now() - *above_enter_since_ >= config_.brownout_hold) {
      brownout_ = true;
      brownout_entered_.inc();
      brownout_gauge_.set(1.0);
      metrics_.events().record(sim_.now(), "overload", "brownout-enter",
                               strings::format("%s pressure=%.2f", prefix_.c_str(), pressure_));
      PAN_DEBUG(kLog) << "brownout entered (pressure " << pressure_ << ")";
    }
  } else {
    above_enter_since_.reset();
    if (brownout_ && pressure_ <= kBrownoutExit) {
      brownout_ = false;
      brownout_exited_.inc();
      brownout_gauge_.set(0.0);
      metrics_.events().record(sim_.now(), "overload", "brownout-exit",
                               strings::format("%s pressure=%.2f", prefix_.c_str(), pressure_));
      PAN_DEBUG(kLog) << "brownout exited (pressure " << pressure_ << ")";
    }
  }
}

OverloadController::Admission OverloadController::admit(const std::string& client,
                                                        RequestPriority priority) {
  update_pressure();
  if (config_.enabled) {
    if (config_.client_rate > 0.0) {
      Bucket& bucket = refill(client);
      if (bucket.tokens < 1.0) {
        rejected_rate_.inc();
        // Advertise when the next token lands (at least the configured
        // floor) so well-behaved clients pace themselves.
        const double wait_s = (1.0 - bucket.tokens) / config_.client_rate;
        const Duration wait = milliseconds(static_cast<std::int64_t>(wait_s * 1000.0) + 1);
        return Admission{Verdict::kRejectRate, std::max(kRetryAfter, wait)};
      }
      bucket.tokens -= 1.0;
    }
    if (config_.max_in_flight > 0 && in_flight_ >= admit_threshold(priority)) {
      rejected_capacity_.inc();
      return Admission{Verdict::kRejectCapacity, kRetryAfter};
    }
  }
  ++in_flight_;
  admitted_.inc();
  in_flight_gauge_.set(static_cast<double>(in_flight_));
  update_pressure();
  return Admission{Verdict::kAdmit, Duration::zero()};
}

void OverloadController::release() {
  if (in_flight_ > 0) --in_flight_;
  in_flight_gauge_.set(static_cast<double>(in_flight_));
  update_pressure();
}

bool OverloadController::brownout() {
  update_pressure();
  return brownout_;
}

std::string OverloadController::snapshot_json() const {
  util::JsonWriter w;
  w.begin_object().field("enabled", config_.enabled).field("in_flight", in_flight_);
  w.field("max_in_flight", config_.max_in_flight).key("pressure").fixed(pressure_, 3);
  w.field("brownout", brownout_).field("admitted", admitted_.value());
  w.field("rejected_rate", rejected_rate_.value());
  w.field("rejected_capacity", rejected_capacity_.value()).end_object();
  return w.take();
}

}  // namespace pan::proxy
