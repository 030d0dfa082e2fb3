#include "net/multi_access.hpp"

#include <algorithm>
#include <cmath>

#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace pan::net {
namespace {

constexpr std::string_view kProbePrefix = "ma-probe:";
/// Consecutive probe replies before a down access is declared back up.
constexpr std::size_t kUpAfterHits = 2;
/// Probe-RTT EWMA smoothing factor.
constexpr double kEwmaAlpha = 0.3;
/// EWMA above best-observed * factor flags the access degraded (brownout);
/// recovery below 0.8 * the degrade threshold (hysteresis) restores it.
constexpr double kDegradeRttFactor = 4.0;
/// Absolute floor on the brownout threshold: the EWMA must also exceed
/// best + this excess. A sub-millisecond wired access would otherwise flap
/// degraded on microseconds of queueing that no page load can feel.
constexpr Duration kDegradeMinExcess = milliseconds(10);
/// The latency-critical pick compares accesses by EWMA with degraded ones
/// handicapped by this factor: a brownout access that is still several
/// times faster than the healthy alternative keeps the documents (its
/// queueing is self-inflicted load, not an outage), while a genuinely slow
/// brownout loses the pin. Degraded accesses with an active failure streak
/// are avoided outright — their fetches are failing, not just slow.
constexpr double kDegradedLatencyPenalty = 2.0;

}  // namespace

const char* to_string(FetchIntent intent) {
  switch (intent) {
    case FetchIntent::kLatencyCritical: return "latency-critical";
    case FetchIntent::kBulk: return "bulk";
    case FetchIntent::kBackground: return "background";
  }
  return "bulk";
}

std::optional<FetchIntent> parse_fetch_intent(std::string_view text) {
  if (text == "latency-critical") return FetchIntent::kLatencyCritical;
  if (text == "bulk") return FetchIntent::kBulk;
  if (text == "background") return FetchIntent::kBackground;
  return std::nullopt;
}

const char* to_string(AccessHealth health) {
  switch (health) {
    case AccessHealth::kHealthy: return "healthy";
    case AccessHealth::kDegraded: return "degraded";
    case AccessHealth::kDown: return "down";
  }
  return "down";
}

MultiAccessHost::MultiAccessHost(sim::Simulator& sim, MultiAccessConfig config)
    : sim_(sim), config_(config) {}

MultiAccessHost::~MultiAccessHost() { *alive_ = false; }

void MultiAccessHost::add_access(const std::string& name, Host& host) {
  if (find(name) != nullptr) return;
  auto access = std::make_unique<Access>();
  access->name = name;
  access->host = &host;
  accesses_.push_back(std::move(access));
}

void MultiAccessHost::start_probes() {
  for (std::size_t i = 0; i < accesses_.size(); ++i) {
    Access& access = *accesses_[i];
    if (access.probing) continue;
    access.probing = true;
    access.last_reply = sim_.now();  // baseline for the silence window
    // The probe is a datagram addressed to ourselves: it rides the access
    // link to the first-hop AS router and comes back over the host route, so
    // the RTT measures the access link and a dead link swallows it.
    access.probe_socket = access.host->udp_bind(
        0, [this, i](const Endpoint& /*from*/, PacketView payload) {
          const auto bytes = payload.span();
          std::string text(bytes.begin(), bytes.end());
          if (text.rfind(kProbePrefix, 0) != 0) return;
          const std::uint64_t seq =
              std::strtoull(text.c_str() + kProbePrefix.size(), nullptr, 10);
          on_probe_reply(i, seq);
        });
    send_probe(i);
  }
}

std::vector<std::string> MultiAccessHost::access_names() const {
  std::vector<std::string> names;
  names.reserve(accesses_.size());
  for (const auto& access : accesses_) names.push_back(access->name);
  return names;
}

bool MultiAccessHost::has_access(const std::string& name) const {
  return find(name) != nullptr;
}

Host* MultiAccessHost::host(const std::string& name) {
  Access* access = find(name);
  return access != nullptr ? access->host : nullptr;
}

AccessHealth MultiAccessHost::health(const std::string& name) const {
  const Access* access = find(name);
  return access != nullptr ? access->health : AccessHealth::kDown;
}

Duration MultiAccessHost::ewma_rtt(const std::string& name) const {
  const Access* access = find(name);
  return access != nullptr ? access->ewma : Duration::zero();
}

void MultiAccessHost::record_result(const std::string& name, bool ok, Duration /*latency*/) {
  Access* access = find(name);
  if (access == nullptr) return;
  // Fetch latency is deliberately NOT folded into the access EWMA: it
  // measures the whole path to the origin, and a 60 ms far-path fetch would
  // swamp the sub-millisecond access-link signal the probes maintain.
  // Passive feedback contributes reachability evidence only.
  if (ok) {
    access->failure_streak = 0;
    // A real fetch succeeding over a degraded access is stronger evidence
    // than the RTT hysteresis: restore it once the streak clears.
    if (access->health == AccessHealth::kDegraded &&
        (access->best == Duration::zero() ||
         access->ewma <= access->best.scaled(kDegradeRttFactor))) {
      set_health(*access, AccessHealth::kHealthy);
    }
    return;
  }
  ++access->failure_streak;
  if (access->health == AccessHealth::kHealthy &&
      access->failure_streak >= config_.degrade_after_failures) {
    set_health(*access, AccessHealth::kDegraded);
  }
}

std::string MultiAccessHost::pick(FetchIntent intent, const std::string& avoid) {
  // Latency-critical considers every not-down access (a degraded-but-fastest
  // access keeps the documents, handicap permitting); bulk and background
  // use the shadowed set so a degraded access sheds its load.
  std::vector<std::size_t> usable =
      intent == FetchIntent::kLatencyCritical ? not_down_set() : usable_set();
  if (usable.empty()) return {};
  if (!avoid.empty() && usable.size() > 1) {
    std::vector<std::size_t> filtered;
    for (std::size_t i : usable) {
      if (accesses_[i]->name != avoid) filtered.push_back(i);
    }
    if (!filtered.empty()) usable = std::move(filtered);
  }
  switch (intent) {
    case FetchIntent::kLatencyCritical: {
      // Zero EWMA = unmeasured; it sorts first, so before any probe lands
      // the primary (first-registered) access wins deterministically.
      std::size_t best = usable.front();
      for (std::size_t i : usable) {
        if (effective_ewma(*accesses_[i]) < effective_ewma(*accesses_[best])) best = i;
      }
      return accesses_[best]->name;
    }
    case FetchIntent::kBackground: {
      // The spare: slowest usable access, ties to the latest registered so
      // background traffic stays off the primary even before measurements.
      std::size_t spare = usable.front();
      for (std::size_t i : usable) {
        if (accesses_[i]->ewma >= accesses_[spare]->ewma) spare = i;
      }
      return accesses_[spare]->name;
    }
    case FetchIntent::kBulk: return pick_bulk(usable);
  }
  return accesses_[usable.front()]->name;
}

std::string MultiAccessHost::fastest_usable() const {
  const std::vector<std::size_t> usable = not_down_set();
  if (usable.empty()) return {};
  std::size_t best = usable.front();
  for (std::size_t i : usable) {
    if (effective_ewma(*accesses_[i]) < effective_ewma(*accesses_[best])) best = i;
  }
  return accesses_[best]->name;
}

std::vector<std::pair<std::string, double>> MultiAccessHost::striping_weights() const {
  std::vector<std::pair<std::string, double>> out;
  const std::vector<std::size_t> usable = usable_set();
  for (const auto& [index, weight] : weights_over(usable)) {
    out.emplace_back(accesses_[index]->name, weight);
  }
  return out;
}

std::uint64_t MultiAccessHost::subscribe(HealthFn fn) {
  const std::uint64_t id = next_subscriber_++;
  subscribers_[id] = std::move(fn);
  return id;
}

void MultiAccessHost::unsubscribe(std::uint64_t id) { subscribers_.erase(id); }

std::string MultiAccessHost::snapshot_json() const {
  util::JsonWriter w;
  w.begin_object().key("accesses").begin_array();
  for (const auto& access : accesses_) {
    w.begin_object().field("name", access->name).field("health", to_string(access->health));
    w.key("ewma_rtt_us").raw(strings::format("%g", access->ewma.micros()));
    w.field("probes_sent", access->probes_sent).field("probes_acked", access->probes_acked);
    w.field("failure_streak", access->failure_streak).end_object();
  }
  w.end_array().key("weights").begin_array();
  for (const auto& [name, weight] : striping_weights()) {
    w.begin_object().field("access", name).key("weight").raw(strings::format("%g", weight));
    w.end_object();
  }
  w.end_array().end_object();
  return w.take();
}

MultiAccessHost::Access* MultiAccessHost::find(const std::string& name) {
  for (auto& access : accesses_) {
    if (access->name == name) return access.get();
  }
  return nullptr;
}

const MultiAccessHost::Access* MultiAccessHost::find(const std::string& name) const {
  for (const auto& access : accesses_) {
    if (access->name == name) return access.get();
  }
  return nullptr;
}

std::vector<std::size_t> MultiAccessHost::usable_set() const {
  std::vector<std::size_t> healthy;
  std::vector<std::size_t> degraded;
  for (std::size_t i = 0; i < accesses_.size(); ++i) {
    switch (accesses_[i]->health) {
      case AccessHealth::kHealthy: healthy.push_back(i); break;
      case AccessHealth::kDegraded: degraded.push_back(i); break;
      case AccessHealth::kDown: break;
    }
  }
  return healthy.empty() ? degraded : healthy;
}

std::vector<std::size_t> MultiAccessHost::not_down_set() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < accesses_.size(); ++i) {
    if (accesses_[i]->health != AccessHealth::kDown) out.push_back(i);
  }
  return out;
}

Duration MultiAccessHost::effective_ewma(const Access& access) const {
  if (access.health != AccessHealth::kDegraded) return access.ewma;
  // Degraded by failing fetches (or degraded with nothing measured yet):
  // nothing a latency comparison can vouch for — avoid unless it is the
  // only access left.
  if (access.failure_streak > 0 || access.ewma == Duration::zero()) return Duration::max();
  return access.ewma.scaled(kDegradedLatencyPenalty);
}

std::vector<std::pair<std::size_t, double>> MultiAccessHost::weights_over(
    const std::vector<std::size_t>& usable) const {
  std::vector<std::pair<std::size_t, double>> weights;
  if (usable.empty()) return weights;
  // Inverse-EWMA raw weights; unmeasured accesses take the fastest measured
  // EWMA (optimistic: no evidence they are slow), or 1.0 when nothing has
  // been measured yet (equal striping).
  Duration fastest = Duration::zero();
  for (std::size_t i : usable) {
    const Duration ewma = accesses_[i]->ewma;
    if (ewma > Duration::zero() && (fastest == Duration::zero() || ewma < fastest)) {
      fastest = ewma;
    }
  }
  double max_weight = 0.0;
  for (std::size_t i : usable) {
    Duration ewma = accesses_[i]->ewma;
    if (ewma == Duration::zero()) ewma = fastest;
    const double w = ewma == Duration::zero() ? 1.0 : 1.0 / ewma.seconds();
    weights.emplace_back(i, w);
    max_weight = std::max(max_weight, w);
  }
  // Ratio clamp: striping is about aggregating bandwidth, so a slow access
  // keeps at least max/ratio — raw inverse RTT would starve it.
  double total = 0.0;
  for (auto& [index, w] : weights) {
    if (config_.max_weight_ratio > 1.0) {
      w = std::max(w, max_weight / config_.max_weight_ratio);
    }
    total += w;
  }
  for (auto& [index, w] : weights) w /= total;
  return weights;
}

void MultiAccessHost::set_health(Access& access, AccessHealth health) {
  if (access.health == health) return;
  const AccessHealth previous = access.health;
  access.health = health;
  access.hits = 0;
  if (health != AccessHealth::kDown) access.misses = 0;
  if (health == AccessHealth::kHealthy) access.failure_streak = 0;
  PAN_DEBUG("multiaccess") << "access " << access.name << " " << to_string(previous)
                           << " -> " << to_string(health);
  // Copy before firing: a subscriber may (un)subscribe from its callback.
  auto subscribers = subscribers_;
  for (auto& [id, fn] : subscribers) fn(access.name, previous, health);
}

void MultiAccessHost::fold_rtt(Access& access, Duration rtt) {
  if (access.ewma == Duration::zero()) {
    access.ewma = rtt;
  } else {
    access.ewma = rtt.scaled(kEwmaAlpha) + access.ewma.scaled(1.0 - kEwmaAlpha);
  }
  if (access.best == Duration::zero() || access.ewma < access.best) {
    access.best = access.ewma;
  }
  // Brownout detection with hysteresis: degrade above
  // max(best * factor, best + min_excess) — the absolute floor keeps a
  // sub-millisecond access from flapping on queueing no page load can feel.
  const Duration threshold = std::max(access.best.scaled(kDegradeRttFactor),
                                      access.best + kDegradeMinExcess);
  if (access.health == AccessHealth::kHealthy && access.ewma > threshold) {
    set_health(access, AccessHealth::kDegraded);
  } else if (access.health == AccessHealth::kDegraded && access.failure_streak == 0 &&
             access.ewma < threshold.scaled(0.8)) {
    set_health(access, AccessHealth::kHealthy);
  }
}

void MultiAccessHost::send_probe(std::size_t index) {
  Access& access = *accesses_[index];
  if (access.probe_socket == nullptr) return;
  const std::uint64_t seq = access.next_seq++;
  access.outstanding[seq] = sim_.now();
  ++access.probes_sent;
  // Priority admission: the probe must not be tail-dropped behind a bulk
  // transfer saturating the access link — congestion has to surface as a
  // late reply (inflated RTT -> degraded), not as silence (-> down).
  access.probe_socket->send_to(access.probe_socket->local_endpoint(),
                               from_string(std::string(kProbePrefix) + std::to_string(seq)),
                               /*priority=*/true);
  auto alive = alive_;
  sim_.schedule_after(config_.probe_timeout, [this, alive, index, seq] {
    if (!*alive) return;
    on_probe_timeout(index, seq);
  });
  sim_.schedule_after(config_.probe_interval, [this, alive, index] {
    if (!*alive) return;
    send_probe(index);
  });
}

void MultiAccessHost::on_probe_reply(std::size_t index, std::uint64_t seq) {
  Access& access = *accesses_[index];
  auto it = access.outstanding.find(seq);
  if (it == access.outstanding.end()) {
    // Late reply: the probe already counted as a miss, but lateness is not
    // silence — a bulk transfer saturating the access link queues the probe
    // behind megabytes of data without the link being down. Count it as
    // liveness (reset the miss streak, fold the inflated RTT so the EWMA
    // degrade machinery sees the bufferbloat) instead of dropping it, or a
    // failover onto a surviving access would immediately declare that
    // access dead under its own load.
    auto late_it = access.late.find(seq);
    if (late_it == access.late.end()) return;
    const Duration rtt = sim_.now() - late_it->second;
    access.late.erase(late_it);
    ++access.probes_acked;
    access.misses = 0;
    access.last_reply = sim_.now();
    if (access.health == AccessHealth::kDown &&
        ++access.hits >= kUpAfterHits) {
      set_health(access, AccessHealth::kHealthy);
    }
    fold_rtt(access, rtt);
    return;
  }
  const Duration rtt = sim_.now() - it->second;
  access.outstanding.erase(it);
  ++access.probes_acked;
  access.misses = 0;
  access.last_reply = sim_.now();
  if (access.health == AccessHealth::kDown) {
    if (++access.hits >= kUpAfterHits) {
      set_health(access, AccessHealth::kHealthy);
    }
  }
  fold_rtt(access, rtt);
}

void MultiAccessHost::on_probe_timeout(std::size_t index, std::uint64_t seq) {
  Access& access = *accesses_[index];
  auto it = access.outstanding.find(seq);
  if (it == access.outstanding.end()) return;  // answered in time
  // Keep the send time around so a reply that eventually straggles in still
  // counts as liveness (bounded: a truly dead link accumulates these, so
  // evict the oldest beyond a small window).
  access.late[seq] = it->second;
  while (access.late.size() > 16) access.late.erase(access.late.begin());
  access.outstanding.erase(it);
  access.hits = 0;
  ++access.misses;
  // Down means silence, not lateness: require both the miss streak AND a
  // reply-free window covering it. Replies straggling in through a
  // saturated queue keep resetting the streak, so a loaded-but-alive
  // access never flaps down under its own traffic.
  const Duration silence_window =
      config_.probe_timeout +
      config_.probe_interval * static_cast<std::int64_t>(config_.down_after_misses);
  if (access.misses >= config_.down_after_misses &&
      sim_.now() - access.last_reply >= silence_window &&
      access.health != AccessHealth::kDown) {
    set_health(access, AccessHealth::kDown);
  }
}

std::string MultiAccessHost::pick_bulk(const std::vector<std::size_t>& usable) {
  // Smooth weighted round-robin (nginx-style): each pick adds the weight to
  // every credit, takes the largest, and charges it the total. Produces the
  // maximally interleaved sequence for any weight vector.
  const auto weights = weights_over(usable);
  double total = 0.0;
  for (const auto& [index, w] : weights) total += w;
  std::size_t chosen = weights.front().first;
  double best_credit = -1.0;
  for (const auto& [index, w] : weights) {
    Access& access = *accesses_[index];
    access.wrr_credit += w;
    if (access.wrr_credit > best_credit) {
      best_credit = access.wrr_credit;
      chosen = index;
    }
  }
  accesses_[chosen]->wrr_credit -= total;
  return accesses_[chosen]->name;
}

}  // namespace pan::net
