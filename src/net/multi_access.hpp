// Multi-access clients: several upstream links ("accesses") into different
// first-hop ASes, Socket-Intents style (Tiesel et al.). Each access is a
// full host attachment — its own IP, its own access link, its own first-hop
// AS — and MultiAccessHost bundles them behind per-access health tracking
// plus intent-aware access picks:
//
//   - latency-critical (main documents) pins to the fastest usable access
//     by probe-RTT EWMA;
//   - bulk (images/scripts) stripes across all usable accesses with smooth
//     weighted round-robin, weights inverse to probe RTT (ratio-clamped so a
//     slow-but-fat access still pulls a meaningful share);
//   - background (detector probes, synthetic load) rides the spare — the
//     slowest usable access — keeping the fast one clear.
//
// Health is tracked like fleet replicas: an active probe loop (a
// self-addressed UDP datagram reflected off the AS router, so a dead or
// brown-out access link is observed, not signaled) drives the
// healthy/degraded/down state machine, and passive per-fetch feedback
// (record_result) catches brownouts the probe's small datagrams slip
// through. Consumers subscribe to health transitions — the SKIP proxy uses
// the down transition to fail in-flight fetches over to a surviving access
// inside their original deadline budget.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/host.hpp"

namespace pan::net {

/// What the page model implies about a fetch (Socket Intents): documents
/// are latency-critical, sub-resources are bulk, probes are background.
enum class FetchIntent : std::uint8_t { kLatencyCritical, kBulk, kBackground };

[[nodiscard]] const char* to_string(FetchIntent intent);
/// Parses "latency-critical" / "bulk" / "background"; nullopt on anything
/// else (callers keep their priority-derived default).
[[nodiscard]] std::optional<FetchIntent> parse_fetch_intent(std::string_view text);

/// Request header carrying an explicit intent from the browser; absent means
/// the proxy derives the intent from the X-Skip-Priority class.
inline constexpr std::string_view kIntentHeader = "X-Skip-Intent";

enum class AccessHealth : std::uint8_t { kHealthy, kDegraded, kDown };

[[nodiscard]] const char* to_string(AccessHealth health);

struct MultiAccessConfig {
  /// Active probe loop: one self-addressed datagram per access per interval.
  Duration probe_interval = milliseconds(100);
  /// A probe unanswered after this long counts as a miss (must exceed twice
  /// the slowest access-link latency). A reply that straggles in later still
  /// resets the miss streak: lateness (queueing) is not silence (outage).
  Duration probe_timeout = milliseconds(250);
  /// Consecutive probe misses before an access is declared down (two
  /// consecutive probe replies, kUpAfterHits, bring it back up).
  std::size_t down_after_misses = 3;
  /// Consecutive passive fetch failures that flag a healthy access degraded
  /// even while its (small) probes still get through.
  std::size_t degrade_after_failures = 3;
  /// Bulk striping weights are inverse probe RTT, but clamped to at most
  /// this ratio between the heaviest and lightest access: striping is about
  /// aggregating bandwidth, and raw inverse RTT would starve a slow-but-fat
  /// access of its useful share.
  double max_weight_ratio = 4.0;
};

/// A bundle of named access attachments with health tracking and per-intent
/// access picks. Accesses are registered in priority order: the first one is
/// the "primary" and wins deterministic ties.
class MultiAccessHost {
 public:
  explicit MultiAccessHost(sim::Simulator& sim, MultiAccessConfig config = {});
  ~MultiAccessHost();

  MultiAccessHost(const MultiAccessHost&) = delete;
  MultiAccessHost& operator=(const MultiAccessHost&) = delete;

  /// Registers an access. `host` must outlive this bundle.
  void add_access(const std::string& name, Host& host);
  /// Starts the probe loop on every access that has none yet (idempotent).
  void start_probes();

  [[nodiscard]] std::size_t access_count() const { return accesses_.size(); }
  [[nodiscard]] std::vector<std::string> access_names() const;
  [[nodiscard]] bool has_access(const std::string& name) const;
  [[nodiscard]] Host* host(const std::string& name);
  [[nodiscard]] AccessHealth health(const std::string& name) const;
  /// Probe-RTT EWMA (zero until the first probe reply). Probe-driven only:
  /// fetch latencies measure the whole path to the origin, not the access.
  [[nodiscard]] Duration ewma_rtt(const std::string& name) const;

  /// Passive feedback from the fetch path: failures push a still-probing
  /// access toward degraded; successes clear the failure streak (the
  /// latency is informational — see ewma_rtt).
  void record_result(const std::string& name, bool ok, Duration latency);

  /// The access to use for `intent`, or "" when every access is down
  /// (callers fail closed). `avoid` soft-excludes one access — the one a
  /// previous attempt just failed on — unless it is the only one usable.
  [[nodiscard]] std::string pick(FetchIntent intent, const std::string& avoid = {});
  /// Fastest not-down access by effective EWMA — degraded accesses carry the
  /// configured latency handicap — i.e. the latency-critical pin, or "".
  [[nodiscard]] std::string fastest_usable() const;
  /// Normalized bulk striping weights over the usable set (ratio-clamped
  /// inverse EWMA), in registration order.
  [[nodiscard]] std::vector<std::pair<std::string, double>> striping_weights() const;

  /// Health-transition subscription: (name, previous, current). Fired
  /// synchronously from the probe/feedback paths.
  using HealthFn = std::function<void(const std::string&, AccessHealth, AccessHealth)>;
  [[nodiscard]] std::uint64_t subscribe(HealthFn fn);
  void unsubscribe(std::uint64_t id);

  /// Per-access state for the /skip/access endpoint.
  [[nodiscard]] std::string snapshot_json() const;

 private:
  struct Access {
    std::string name;
    Host* host = nullptr;
    std::unique_ptr<UdpSocket> probe_socket;
    bool probing = false;
    AccessHealth health = AccessHealth::kHealthy;
    Duration ewma = Duration::zero();
    Duration best = Duration::zero();  // floor of the EWMA seen so far
    std::size_t misses = 0;
    std::size_t hits = 0;
    /// Last probe reply (on-time or late); down requires a silent window
    /// since this, not just a miss streak. Initialized when probing starts.
    TimePoint last_reply{};
    std::size_t failure_streak = 0;
    std::uint64_t probes_sent = 0;
    std::uint64_t probes_acked = 0;
    std::uint64_t next_seq = 1;
    std::map<std::uint64_t, TimePoint> outstanding;  // seq -> sent at
    /// Probes that timed out but may still straggle in: a late reply counts
    /// as liveness (queueing delay is not an outage), bounded to 16 entries.
    std::map<std::uint64_t, TimePoint> late;
    double wrr_credit = 0.0;                         // smooth WRR accumulator
  };

  [[nodiscard]] Access* find(const std::string& name);
  [[nodiscard]] const Access* find(const std::string& name) const;
  /// Usable = not down; healthy accesses shadow degraded ones. Used for the
  /// bulk/background picks, where a degraded access should shed its load.
  [[nodiscard]] std::vector<std::size_t> usable_set() const;
  /// Every access that is not down, shadowing aside — the latency-critical
  /// candidate set, compared by effective_ewma().
  [[nodiscard]] std::vector<std::size_t> not_down_set() const;
  /// EWMA with the degraded handicap applied; infinite for a degraded access
  /// that is failing fetches (or has no measurement to trust).
  [[nodiscard]] Duration effective_ewma(const Access& access) const;
  [[nodiscard]] std::vector<std::pair<std::size_t, double>> weights_over(
      const std::vector<std::size_t>& usable) const;
  void set_health(Access& access, AccessHealth health);
  void fold_rtt(Access& access, Duration rtt);
  void send_probe(std::size_t index);
  void on_probe_reply(std::size_t index, std::uint64_t seq);
  void on_probe_timeout(std::size_t index, std::uint64_t seq);
  [[nodiscard]] std::string pick_bulk(const std::vector<std::size_t>& usable);

  sim::Simulator& sim_;
  MultiAccessConfig config_;
  std::vector<std::unique_ptr<Access>> accesses_;
  std::map<std::uint64_t, HealthFn> subscribers_;
  std::uint64_t next_subscriber_ = 1;
  /// Flipped in the destructor so scheduled probe ticks become no-ops.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace pan::net
