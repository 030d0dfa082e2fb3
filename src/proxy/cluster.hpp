// ProxyCluster: a sharded SKIP proxy fleet (ROADMAP item 1).
//
// N SkipProxy replicas behind a consistent-hash-by-origin front. The paper's
// deployment model — one local proxy per browser — caps at a single user;
// this front scales the same pipeline horizontally while keeping the SKIP
// layer's degradation story intact:
//
//   * Routing: each origin hashes onto a vnode ring (kVnodesPerReplica
//     points per replica), so adding or losing a replica remaps only the
//     origins it owned. Requests for /skip/* control endpoints go to the
//     first live replica; GET /skip/fleet is answered by the cluster itself.
//
//   * Health: a per-replica state machine (healthy -> degraded -> draining
//     -> down) driven by active /skip/ping probes (probe_interval apart,
//     probe_timeout budget) plus a passive error/timeout EWMA over the
//     replica's answers. Crashes (the replica-crash fault verb) drop a
//     replica straight to down.
//
//   * Failover: an in-flight request unanswered after kFailoverTimeout is
//     hedged onto the next live replica on the ring, within the request's
//     original deadline budget — never past it. When the budget (or the
//     replica set) is exhausted the request sheds with 503 + Retry-After.
//     Strict-mode origins fail closed exactly like the single-proxy
//     pipeline: the cluster never downgrades a Strict-SCION pin to IP.
//
//   * Shared detection cache: every replica's ScionDetector learn() is
//     broadcast (hook-free apply_learned) to its peers, withdrawals
//     included, so one replica learning a Strict-SCION origin teaches the
//     fleet — and a successor replica inherits learned origins instead of
//     re-probing them.
//
//   * Warm handoff: the prober snapshots each replica's warm state (learned
//     detector cache, circuit-breaker entries, path quarantines) on every
//     successful probe. replica-restart revives a replica from the freshest
//     of a live peer's cache and that snapshot (warm_handoff=true), or
//     completely cold (false) for ablation.
//
//   * Draining: drain_replica() stops routing *new* origins to a replica;
//     origins it already owns keep flowing for kDrainGrace, then ownership
//     is handed off and its pooled SCION connections are retired.
//
// Every transition lands in the fleet registry's FlightRecorder ring and
// the fleet.* counters; GET /skip/fleet dumps replica health, ring and
// ownership state, and the counters as JSON.
//
// The cluster deliberately does not depend on src/fault: scenario worlds
// translate the replica-crash / replica-hang / replica-restart fault verbs
// into the crash/hang/restart calls below (see browser::FleetSession).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dns/dns.hpp"
#include "proxy/fleet_metrics.hpp"
#include "proxy/skip_proxy.hpp"

namespace pan::proxy {

enum class ReplicaHealth : std::uint8_t { kHealthy, kDegraded, kDraining, kDown };

[[nodiscard]] const char* to_string(ReplicaHealth health);

struct ClusterConfig {
  std::size_t replicas = 4;
  /// Replica names are "<prefix><index>" ("rep-0", ...). Tests inject
  /// hostile prefixes to exercise /skip/fleet JSON quoting.
  std::string replica_name_prefix = "rep-";

  // --- active health probes ---
  Duration probe_interval = milliseconds(250);
  Duration probe_timeout = milliseconds(200);

  /// Restore learned/breaker/quarantine state on replica-restart; false =
  /// cold restart. Set by bench_fleet_scale (its cold-recovery arm) and
  /// fleet_test's cold-restart case.
  bool warm_handoff = true;

  /// Per-replica SkipProxy configuration (metrics/collector semantics as in
  /// ProxyConfig: null = each replica owns a private registry).
  ProxyConfig proxy;
  /// Per-replica resolver configuration. Each replica owns its resolver —
  /// a restarted replica loses its DNS cache like a real process would.
  dns::ResolverConfig resolver;
  /// Called for every resolver the cluster creates (construction and every
  /// replica revival). Scenario worlds hook the fault injector's DNS
  /// brownout table in here without the proxy layer depending on src/fault.
  std::function<void(dns::Resolver&)> on_resolver_created;
  /// Fleet-level registry for fleet.* counters, health gauges, and the
  /// FlightRecorder ring (null = the cluster owns a private one).
  obs::MetricsRegistry* metrics = nullptr;
  /// Time-series deltas over the fleet registry (fleet.* counters), ticked
  /// by the probe heartbeat and queried via /skip/fleet/metrics?window=.
  obs::TimeSeriesConfig timeseries;
};

/// Fleet counters, read back from the registry for ergonomic assertions.
struct FleetStats {
  std::uint64_t requests = 0;
  std::uint64_t internal = 0;
  std::uint64_t failovers = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t shed = 0;
  std::uint64_t no_replica = 0;
  std::uint64_t crashes = 0;
  std::uint64_t restarts_warm = 0;
  std::uint64_t restarts_cold = 0;
  std::uint64_t probes = 0;
  std::uint64_t probe_misses = 0;
  std::uint64_t cache_broadcasts = 0;
  std::uint64_t cache_invalidations = 0;
  std::uint64_t drains = 0;
};

class ProxyCluster {
 public:
  /// How long an attempt may go unanswered before hedging to the next
  /// replica (clamped so the last check still beats the deadline).
  static constexpr Duration kFailoverTimeout = milliseconds(400);
  /// How long a draining replica keeps serving the origins it owns before
  /// ownership is handed off and its pooled connections are retired.
  static constexpr Duration kDrainGrace = milliseconds(500);

  ProxyCluster(sim::Simulator& sim, net::Host& host, scion::ScionStack& stack,
               scion::Daemon& daemon, const dns::Zone& zone, ClusterConfig config = {});
  ~ProxyCluster();

  ProxyCluster(const ProxyCluster&) = delete;
  ProxyCluster& operator=(const ProxyCluster&) = delete;

  /// Same shape as SkipProxy::fetch so browsers / load generators can drive
  /// either. Routes by origin, fails over, and never outlives the deadline.
  void fetch(http::HttpRequest request, ProxyRequestOptions options,
             SkipProxy::FetchFn on_result);

  // --- chaos surface (wired to the replica-* fault verbs by the world) ---
  /// Kills the replica process: its state is lost, in-flight requests fail
  /// over immediately, and the ring routes around it.
  void crash_replica(const std::string& name);
  /// Revives a crashed replica (the revert of replica-crash): a fresh
  /// process, warm or cold per ClusterConfig::warm_handoff.
  void revive_replica(const std::string& name);
  /// Wedges (true) / unwedges (false) a replica: it keeps accepting work
  /// but none of its answers ever arrive. Probes miss; failover rescues.
  void set_replica_hung(const std::string& name, bool hung);
  /// One-shot bounce: crash + revive at once (the replica-restart verb).
  void restart_replica(const std::string& name);
  /// Starts draining: no new origins; owned origins hand off after
  /// kDrainGrace and pooled SCION connections are retired.
  void drain_replica(const std::string& name);
  /// Returns a draining (not crashed) replica to service.
  void undrain_replica(const std::string& name);

  // --- introspection ---
  [[nodiscard]] std::size_t replica_count() const { return replicas_.size(); }
  [[nodiscard]] std::vector<std::string> replica_names() const;
  [[nodiscard]] ReplicaHealth replica_health(const std::string& name) const;
  /// The live SkipProxy behind `name` (nullptr when crashed or unknown).
  [[nodiscard]] SkipProxy* replica(const std::string& name);
  /// The replica `origin_key` ("host" or "host:port") currently routes to
  /// (empty when no replica accepts it). Does not change ownership.
  [[nodiscard]] std::string owner_of(const std::string& origin_key);
  /// The GET /skip/fleet payload.
  [[nodiscard]] std::string fleet_json();
  [[nodiscard]] FleetStats stats() const;
  [[nodiscard]] obs::MetricsRegistry& metrics() { return *metrics_; }
  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  /// The merged fleet metrics plane. Snapshots ship on the probe channel;
  /// refresh_fleet_metrics() additionally pulls every live replica now
  /// (what a GET /skip/fleet/metrics scrape does before answering).
  [[nodiscard]] FleetMetricsAggregator& fleet_metrics() { return aggregator_; }
  void refresh_fleet_metrics();
  /// Time-series store over the fleet registry's counters.
  [[nodiscard]] obs::TimeSeriesStore& timeseries() { return fleet_series_; }

 private:
  struct WarmState {
    std::vector<ScionDetector::ExportedEntry> learned;
    std::vector<CircuitBreaker::ExportedEntry> breakers;
    std::vector<std::pair<std::string, TimePoint>> quarantines;
    bool taken = false;
    TimePoint taken_at;
  };

  struct Replica {
    std::string name;
    std::unique_ptr<dns::Resolver> resolver;
    std::unique_ptr<SkipProxy> proxy;
    ReplicaHealth health = ReplicaHealth::kHealthy;
    bool crashed = false;
    bool hung = false;
    bool draining = false;
    /// Bumped on crash and restart; answers from an older generation are
    /// from a process that no longer exists and are dropped.
    std::uint64_t generation = 0;
    std::size_t probe_misses = 0;
    double error_ewma = 0.0;
    /// Last warm snapshot the prober shipped off-box.
    WarmState snapshot;
    std::uint64_t dispatched = 0;
    std::uint64_t answered = 0;
  };

  struct PendingRequest {
    std::uint64_t id = 0;
    http::HttpRequest request;  ///< original, re-submitted on failover
    ProxyRequestOptions options;
    SkipProxy::FetchFn on_result;
    TimePoint deadline;
    std::string origin_key;
    std::size_t replica_index = 0;
    std::uint64_t replica_generation = 0;
    std::size_t failovers = 0;
    /// Attempt sequence; stale failover timers check it and stand down.
    std::uint64_t attempt = 0;
    std::vector<std::size_t> tried;
    bool done = false;
  };
  using PendingPtr = std::shared_ptr<PendingRequest>;

  /// True when `rep` may take a *new* request for `origin_key`.
  [[nodiscard]] bool accepts(const Replica& rep, const std::string& origin_key) const;
  /// Ring walk from hash(origin_key); skips `tried` indices. -1 = nobody.
  [[nodiscard]] int route(const std::string& origin_key,
                          const std::vector<std::size_t>& tried) const;
  [[nodiscard]] std::string origin_key_of(const http::HttpRequest& request) const;

  void dispatch(const PendingPtr& pending, std::size_t replica_index);
  void arm_failover_timer(const PendingPtr& pending);
  /// A failover check fired (or a crash forced one): hedge or shed.
  void on_unanswered(const PendingPtr& pending, const char* reason);
  void shed(const PendingPtr& pending, const std::string& why);
  void deliver(const PendingPtr& pending, ProxyResult result);

  /// Serves the cluster's own /skip/fleet* endpoints from one route table.
  void serve_fleet(const http::HttpRequest& request, const SkipProxy::FetchFn& on_result);
  http::HttpResponse serve_fleet_state(const ControlRequest& control);
  http::HttpResponse serve_fleet_metrics(const ControlRequest& control);
  http::HttpResponse serve_fleet_prom(const ControlRequest& control);
  /// Forwards a non-fleet /skip/* control request to the first live replica.
  void forward_internal(http::HttpRequest request, ProxyRequestOptions options,
                        SkipProxy::FetchFn on_result);

  void build_replica(std::size_t index);
  void install_learn_hook(std::size_t index);
  void broadcast_learn(std::size_t from, const std::string& domain,
                       const scion::ScionAddr& addr, Duration max_age,
                       const std::string& identity);
  void restore_warm(Replica& rep);
  void complete_drain(std::size_t index, std::uint64_t generation);

  void probe_all();
  void probe(std::size_t index);
  void record_answer(std::size_t index, bool error);
  void set_health(Replica& rep, ReplicaHealth health, const std::string& why);
  void update_health_gauges();
  void count(const std::string& name);
  void event(std::string_view kind, std::string detail);

  [[nodiscard]] Replica* find(const std::string& name);

  sim::Simulator& sim_;
  net::Host& host_;
  scion::ScionStack& stack_;
  scion::Daemon& daemon_;
  const dns::Zone& zone_;
  ClusterConfig config_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  FleetMetricsAggregator aggregator_;
  obs::TimeSeriesStore fleet_series_;  // over *metrics_; must follow it

  std::vector<Replica> replicas_;
  /// Crashed replicas' proxies and resolvers are parked here, never
  /// destroyed mid-run: scheduled sim events hold raw pointers into them.
  std::vector<std::unique_ptr<SkipProxy>> proxy_graveyard_;
  std::vector<std::unique_ptr<dns::Resolver>> resolver_graveyard_;

  /// (hash, replica index), sorted by hash.
  std::vector<std::pair<std::uint64_t, std::size_t>> ring_;
  /// origin_key -> replica index of the last dispatch (handoff accounting
  /// and drain stickiness). std::map for deterministic /skip/fleet dumps.
  std::map<std::string, std::size_t> owners_;

  std::map<std::uint64_t, PendingPtr> pending_;
  std::uint64_t next_request_id_ = 1;

  /// Flipped in the destructor; scheduled timers and wrapped callbacks
  /// check it and become no-ops.
  std::shared_ptr<bool> alive_;
};

}  // namespace pan::proxy
