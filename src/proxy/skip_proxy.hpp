// The SKIP-style local HTTP proxy (Section 5.1 of the paper).
//
// The browser extension forwards every request here. For each request the
// proxy resolves the target domain (legacy A record + SCION detection),
// selects a SCION path subject to the user's policies/geofence, and carries
// the request over QUIC-lite/SCION — falling back to TCP-lite/IPv4-6 when
// the host has no SCION connectivity (opportunistic mode). In strict mode
// the request is only allowed over a policy-compliant SCION path; otherwise
// it is blocked.
//
// Responses are annotated with X-Skip-Transport / X-Skip-Path /
// X-Skip-Compliant headers so the extension can render the UI indicator,
// and Strict-SCION headers feed the availability detector.
//
// Browser <-> proxy IPC costs a configurable per-crossing overhead, modeling
// the localhost proxy hop the paper identifies as the source of its ~100 ms
// page-load overhead.
//
// Observability: every request runs under an obs::RequestTrace with spans
// for the ipc / detect / select / handshake / fetch / fallback phases; the
// finished breakdown rides on the ProxyResult and is flushed into the
// proxy's obs::MetricsRegistry as per-phase latency histograms. Requests
// whose origin-form target starts with "/skip/" address the proxy itself:
// GET /skip/metrics returns the registry as JSON, GET /skip/pool the
// per-origin connection-pool state, GET /skip/health the resilience
// state (circuit breakers, path quarantines, active revocations, fault.*
// counters), and GET /skip/identity the per-identity isolation state
// (assignments, stats, audit trail; /skip/identity/rotate/<id> rotates).
//
// Per-identity isolation: requests carry an X-Skip-Identity header (absent =
// "default"); the proxy keys its connection pools, 0-RTT tickets, learned
// detector cache, and path-usage accounting by (identity, origin), and an
// IdentityPathBroker keeps concurrent identities on disjoint SCION paths.
//
// Resilience layer: every request runs under a deadline budget (threaded
// from the browser or defaulted from request_timeout). A failed SCION fetch
// quarantines the path in the selector and retries over an alternate path
// with exponential backoff + jitter — before any legacy fallback. Strict
// mode degrades to 503 + Retry-After after bounded retries instead of an
// instant 502, and a per-origin circuit breaker short-circuits repeated
// SCION failures to legacy (opportunistic) or fast-fails (strict) until a
// half-open probe succeeds.
//
// Connection management lives in http::OriginPool: one pool of legacy
// (TCP-lite/IP) connections with browser-like per-origin fan-out, and one
// pool of multiplexed QUIC-lite/SCION connections (a single connection per
// origin) whose live path the SCMP handler migrates via the pool.
#pragma once

#include <map>
#include <memory>
#include <unordered_set>

#include "http/endpoints.hpp"
#include "http/file_server.hpp"
#include "http/origin_pool.hpp"
#include "http/url.hpp"
#include "net/multi_access.hpp"
#include "obs/collector.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "proxy/circuit_breaker.hpp"
#include "proxy/control_routes.hpp"
#include "proxy/detector.hpp"
#include "proxy/identity.hpp"
#include "proxy/overload.hpp"
#include "proxy/path_selector.hpp"
#include "proxy/policy_router.hpp"
#include "util/rng.hpp"

namespace pan::proxy {

struct ProxyConfig {
  /// One-way browser<->proxy crossing cost, applied to request and response.
  Duration ipc_overhead = microseconds(400);
  /// Per-request processing in the proxy itself.
  Duration processing_overhead = microseconds(150);
  Duration request_timeout = seconds(15);
  /// Max parallel legacy connections per origin (browser-like).
  std::size_t max_legacy_conns_per_origin = 6;
  /// How long an SCMP-revoked interface stays excluded from selection.
  Duration revocation_ttl = seconds(30);

  // --- resilience layer (retry / quarantine / circuit breaker) ---
  /// Additional SCION attempts (re-select + fetch) after a failed one before
  /// giving up on SCION (0 = a single attempt). The backoff between attempts
  /// is kRetryBackoffBase * kRetryBackoffFactor^(attempt-1) with
  /// deterministic jitter (skip_proxy.cpp).
  std::size_t max_scion_retries = 2;
  /// Per-attempt cap: a SCION attempt still unresolved after this long is
  /// abandoned and treated as a failure (0 = bounded only by the deadline).
  Duration attempt_timeout = seconds(4);
  /// Paths whose fetch failed are quarantined in the selector for this long
  /// (soft exclusion; 0 disables).
  Duration quarantine_ttl = seconds(10);
  /// Per-origin circuit breaker: consecutive SCION failures that open it
  /// (0 disables) and how long it rejects before a half-open probe.
  std::size_t breaker_threshold = 4;
  Duration breaker_open_ttl = seconds(5);

  // --- multi-access (Socket-Intents-style access scheduling) ---
  /// Intent-aware access picks: latency-critical pinned to the fastest
  /// healthy access, bulk striped, background on the spare. false = the
  /// intent-blind ablation: every request stripes like bulk. Set by
  /// bench_ablation_multipath (its intent-blind arm) and multiaccess_test.
  bool intent_aware = true;
  /// Probe/health knobs for the access bundle (used once add_access() turns
  /// multi-access on; single-access proxies never create the bundle).
  net::MultiAccessConfig access;
  /// Per-intent access pins overriding the scheduler, keyed by intent name
  /// ("latency-critical" / "bulk" / "background"). A pinned access that is
  /// down falls back to the scheduler's pick.
  std::map<std::string, std::string> pin_intent_access;

  // --- overload resilience (admission / shedding / adaptive concurrency) ---
  /// Ingress admission control + brownout. The default knobs (rate 0,
  /// in-flight cap 0) admit everything; `enabled = false` additionally
  /// turns off pool deadline shedding and the AIMD controllers, restoring
  /// the static behaviour for ablation runs.
  OverloadConfig overload;
  /// Adaptive per-origin concurrency for the legacy pool (AIMD; max_limit 0
  /// disables and keeps the static max_legacy_conns_per_origin cap).
  AimdConfig legacy_aimd;
  /// Same for the multiplexed SCION pool.
  AimdConfig scion_aimd = {.min_limit = 2, .max_limit = 64};
  /// Shared metrics registry. When null the proxy owns a private one; the
  /// figure benches inject a long-lived registry here so per-phase latency
  /// aggregates across per-trial proxies.
  obs::MetricsRegistry* metrics = nullptr;
  /// Shared trace collector. When null the proxy owns a private one; the
  /// benches and the two-hop scenarios share a collector between the SKIP
  /// proxy and the reverse proxy so a trace's spans assemble in one place.
  obs::TraceCollector* collector = nullptr;
  /// Head-sampling knobs for the owned collector (ignored when `collector`
  /// is injected — the injected collector keeps its own config).
  obs::CollectorConfig collector_config;
  /// Time-series delta snapshots over the registry (lazy sim-clock ticking;
  /// see obs/timeseries.hpp). Queried via GET /skip/metrics?window=...;
  /// interval <= 0 disables the store.
  obs::TimeSeriesConfig timeseries;
  /// Value of the `instance` label stamped on /skip/metrics.prom series
  /// (empty = no label). The cluster sets each replica's name here.
  std::string prom_instance;
  transport::TransportConfig tcp = http::default_tcp_config();
  transport::TransportConfig quic = http::default_quic_config();
};

enum class TransportUsed : std::uint8_t { kScion, kIp, kBlocked, kError, kInternal };

[[nodiscard]] const char* to_string(TransportUsed t);

struct ProxyRequestOptions {
  /// Strict-SCION mode for this request (decided by the extension).
  bool strict = false;
  /// Request-scoped trace carried in from the browser/extension; the proxy
  /// creates one when absent.
  obs::TracePtr trace;
  /// Absolute deadline budget for the whole request (detect + select +
  /// handshake + fetch + retries), threaded down from the browser. Absent:
  /// now + ProxyConfig::request_timeout.
  std::optional<TimePoint> deadline;
};

struct ProxyResult {
  http::HttpResponse response;
  TransportUsed transport = TransportUsed::kError;
  bool policy_compliant = false;
  /// Fingerprint of the SCION path used (empty over IP).
  std::string path_fingerprint;
  /// True when SCION was attempted and the request fell back to IP.
  bool fell_back = false;
  /// SCION attempts (selection + fetch cycles) this request made; > 1 means
  /// the resilience layer retried over alternate paths.
  std::uint32_t scion_attempts = 0;
  /// Per-phase span breakdown of this request (ipc / detect / select /
  /// handshake / fetch / fallback), in completion order.
  std::vector<obs::SpanRecord> spans;
  std::uint64_t trace_id = 0;
  /// Terminal outcome (ok / timeout / shed / breaker-open / fault / blocked),
  /// as recorded on the trace.
  std::string outcome;
  /// Network identity the request ran under (X-Skip-Identity; "default"
  /// when the header was absent).
  std::string identity;
  /// Access attachment that carried the final attempt (empty on a
  /// single-access proxy).
  std::string access;

  /// Sum of the finished spans named `phase` (zero when absent).
  [[nodiscard]] Duration phase_total(std::string_view phase) const;
};

class SkipProxy {
 public:
  SkipProxy(sim::Simulator& sim, net::Host& host, scion::ScionStack& stack,
            scion::Daemon& daemon, dns::Resolver& resolver, ProxyConfig config = {});
  ~SkipProxy();

  SkipProxy(const SkipProxy&) = delete;
  SkipProxy& operator=(const SkipProxy&) = delete;

  using FetchFn = std::function<void(ProxyResult)>;
  /// The extension-facing API: request.target may be in absolute form
  /// ("http://host/path") or origin form plus a Host header. Origin-form
  /// targets under /skip/ are the proxy's own control endpoints.
  void fetch(http::HttpRequest request, ProxyRequestOptions options, FetchFn on_result);

  /// Creates a request trace bound to this proxy's id space; callers up the
  /// stack (browser/extension) open it before handing the request over.
  [[nodiscard]] obs::TracePtr make_trace();

  /// Extension-facing configuration API (the "specific API calls to the
  /// HTTP proxy to apply path policies chosen by users").
  void set_policies(ppl::PolicySet policies) {
    policy_router_.set_default(policies);
    selector_.set_policies(std::move(policies));
  }
  void set_geofence(std::optional<ppl::Geofence> geofence) {
    selector_.set_geofence(std::move(geofence));
  }
  /// Per-destination policies ("geofence my bank, green-route video"): rules
  /// take precedence over the default set for matching hosts.
  [[nodiscard]] PolicyRouter& policy_router() { return policy_router_; }

  /// Per-identity isolation state (the circuit-style path broker).
  [[nodiscard]] IdentityPathBroker& identities() { return identities_; }
  /// rotate_paths() for one identity: quarantines its current path
  /// assignments, retires its pooled SCION connections and 0-RTT tickets,
  /// and lets the next request re-broker onto fresh, still-disjoint paths.
  /// Other identities' assignments are untouched. Also reachable as
  /// `GET /skip/identity/rotate/<id>`.
  void rotate_identity(const std::string& id);
  /// Per-identity PPL policy set, consulted when no per-site router rule
  /// matches (rules > identity policies > the selector default).
  void set_identity_policies(const std::string& id, ppl::PolicySet policies) {
    identities_.identity(sanitize_identity(id)).set_policies(std::move(policies));
  }

  /// Registers an additional access attachment (e.g. "lte"): another host
  /// with its own access link, SCION stack, and daemon rooted in a different
  /// first-hop AS. The first call turns on multi-access scheduling — the
  /// constructor attachment becomes access "primary" — and starts the
  /// health-probe loops. All three references must outlive the proxy.
  void add_access(const std::string& name, net::Host& host, scion::ScionStack& stack,
                  scion::Daemon& daemon);
  /// The access bundle, or null while the proxy is single-access.
  [[nodiscard]] net::MultiAccessHost* multi_access() { return multi_access_.get(); }

  [[nodiscard]] ScionDetector& detector() { return detector_; }
  [[nodiscard]] PathSelector& selector() { return selector_; }
  [[nodiscard]] CircuitBreaker& breaker() { return breaker_; }
  /// The retry-jitter stream. Effectively seeded by kRetryJitterSeed XOR a
  /// per-instance salt so fleet replicas sharing a config (and the default
  /// seed) do not retry in lockstep; exposed for the divergence regression.
  [[nodiscard]] Rng& retry_rng() { return retry_rng_; }
  [[nodiscard]] OverloadController& overload() { return overload_; }
  [[nodiscard]] obs::TraceCollector& collector() { return *collector_; }
  [[nodiscard]] obs::SloMonitor& slo() { return slo_; }
  [[nodiscard]] obs::TimeSeriesStore& timeseries() { return timeseries_; }
  [[nodiscard]] obs::MetricsRegistry& metrics() { return *metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const { return *metrics_; }
  [[nodiscard]] const ProxyConfig& config() const { return config_; }
  /// Negotiated per-origin server path preferences (from Path-Preference
  /// response headers).
  [[nodiscard]] const std::unordered_map<std::string, std::vector<ppl::OrderKey>>&
  origin_preferences() const {
    return origin_preferences_;
  }

  /// Pooled-origin introspection for tests and the metrics endpoint.
  struct PooledScionOrigin {
    std::string key;
    std::string host;
    std::uint16_t port = 80;
    std::string path_fingerprint;
  };
  [[nodiscard]] std::vector<PooledScionOrigin> scion_pool_snapshot();
  /// The underlying pools (tests and the /skip/pool endpoint).
  [[nodiscard]] http::OriginPool& legacy_pool() { return legacy_pool_; }
  [[nodiscard]] http::OriginPool& scion_pool() { return scion_pool_; }

 private:
  /// Per-request state threaded through the async pipeline.
  struct RequestState {
    FetchFn on_result;
    bool done = false;
    obs::TracePtr trace;
    /// Absolute budget: the request finishes (one way or another) by then.
    TimePoint deadline;
    bool strict = false;
    /// Priority class (admission ladder + pool queue ordering).
    RequestPriority priority = RequestPriority::kSubresource;
    /// Network identity (X-Skip-Identity, sanitized) keying the pools, the
    /// learned detector cache, and the path broker for this request.
    std::string identity = std::string(kDefaultIdentity);
    /// Socket intent (priority-derived, X-Skip-Intent override) driving the
    /// access pick, and the access carrying the current attempt ("" on a
    /// single-access proxy).
    net::FetchIntent intent = net::FetchIntent::kBulk;
    std::string access;
    /// Counted in-flight by the overload controller until finish().
    bool admitted = false;
    /// SCION attempts started (selection + fetch cycles).
    std::uint32_t attempts = 0;
    /// Bumped whenever a new attempt starts or an old one is abandoned, so
    /// callbacks from stale attempts can detect they lost the race.
    std::uint64_t epoch = 0;
  };
  using RequestPtr = std::shared_ptr<RequestState>;

  /// Everything needed to re-run selection + fetch on retry.
  struct ScionContext {
    http::Url url;
    http::HttpRequest request;  // pre-origin-form; copied per attempt
    scion::ScionAddr addr;
    std::optional<net::IpAddr> fallback_ip;
  };
  using ScionContextPtr = std::shared_ptr<ScionContext>;

  void process(http::HttpRequest request, ProxyRequestOptions options, RequestPtr req);
  /// Serves the proxy's own /skip/* control endpoints from one route table.
  void serve_internal(const http::HttpRequest& request, const RequestPtr& req);
  http::HttpResponse serve_ping(const ControlRequest& control);
  http::HttpResponse serve_metrics(const ControlRequest& control);
  http::HttpResponse serve_metrics_prom(const ControlRequest& control);
  http::HttpResponse serve_pool(const ControlRequest& control);
  http::HttpResponse serve_health(const ControlRequest& control);
  http::HttpResponse serve_traces(const ControlRequest& control);
  http::HttpResponse serve_trace(const ControlRequest& control);
  http::HttpResponse serve_access(const ControlRequest& control);
  http::HttpResponse serve_identity(const ControlRequest& control);
  http::HttpResponse serve_identity_rotate(const ControlRequest& control);
  http::HttpResponse serve_debug(const ControlRequest& control);
  void finish(const RequestPtr& req, ProxyResult result);
  /// One SCION attempt: path selection then fetch. Called for the first
  /// attempt and again on every retry.
  void start_scion_attempt(const ScionContextPtr& ctx, const RequestPtr& req);
  /// `excluded` flags a selection that fell back to a path the identity
  /// broker excluded (path set too small): the commit records a collision.
  void fetch_over_scion(const ScionContextPtr& ctx, const scion::Path& path,
                        bool compliant, bool excluded, const RequestPtr& req);
  /// A SCION attempt failed: quarantine the path, feed the breaker, then
  /// retry / fall back / degrade per mode and remaining budget.
  void handle_scion_failure(const ScionContextPtr& ctx, const RequestPtr& req,
                            const scion::Path& path, const std::string& error);
  /// Schedules the next attempt after backoff when attempt and deadline
  /// budgets allow; false means the caller must terminate the request.
  bool schedule_scion_retry(const ScionContextPtr& ctx, const RequestPtr& req);
  /// Strict-mode graceful degradation: 503 + Retry-After (never a hang).
  void fail_strict_unavailable(const RequestPtr& req, const std::string& host,
                               const std::string& why);
  /// Deadline slack an attempt must leave unspent: room for the legacy
  /// fallback in opportunistic mode, or (strict) for the 503 to beat the
  /// 504 deadline timer.
  [[nodiscard]] Duration deadline_margin(const ScionContext& ctx,
                                         const RequestState& req) const;
  [[nodiscard]] Duration retry_backoff(std::uint32_t attempt);
  void fetch_over_ip(const http::Url& url, http::HttpRequest request, net::IpAddr ip,
                     bool fell_back, RequestPtr req);
  /// Pool submit options carrying the request's priority and deadline
  /// (priority flattens to FIFO when the overload layer is ablated).
  [[nodiscard]] http::SubmitOptions submit_options(const RequestState& req) const;
  [[nodiscard]] static http::OriginPoolConfig legacy_pool_config(
      const ProxyConfig& config, http::ConcurrencyLimiter* limiter);
  [[nodiscard]] static http::OriginPoolConfig scion_pool_config(
      const ProxyConfig& config, http::ConcurrencyLimiter* limiter);
  [[nodiscard]] static http::HttpRequest to_origin_form(const http::Url& url,
                                                        http::HttpRequest request);
  /// SCMP handler: revokes the reported interface and migrates affected
  /// pooled connections onto fresh paths.
  void on_scmp(const scion::ScmpMessage& message);

  // --- multi-access plumbing (no-ops while multi_access_ is null) ---
  /// Access pick for the request's (effective) intent: pins first, then the
  /// scheduler, soft-avoiding the access the previous attempt rode.
  [[nodiscard]] std::string pick_access(const RequestState& req);
  /// Stack / host serving an access ("" or "primary" = the ctor's).
  [[nodiscard]] scion::ScionStack& stack_for(const std::string& access);
  [[nodiscard]] net::Host& host_for(const std::string& access);
  /// Pool-key authority scoped by access ("host:port#access") so two
  /// accesses to one origin never share a pooled connection. The suffix
  /// rides the authority, not the identity, keeping identity_of_key() exact.
  [[nodiscard]] static std::string access_authority(const std::string& authority,
                                                    const std::string& access);
  /// Health-transition hook: on kDown, retires the access's pooled
  /// connections and re-runs in-flight SCION attempts on a survivor.
  void on_access_health(const std::string& name, net::AccessHealth previous,
                        net::AccessHealth current);
  /// Terminal answer when every access is down (strict and opportunistic
  /// alike fail closed: there is no link left to carry any fallback).
  void fail_no_access(const RequestPtr& req, const std::string& host);

  sim::Simulator& sim_;
  net::Host& host_;
  scion::ScionStack& stack_;
  dns::Resolver& resolver_;
  ProxyConfig config_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;  // set before detector_/selector_
  std::unique_ptr<obs::TraceCollector> owned_collector_;
  obs::TraceCollector* collector_ = nullptr;
  obs::SloMonitor slo_;
  obs::TimeSeriesStore timeseries_;  // over *metrics_; must follow it
  ScionDetector detector_;
  PathSelector selector_;
  CircuitBreaker breaker_;
  PolicyRouter policy_router_;
  IdentityPathBroker identities_;
  Rng retry_rng_;
  // Overload layer: constructed before the pools, which hold limiter
  // pointers into the AIMD controllers.
  OverloadController overload_;
  AimdController legacy_limiter_;
  AimdController scion_limiter_;
  http::OriginPool legacy_pool_;
  http::OriginPool scion_pool_;
  std::unordered_map<std::string, std::vector<ppl::OrderKey>> origin_preferences_;
  /// Origins we have completed a SCION exchange with (0-RTT tickets).
  std::unordered_set<std::string> resumption_tickets_;
  /// Multi-access state: the bundle (null = single-access), per-access SCION
  /// stacks, extra SCMP subscriptions, and the registry of in-flight SCION
  /// attempts that an access-down transition must fail over.
  std::unique_ptr<net::MultiAccessHost> multi_access_;
  std::unordered_map<std::string, scion::ScionStack*> access_stacks_;
  std::vector<std::pair<scion::ScionStack*, std::uint64_t>> access_scmp_subscriptions_;
  std::uint64_t access_health_subscription_ = 0;
  std::unordered_map<RequestState*, std::pair<ScionContextPtr, RequestPtr>> inflight_scion_;
  std::uint64_t scmp_subscription_ = 0;
  std::uint64_t trace_id_base_ = 0;  ///< Unique in the world, set lazily.
  std::uint64_t next_trace_id_ = 1;
};

}  // namespace pan::proxy
