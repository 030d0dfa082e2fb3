// The browser model.
//
// Loads pages the way the paper's PLT experiments exercise the stack: fetch
// the main document, parse it, fetch every sub-resource with browser-like
// concurrency, and report the page load time (navigation start -> last
// resource finished) plus per-resource outcomes and the SCION UI indicator.
//
// With the extension attached, every request is intercepted and forwarded to
// the SKIP proxy (tagged strict when the extension says so). With the
// extension detached ("BGP/IP-Only" in Figure 3), the browser speaks plain
// HTTP over TCP-lite/IP using its own DNS resolver and connection pool.
#pragma once

#include <deque>
#include <list>
#include <memory>

#include "core/extension.hpp"
#include "core/page.hpp"
#include "dns/dns.hpp"
#include "http/origin_pool.hpp"

namespace pan::browser {

inline constexpr int kMaxRedirects = 5;

struct BrowserConfig {
  /// HTTP cache with ETag revalidation (If-None-Match / 304). Off by
  /// default so cold-load experiments stay cold. Set by
  /// bench_ablation_cache (its cached arm), core_test, identity_test and
  /// origin_pool_test.
  bool enable_cache = false;
  /// Max sub-resource fetches in flight at once.
  std::size_t max_concurrent_fetches = 6;
  /// Direct mode: max parallel legacy connections per origin.
  std::size_t max_conns_per_origin = 6;
  /// Cache entry cap; the least-recently-used entry is evicted beyond it
  /// (`browser.cache.evictions` counts them).
  std::size_t cache_max_entries = 512;
  /// Shared metrics registry for the browser's own instruments
  /// (`browser.cache.*`, `pool.browser.direct.*`). When null the browser
  /// owns a private one.
  obs::MetricsRegistry* metrics = nullptr;
  Duration page_timeout = seconds(30);
  /// Per-resource deadline handed to the SKIP proxy as the budget for all
  /// retries and fallbacks on that request. Zero keeps the proxy's own
  /// default request timeout.
  Duration request_deadline = Duration::zero();
  /// Network identity (tab/profile container) this browser fetches under.
  /// Non-empty: requests carry X-Skip-Identity toward the proxy, and the
  /// browser's own HTTP cache and direct-mode connection pool are
  /// partitioned under the identity so nothing is shared with browsers of
  /// other identities. Empty = the shared default identity.
  std::string identity;
};

struct ResourceOutcome {
  std::string url;
  bool ok = false;
  bool blocked = false;  // strict-mode block
  int status = 0;
  /// Redirects followed for this resource (capped at kMaxRedirects).
  int redirects = 0;
  /// Body came from the browser cache (304 revalidation).
  bool from_cache = false;
  proxy::TransportUsed transport = proxy::TransportUsed::kError;
  bool policy_compliant = false;
  std::string path_fingerprint;
  std::size_t bytes = 0;
  Duration elapsed = Duration::zero();
  /// Per-phase span breakdown from the proxy (empty in direct mode).
  std::vector<obs::SpanRecord> spans;
};

struct PageLoadResult {
  std::string url;
  bool ok = false;          // main document loaded and no resource errored
  bool complete = false;    // additionally, nothing was blocked
  Duration plt = Duration::zero();
  std::vector<ResourceOutcome> resources;  // [0] is the main document
  IndicatorState indicator = IndicatorState::kNoScion;
  bool fully_policy_compliant = false;
  std::size_t over_scion = 0;
  std::size_t over_ip = 0;
  std::size_t blocked = 0;
  std::size_t failed = 0;
};

class Browser {
 public:
  /// Extension-enabled browser: all traffic goes through extension + proxy.
  Browser(sim::Simulator& sim, BrowserExtension& extension, BrowserConfig config = {});
  /// Extension-disabled browser (the BGP/IP-only baseline): direct HTTP/IP.
  Browser(sim::Simulator& sim, net::Host& host, dns::Resolver& resolver,
          BrowserConfig config = {});
  ~Browser();

  Browser(const Browser&) = delete;
  Browser& operator=(const Browser&) = delete;

  using LoadFn = std::function<void(PageLoadResult)>;
  /// Navigates to `url`; the callback fires when the page settles (all
  /// resources done, blocked, or failed) or the page timeout hits.
  void load_page(const std::string& url, LoadFn on_loaded);

  [[nodiscard]] bool extension_enabled() const { return extension_ != nullptr; }

  /// The network identity this browser fetches under ("" = default).
  [[nodiscard]] const std::string& identity() const { return config_.identity; }
  void set_identity(std::string identity) { config_.identity = std::move(identity); }

  [[nodiscard]] obs::MetricsRegistry& metrics() { return *metrics_; }
  /// Direct-mode connection pool (introspection for tests).
  [[nodiscard]] http::OriginPool& direct_pool() { return direct_pool_; }
  [[nodiscard]] std::size_t cache_size() const { return cache_.size(); }

 private:
  struct PageLoad;

  void fetch_resource(const std::shared_ptr<PageLoad>& page, std::size_t index);
  void fetch_via_extension(const std::shared_ptr<PageLoad>& page, std::size_t index,
                           const http::Url& url);
  void fetch_direct(const std::shared_ptr<PageLoad>& page, std::size_t index,
                    const http::Url& url);
  void on_main_document(const std::shared_ptr<PageLoad>& page);
  /// Follows a 3xx response; returns true if a refetch was dispatched.
  bool maybe_follow_redirect(const std::shared_ptr<PageLoad>& page, std::size_t index,
                             const http::Url& current_url, int status,
                             const std::optional<std::string>& location);
  void resource_done(const std::shared_ptr<PageLoad>& page, std::size_t index);
  void pump_queue(const std::shared_ptr<PageLoad>& page);
  void settle(const std::shared_ptr<PageLoad>& page);
  [[nodiscard]] static http::OriginPoolConfig direct_pool_config(const BrowserConfig& config);

  struct CacheEntry {
    std::string etag;
    Bytes body;
    /// Position in cache_lru_ (front = most recently used).
    std::list<std::string>::iterator lru_it;
  };
  /// Applies cache semantics to a completed response: resolves 304s from
  /// the cache (returns the effective body) and stores fresh 200s. The
  /// cache is LRU-bounded at config_.cache_max_entries.
  [[nodiscard]] const Bytes* apply_cache(const std::string& url_text, int status,
                                         const http::HttpResponse& response,
                                         bool* from_cache);
  /// Identity-partitioned cache key: bare URL for the default identity,
  /// "<identity>|<url>" otherwise — one identity's cached bodies (and ETag
  /// revalidations) are invisible to every other identity.
  [[nodiscard]] std::string cache_key(const std::string& url_text) const;
  void add_conditional_headers(const std::string& url_text, http::HttpRequest& request) const;
  void cache_store(const std::string& url_text, std::string etag, Bytes body);
  void cache_touch(CacheEntry& entry);

  sim::Simulator& sim_;
  BrowserConfig config_;
  BrowserExtension* extension_ = nullptr;  // null in direct mode
  net::Host* host_ = nullptr;              // direct mode
  dns::Resolver* resolver_ = nullptr;      // direct mode
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;  // set before direct_pool_
  http::OriginPool direct_pool_;
  std::unordered_map<std::string, CacheEntry> cache_;
  std::list<std::string> cache_lru_;  // front = most recently used
};

}  // namespace pan::browser
