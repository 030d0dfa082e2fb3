// Static file server: the content host of the paper's experiments ("two file
// servers providing static content"). Resources are either explicit text
// (page documents) or generated blobs of a given size; responses can carry
// the Strict-SCION header and take a configurable server think time.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "http/server.hpp"
#include "http/strict_scion.hpp"
#include "sim/simulator.hpp"

namespace pan::http {

/// Injected origin misbehavior, applied per response.
enum class OriginFaultMode : std::uint8_t {
  kNone,
  /// Truncate the response mid-wire and close the stream (a reset while the
  /// body is in flight; clients see a parse error / closed stream).
  kReset,
  /// Accept the request but respond only after a very long stall
  /// (slow-loris); clients must enforce their own deadline.
  kSlowLoris,
  /// Serve normally but with a malformed Strict-SCION header value, which
  /// compliant clients must ignore (no learned strictness).
  kBadStrictScion,
};

class FileServer {
 public:
  explicit FileServer(sim::Simulator& sim);

  /// Explicit body (page documents, manifests).
  void add_text(const std::string& path, std::string body,
                std::string content_type = "text/html");
  /// Deterministically generated blob of `size` bytes.
  void add_blob(const std::string& path, std::size_t size,
                std::string content_type = "application/octet-stream");
  /// HTTP redirect (301/302/307/308) to `location` (absolute or path).
  void add_redirect(const std::string& path, std::string location, int status = 302);
  void remove(const std::string& path);
  [[nodiscard]] bool has(const std::string& path) const { return resources_.contains(path); }

  /// All responses gain "Strict-SCION: max-age=...".
  void enable_strict_scion(Duration max_age);
  /// Adds a fixed header to every response (e.g. "Path-Preference" for
  /// server-side path negotiation).
  void set_extra_header(std::string name, std::string value);
  /// Server think time per request (default 0).
  void set_think_time(Duration d) { think_time_ = d; }

  /// Fault injection: fixed misbehavior mode for every response.
  void set_fault(OriginFaultMode mode) { fault_mode_ = mode; }
  /// Fault injection, pull-based: consulted per request (overrides the fixed
  /// mode when it returns non-kNone). nullptr detaches.
  using FaultHook = std::function<OriginFaultMode()>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }
  /// Stall before responding in kSlowLoris mode (default 120s — far beyond
  /// any sane client deadline).
  void set_slow_loris_delay(Duration d) { slow_loris_delay_ = d; }
  /// Responses deliberately corrupted/stalled by an active fault.
  [[nodiscard]] std::uint64_t faulted_responses() const { return faulted_; }

  /// The handler to plug into LegacyHttpServer / ScionHttpServer (both may
  /// share one FileServer, like a dual-stack host).
  [[nodiscard]] HttpServer::Handler handler();

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  /// 304 Not Modified responses served (If-None-Match matches).
  [[nodiscard]] std::uint64_t revalidations() const { return revalidations_; }

 private:
  struct Resource {
    Bytes body;
    std::string etag;  // quoted etag_of(body), computed when the body is set
    std::string content_type;
    std::string redirect_location;  // non-empty => redirect
    int redirect_status = 0;
  };

  [[nodiscard]] HttpResponse respond_to(const HttpRequest& request);
  [[nodiscard]] OriginFaultMode current_fault();

  sim::Simulator& sim_;
  std::unordered_map<std::string, Resource> resources_;
  std::optional<StrictScionDirective> strict_scion_;
  std::vector<Headers::Field> extra_headers_;
  Duration think_time_ = Duration::zero();
  OriginFaultMode fault_mode_ = OriginFaultMode::kNone;
  FaultHook fault_hook_;
  Duration slow_loris_delay_ = seconds(120);
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t revalidations_ = 0;
  std::uint64_t faulted_ = 0;
};

/// The deterministic filler used for generated blobs (tests verify content
/// integrity end to end with it).
[[nodiscard]] Bytes generate_blob(std::size_t size, std::uint64_t seed_tag);

/// The strong validator the file server uses (first 16 hex chars of the
/// body's SHA-256); the browser cache compares against it.
[[nodiscard]] std::string etag_of(std::span<const std::uint8_t> body);

}  // namespace pan::http
