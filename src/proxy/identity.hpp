// Per-identity network isolation — the path-aware analogue of per-tab Tor
// circuit isolation (the "tango" payoff: network choices that reflect which
// tab is asking).
//
// Each browser tab/profile carries a NetworkIdentity: its own optional PPL
// policy set, its own slice of every identity-keyed cache (connection pools,
// learned SCION availability, the browser HTTP cache, path usage
// accounting), and a circuit-style disjoint path assignment brokered by
// IdentityPathBroker: for each (identity, origin) pair the broker hands out
// a path whose fingerprint is not live for any *other* identity toward that
// origin, so two tabs to the same site are never linkable by a shared path
// or pooled connection. When the path set is too small to keep identities
// apart the broker falls back to a shared path and records it in the
// `identity.path_collisions` counter (isolation degraded, never a hang).
//
// rotate_paths() semantics: rotation quarantines the identity's current
// fingerprints (per identity, with a TTL), releases its claims, and lets the
// next request re-broker onto fresh paths; the proxy retires the identity's
// pooled connections so no old-path connection survives the rotation.
//
// Every identity keeps a bounded audit trail (created / assign / collision /
// rotate events) plus request/byte counters, surfaced by the proxy at
// `GET /skip/identity`.
//
// The identity rides the extension->proxy hop in the X-Skip-Identity header;
// absent or empty means the shared "default" identity, whose keys collapse
// to the bare origin so single-identity deployments keep their metric and
// endpoint naming.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "http/message.hpp"
#include "obs/metrics.hpp"
#include "ppl/ast.hpp"
#include "scion/path.hpp"
#include "sim/simulator.hpp"

namespace pan::proxy {

/// Request header carrying the network identity id (tab/profile) from the
/// browser extension into the proxy. Absent = kDefaultIdentity.
inline constexpr std::string_view kIdentityHeader = "X-Skip-Identity";
inline constexpr std::string_view kDefaultIdentity = "default";

/// Restricts an identity id to [A-Za-z0-9._-] (other bytes become '-') and
/// 64 chars, so ids compose into pool/cache keys unambiguously ('|' is the
/// scope separator and can never appear in a sanitized id). Empty -> default.
[[nodiscard]] std::string sanitize_identity(std::string_view raw);

/// Identity of `request` per its X-Skip-Identity header (sanitized).
[[nodiscard]] std::string identity_of(const http::HttpRequest& request);

/// Scopes an origin/domain key to an identity: "<identity>|<origin>". The
/// default identity (or empty) keeps the bare key, so existing
/// single-identity pool snapshots and metrics keep their names.
[[nodiscard]] std::string identity_key(std::string_view identity, const std::string& origin);

/// Inverse of identity_key on the identity side ("default" for bare keys).
[[nodiscard]] std::string identity_of_key(const std::string& key);

/// One entry of the bounded per-identity audit trail.
struct IdentityAuditEvent {
  TimePoint at;
  std::string event;   // created / assign / collision / rotate
  std::string origin;  // empty for identity-wide events
  std::string detail;  // fingerprint or free-form context
};

struct IdentityStats {
  std::uint64_t requests = 0;
  std::uint64_t bytes = 0;
  std::uint64_t over_scion = 0;
  std::uint64_t over_ip = 0;
  /// Disjoint assignment was impossible (path set too small) and the broker
  /// fell back to a fingerprint live for another identity or quarantined by
  /// this identity's own rotation.
  std::uint64_t path_collisions = 0;
  std::uint64_t rotations = 0;
};

class NetworkIdentity {
 public:
  NetworkIdentity(std::string id, TimePoint created_at);

  [[nodiscard]] const std::string& id() const { return id_; }
  [[nodiscard]] TimePoint created_at() const { return created_at_; }
  [[nodiscard]] const IdentityStats& stats() const { return stats_; }

  /// Per-identity PPL policy set, applied by the proxy when no per-site
  /// policy rule outranks it (user rules > identity policies > defaults).
  void set_policies(ppl::PolicySet policies) { policies_ = std::move(policies); }
  [[nodiscard]] const std::optional<ppl::PolicySet>& policies() const { return policies_; }

  /// Origin -> fingerprint of the path currently brokered to this identity.
  [[nodiscard]] const std::map<std::string, std::string>& assignments() const {
    return assignments_;
  }
  /// Fingerprint quarantined for this identity by a recent rotate_paths().
  [[nodiscard]] bool is_quarantined(const std::string& fingerprint, TimePoint now) const;
  [[nodiscard]] std::size_t quarantined_count(TimePoint now) const;

  [[nodiscard]] const std::deque<IdentityAuditEvent>& audit() const { return audit_; }

 private:
  friend class IdentityPathBroker;

  void record(TimePoint at, std::string event, std::string origin, std::string detail);

  std::string id_;
  TimePoint created_at_;
  IdentityStats stats_;
  std::optional<ppl::PolicySet> policies_;
  std::map<std::string, std::string> assignments_;          // ordered: stable JSON
  std::unordered_map<std::string, TimePoint> quarantined_;  // fingerprint -> expiry
  std::deque<IdentityAuditEvent> audit_;
};

/// The circuit-style path broker: owns every NetworkIdentity plus the
/// origin -> fingerprint -> owning-identity ledger that keeps concurrent
/// identities on disjoint paths. Single-threaded (simulator model), so the
/// exclusion-at-selection / commit-at-fetch pair is race-free as long as the
/// caller commits synchronously in the selection callback chain — which the
/// proxy does.
class IdentityPathBroker {
 public:
  IdentityPathBroker(sim::Simulator& sim, obs::MetricsRegistry& metrics);

  /// Looks up (creating on first sight, with a "created" audit event).
  NetworkIdentity& identity(const std::string& id);
  [[nodiscard]] const NetworkIdentity* find(const std::string& id) const;
  [[nodiscard]] std::size_t identity_count() const { return identities_.size(); }

  /// Per-identity policy set for the proxy's selection override chain
  /// (nullopt when the identity is unknown or carries no policies).
  [[nodiscard]] std::optional<ppl::PolicySet> policies_for(const std::string& id) const;

  /// Selection-time exclusion predicate for (identity, origin): true for a
  /// fingerprint live for any *other* identity toward that origin, or
  /// quarantined for this identity by a recent rotation. Handed to
  /// PathSelector::choose so disjointness is enforced at filter time.
  [[nodiscard]] std::function<bool(const scion::Path&)> exclusion(const std::string& id,
                                                                  const std::string& origin);

  /// Commits the path actually fetched over. `excluded_fallback` marks a
  /// selection that knowingly used an excluded path (set too small). Returns
  /// true when the assignment is a collision (counted in
  /// `identity.path_collisions` and audited). Empty fingerprints (intra-AS
  /// trivial path) are not brokered.
  bool commit(const std::string& id, const std::string& origin,
              const std::string& fingerprint, bool excluded_fallback);

  /// rotate_paths(): quarantines the identity's current fingerprints for
  /// 30 s (kQuarantineTtl in identity.cpp), releases its claims, and returns
  /// the released (origin, fingerprint) pairs so the proxy can retire the
  /// matching pooled connections. The next request per origin re-brokers
  /// from scratch.
  std::vector<std::pair<std::string, std::string>> rotate(const std::string& id);

  /// Stats feedback from the proxy's request pipeline.
  void record_result(const std::string& id, bool over_scion, std::uint64_t bytes);

  /// `GET /skip/identity` body: per-identity stats, live assignments, and
  /// the audit tail.
  [[nodiscard]] std::string snapshot_json() const;

 private:
  sim::Simulator& sim_;
  obs::MetricsRegistry& metrics_;
  std::map<std::string, NetworkIdentity> identities_;  // ordered: stable JSON
  /// origin -> fingerprint -> owning identity: the disjointness ledger.
  std::unordered_map<std::string, std::unordered_map<std::string, std::string>> live_;
};

}  // namespace pan::proxy
