// Topology: builds a complete simulated inter-domain world.
//
// Declaratively add ISDs/ASes, typed inter-AS links (core, parent-child)
// with metadata decorations, and hosts. finalize() then:
//   1. generates per-AS forwarding keys and Lamport keypairs, builds one TRC
//      per ISD and chain-issues AS certificates (control-plane PKI);
//   2. computes legacy BGP-like routes (shortest AS-path) and fills the
//      routers' prefix tables;
//   3. runs beaconing — core beaconing across core links, down beaconing
//      along parent-child links — keeping the k best beacons per origin,
//      signing every AS entry, and registering verified segments with the
//      path-server infrastructure;
//   4. instantiates border routers, per-AS daemons, and per-host SCION
//      stacks.
//
// After finalize() the world is fully operational for both stacks: legacy
// UDP sockets route via BGP tables, SCION sockets forward along
// MAC-authorized paths obtained from the daemons.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "crypto/signature.hpp"
#include "net/graph.hpp"
#include "net/host.hpp"
#include "net/router.hpp"
#include "scion/border_router.hpp"
#include "scion/colibri.hpp"
#include "scion/daemon.hpp"
#include "scion/path_server.hpp"
#include "scion/stack.hpp"

namespace pan::scion {

struct AsSpec {
  std::string name;  // unique label, e.g. "ethz"
  IsdAsn ia;
  bool core = false;
  AsMeta meta;
};

struct AsLinkSpec {
  std::string a;  // AS name (the parent for kParentChild)
  std::string b;  // AS name (the child for kParentChild)
  LinkType type = LinkType::kCore;
  net::LinkParams params;
  double co2_g_per_gb = 20.0;
  double cost_per_gb = 10.0;
};

struct TopologyConfig {
  std::uint64_t seed = 1;
  /// Beacons kept per (origin, AS) during propagation — controls path choice.
  std::size_t beacons_per_origin = 8;
  /// Sign beacon entries / verify before registration. Set by
  /// bench_ablation_beaconing (its unsigned arm), scion_test and
  /// peering_test.
  bool sign_beacons = true;
  bool verify_beacons = true;
  std::uint32_t beacon_timestamp = 1'000'000;
  DaemonConfig daemon;
  BorderRouterConfig border_router;
  /// When set, finalize() pre-registers a `router.<ia>.forward_latency`
  /// histogram per AS and wires it into that AS's border router, so hop-path
  /// recording never allocates (the registry lookup happens once, here).
  obs::MetricsRegistry* metrics = nullptr;
};

/// Opaque host handle.
struct HostId {
  std::size_t index = static_cast<std::size_t>(-1);
  [[nodiscard]] bool valid() const { return index != static_cast<std::size_t>(-1); }
  auto operator<=>(const HostId&) const = default;
};

class Topology {
 public:
  Topology(sim::Simulator& sim, TopologyConfig config = {});
  ~Topology();

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  void add_as(const AsSpec& spec);
  void add_link(const AsLinkSpec& spec);
  HostId add_host(const std::string& as_name, const std::string& host_name);
  /// Host with non-default access-link parameters.
  HostId add_host(const std::string& as_name, const std::string& host_name,
                  const net::LinkParams& access);

  /// Builds keys, routes, beacons, routers, daemons. Must be called exactly
  /// once, after which add_* must not be called again.
  void finalize();
  [[nodiscard]] bool finalized() const { return finalized_; }

  /// Re-runs beaconing with a new origination timestamp: the segment store
  /// is replaced, hop fields get fresh MAC epochs/expiries, and every
  /// daemon's path cache is flushed — the control-plane refresh that keeps
  /// paths alive past hop-field expiry.
  void rebeacon(std::uint32_t new_timestamp);

  /// Sets the expiry-check clock on every border router (0 disables).
  void set_data_plane_time(std::uint32_t unix_time);

  // --- accessors (valid after finalize unless noted) ---
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] const PathServerInfra& path_infra() const { return infra_; }
  [[nodiscard]] const TrustStore& trust_store() const { return trust_; }
  /// Colibri-lite bandwidth reservations (admission + policing state).
  [[nodiscard]] ReservationManager& reservations() { return reservations_; }

  [[nodiscard]] std::size_t as_count() const { return ases_.size(); }
  [[nodiscard]] std::vector<IsdAsn> all_ases() const;
  [[nodiscard]] IsdAsn as_by_name(const std::string& name) const;
  [[nodiscard]] const AsMeta& as_meta(IsdAsn ia) const;
  [[nodiscard]] bool is_core(IsdAsn ia) const;
  [[nodiscard]] Daemon& daemon(IsdAsn ia);
  [[nodiscard]] const BorderRouterStats& border_router_stats(IsdAsn ia) const;
  [[nodiscard]] const ForwardingKey& forwarding_key(IsdAsn ia) const;

  /// Beacon-verification accounting. Each accepted beacon either costs one
  /// full verify_segment (beacon_verifications) or hits the verified-segment
  /// memo (beacon_memo_hits). rebeacon() with an unchanged timestamp
  /// rebuilds byte-identical segments, so it performs zero re-verifications.
  [[nodiscard]] std::uint64_t beacon_verifications() const { return beacon_verifications_; }
  [[nodiscard]] std::uint64_t beacon_memo_hits() const { return beacon_memo_hits_; }

  [[nodiscard]] net::Host& host(HostId id);
  [[nodiscard]] ScionStack& scion_stack(HostId id);
  [[nodiscard]] Daemon& daemon_for(HostId id);
  [[nodiscard]] net::IpAddr ip(HostId id) const;
  [[nodiscard]] IsdAsn as_of(HostId id) const;
  [[nodiscard]] ScionAddr scion_addr(HostId id) const;
  [[nodiscard]] const std::string& host_name(HostId id) const;
  [[nodiscard]] HostId host_by_name(const std::string& name) const;

 private:
  struct AsAdjacency {
    std::size_t link_spec_index;  // into link_specs_
    std::size_t neighbor;         // AS index
    IfaceId scion_if;             // local SCION interface id (net ifid + 1)
    LinkType type;
    bool is_parent_side;          // true when this AS is the parent (a side)
  };

  struct AsState {
    AsSpec spec;
    net::NodeId router_node = net::kInvalidNodeId;
    std::unique_ptr<net::Router> router;
    std::unique_ptr<BorderRouter> border_router;
    std::unique_ptr<Daemon> daemon;
    ForwardingKey forwarding_key;
    crypto::KeyPair keypair;
    std::vector<AsAdjacency> adjacency;
    std::vector<std::size_t> hosts;  // host indices
  };

  struct HostState {
    std::string name;
    std::size_t as_index = 0;
    net::NodeId node = net::kInvalidNodeId;
    net::IpAddr ip;
    std::unique_ptr<net::Host> host;
    std::unique_ptr<ScionStack> stack;
  };

  [[nodiscard]] std::size_t as_index(const std::string& name) const;
  [[nodiscard]] const AsState& as_state(IsdAsn ia) const;
  [[nodiscard]] AsState& as_state(IsdAsn ia);

  void build_pki(Rng& rng);
  void build_legacy_routes();
  void run_beaconing();
  [[nodiscard]] LinkMeta link_meta(std::size_t link_spec_index) const;

  // Beaconing internals (beaconing.cpp).
  struct BeaconHop {
    std::size_t as_index;
    IfaceId in_if = kNoIface;   // toward origin (0 at origin)
    IfaceId out_if = kNoIface;  // away from origin (0 at terminus)
    /// Link crossed to reach this AS (SIZE_MAX at the origin).
    std::size_t in_link_index = static_cast<std::size_t>(-1);
  };
  void propagate_beacons(std::size_t origin_index, bool core_beaconing);
  void register_beacon(const std::vector<BeaconHop>& hops, SegmentType type);
  [[nodiscard]] PathSegment build_segment(const std::vector<BeaconHop>& hops,
                                          SegmentType type) const;

  sim::Simulator& sim_;
  TopologyConfig config_;
  net::Network network_;
  PathServerInfra infra_;
  TrustStore trust_;
  ReservationManager reservations_;
  // Verified-segment memo keyed by content digest (covers signatures), plus
  // a preimage cache shared across all beacon verifications. Entries are
  // never invalidated: trust material is fixed after build_pki(), and a
  // content digest pins the exact signed bytes that were verified.
  std::unordered_set<crypto::Digest, crypto::DigestHasher> verified_segments_;
  crypto::PreimageCache beacon_preimages_;
  std::uint64_t beacon_verifications_ = 0;
  std::uint64_t beacon_memo_hits_ = 0;
  std::vector<AsState> ases_;
  std::vector<HostState> hosts_;
  std::vector<AsLinkSpec> link_specs_;
  std::unordered_map<std::string, std::size_t> as_by_name_;
  std::unordered_map<std::string, std::size_t> host_by_name_;
  std::unordered_map<IsdAsn, std::size_t> as_by_ia_;
  bool finalized_ = false;
};

}  // namespace pan::scion
