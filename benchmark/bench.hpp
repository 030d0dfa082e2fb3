// The repo benchmark's C++ side: the four workloads, the timing and counting
// done around calls into the simulator's public APIs, and the helpers that
// turn those into metrics. benchmark/run.py builds and drives this binary;
// README.md in this directory explains the workloads and metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/scenarios.hpp"
#include "obs/collector.hpp"
#include "obs/metrics.hpp"

namespace pan::benchmark {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  /// World seed; unset: the workload's paper-figure default.
  std::optional<std::uint64_t> seed;
  bool trace = false;
  /// Fewer units under the same load, for a quick correctness pass: 1/20 of
  /// the page loads, one fleet episode of 12.
  bool smoke = false;
  /// Where a traced run writes its Chrome traces (empty: nowhere).
  std::string out_dir;
};

/// FNV-1a over 64-bit words: the sim digest of a run.
class Digest {
 public:
  void add(std::uint64_t word);
  void add(std::int64_t word) { add(static_cast<std::uint64_t>(word)); }
  [[nodiscard]] std::uint64_t value() const { return state_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// Type-7 percentile (pct in [0, 100]) that tolerates +inf samples, which
/// stand for failed units. Empty input gives 0.
[[nodiscard]] double percentile_of(std::vector<double> samples, double pct);

/// One wall-clock span of the benchmark's own calls into the system.
struct WallSpan {
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
};
/// Records `spans` as one finished trace: the first is the root, the rest
/// its children. The collector's Chrome export is what trace_lint.py checks.
void record_trace(obs::TraceCollector& collector, std::initializer_list<WallSpan> spans);

/// Everything one set-up builds. Members are destroyed bottom-up: the fleet
/// before the world it lives in, the world before the registries it records
/// into.
struct Rig {
  explicit Rig(bool traced);

  bool traced;
  /// Traced runs only: the registry shared by proxies, browsers and pools,
  /// the border routers' forward-latency registry, and the trace collector.
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<obs::MetricsRegistry> router_metrics;
  std::unique_ptr<obs::TraceCollector> collector;
  /// Packets the network sent (counted by a tracer in traced runs).
  std::uint64_t packets_sent = 0;
  std::unique_ptr<browser::World> world;
  std::vector<http::FileServer*> origins;
  std::unique_ptr<browser::FleetSession> fleet;

  /// Points WorldConfig at the traced-run registries and collector.
  void configure(browser::WorldConfig& config) const;
  /// Installs the packet-counting tracer once the world exists.
  void attach_tracer();
};

/// One warm-up or timed phase.
struct PhaseResult {
  std::size_t attempted = 0;
  std::size_t ok = 0;
  /// Sim latency per unit in ms; +inf for a failed unit.
  std::vector<double> latency_ms;
  double wall_s = 0;
  /// Pages: 1 / the 5th-percentile unit wall time of the last quarter of the
  /// units; fleet: requests / episode wall.
  double units_per_s = 0;
  std::uint64_t allocations = 0;
  std::uint64_t events = 0;
  /// Wall time of the last quarter of the phase over its first quarter.
  double wall_growth_q4_q1 = 0;
  /// Per-unit wall times of the session calls (page workloads).
  std::vector<double> build_us, load_us, teardown_us;
  Digest digest;
  /// Correctness-gate counters, reported as they are.
  std::map<std::string, double> checks;
  std::vector<std::string> failures;
};

class Workload {
 public:
  explicit Workload(std::uint64_t seed) : seed_(seed) {}
  virtual ~Workload() = default;
  /// The world seed: --seed, or the workload's paper-figure default.
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  /// The parameters that define the run (hashed into the config digest).
  [[nodiscard]] virtual std::string describe() const = 0;
  /// Builds the world and populates its sites.
  [[nodiscard]] virtual std::unique_ptr<Rig> build(bool traced) const = 0;
  virtual PhaseResult warm_up(Rig& rig) const = 0;
  /// The timed phase; `spans` (may be null) receives the benchmark's spans.
  virtual PhaseResult run(Rig& rig, obs::TraceCollector* spans) const = 0;
  /// Adds the workload's sub-resource (the fleet: its document) to `origin`
  /// and returns its path, for the origin-handler probe.
  virtual std::string add_probe_resource(http::FileServer& origin) const = 0;
  /// Timed phases per run, each on a freshly set-up world of the same seed,
  /// so every one must reproduce the same sim digest.
  [[nodiscard]] virtual std::size_t episodes() const { return 1; }

 protected:
  std::uint64_t seed_;
};

/// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const Options& options);

/// Counters read before a timed phase; layer_metrics() reads them again after
/// it and reports the per-layer metrics of that phase. Latency percentiles
/// come from the layers' own histograms, which also hold the warm-up units.
struct LayerMark {
  std::uint64_t net_bytes = 0;
  std::uint64_t net_drops = 0;
  std::uint64_t packets = 0;
  std::uint64_t hops = 0;
  std::uint64_t scion_drops = 0;
  std::uint64_t origin_hits = 0;
  std::uint64_t retries = 0;
  std::uint64_t failovers = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t handshakes = 0;
};
[[nodiscard]] LayerMark mark_layers(Rig& rig);
[[nodiscard]] std::map<std::string, double> layer_metrics(Rig& rig, const LayerMark& before,
                                                          const PhaseResult& phase);

/// Engine probes on a fresh Simulator: ns per scheduled-and-run event, and
/// ns per schedule + cancel (tombstone drained).
[[nodiscard]] double probe_event_ns();
[[nodiscard]] double probe_cancel_ns();
/// us per FileServer::handler() call serving the workload's probe resource,
/// per-response ETag hashing included.
[[nodiscard]] double probe_origin_handler_us(const Workload& workload);

}  // namespace pan::benchmark
