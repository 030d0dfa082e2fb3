// The four workloads. Page workloads are a closed loop of one client: build
// a fresh session, load the page, tear the session down, then let 1 s of sim
// time pass before the next load. Without that think time consecutive loads
// span less sim time than the idle timeouts, so state piles up (peak RSS
// reaches 180 MB instead of 8 MB over 2000 local loads). The fleet workload
// is an open loop on the sim clock under replica chaos.
#include <algorithm>
#include <array>
#include <limits>
#include <optional>

#include "bench.hpp"
#include "support/alloc_probe.hpp"
#include "util/strings.hpp"

namespace pan::benchmark {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Duration kThinkTime = seconds(1);

/// Wall time of the last quarter of `walls` over its first quarter.
[[nodiscard]] double quarter_growth(const std::vector<double>& walls) {
  const std::size_t q = walls.size() / 4;
  if (q == 0) return 1;
  double first = 0;
  double last = 0;
  for (std::size_t i = 0; i < q; ++i) {
    first += walls[i];
    last += walls[walls.size() - 1 - i];
  }
  return first > 0 ? last / first : 1;
}

/// --smoke runs 1/20 of the page loads.
[[nodiscard]] std::size_t smoke_scaled(std::size_t units, const Options& options) {
  return options.smoke ? std::max<std::size_t>(1, units / 20) : units;
}

// --- page loads ----------------------------------------------------------

struct PageSpec {
  const char* name;
  bool remote;   // Figure-4 remote world (else the Figure-2 local world)
  bool proxied;  // extension + SKIP proxy (else the BGP/IP-only browser)
  std::uint64_t default_seed;
  double jitter;
  Duration dns_latency;
  std::size_t warmup;
  std::size_t timed;
};

// Local page: doc + 8 x 25 kB on the SCION-only file server (Figure 3).
constexpr std::size_t kLocalResources = 8;
constexpr std::size_t kLocalBytes = 25'000;
// Remote page: doc + 6 x 30 kB split across www and static (Figure 5).
constexpr std::size_t kRemoteResources = 6;
constexpr std::size_t kRemoteBytes = 30'000;

class PageWorkload final : public Workload {
 public:
  PageWorkload(const PageSpec& spec, const Options& options)
      : Workload(options.seed.value_or(spec.default_seed)),
        spec_(spec),
        units_(smoke_scaled(spec.timed, options)),
        warmup_(smoke_scaled(spec.warmup, options)),
        url_(spec.remote ? "http://www.far.example/multi" : "http://scion-fs.local/scion-only") {}

  [[nodiscard]] std::string describe() const override {
    return strings::format(
        "%s world=%s session=%s seed=%llu jitter=%.3f dns_us=%lld page=%s units=%zu "
        "warmup=%zu think_ms=%lld",
        spec_.name, spec_.remote ? "remote" : "local", spec_.proxied ? "proxied" : "direct",
        static_cast<unsigned long long>(seed_), spec_.jitter,
        static_cast<long long>(spec_.dns_latency.nanos() / 1000), url_.c_str(), units_, warmup_,
        static_cast<long long>(kThinkTime.nanos() / 1'000'000));
  }

  [[nodiscard]] std::unique_ptr<Rig> build(bool traced) const override {
    auto rig = std::make_unique<Rig>(traced);
    browser::WorldConfig config;
    config.seed = seed_;
    config.link_jitter = spec_.jitter;
    config.dns_latency = spec_.dns_latency;
    rig->configure(config);
    rig->world = spec_.remote ? browser::make_remote_world(config)
                              : browser::make_local_world(config);
    rig->attach_tracer();
    if (spec_.remote) {
      http::FileServer& www = *rig->world->site("www.far.example");
      http::FileServer& cdn = *rig->world->site("static.far.example");
      std::vector<std::string> urls;
      for (std::size_t i = 0; i < kRemoteResources; ++i) {
        const std::string path = "/m" + std::to_string(i) + ".bin";
        (i % 2 == 0 ? www : cdn).add_blob(path, kRemoteBytes);
        urls.push_back(i % 2 == 0 ? path : "http://static.far.example" + path);
      }
      www.add_text("/multi", browser::render_document(urls));
      rig->origins = {&www, &cdn};
    } else {
      http::FileServer& fs = *rig->world->site("scion-fs.local");
      std::vector<std::string> urls;
      for (std::size_t i = 0; i < kLocalResources; ++i) {
        const std::string path = "/s" + std::to_string(i) + ".bin";
        fs.add_blob(path, kLocalBytes);
        urls.push_back(path);
      }
      fs.add_text("/scion-only", browser::render_document(urls));
      rig->origins = {&fs};
    }
    return rig;
  }

  PhaseResult warm_up(Rig& rig) const override { return load_pages(rig, warmup_, nullptr); }
  PhaseResult run(Rig& rig, obs::TraceCollector* spans) const override {
    return load_pages(rig, units_, spans);
  }

  std::string add_probe_resource(http::FileServer& origin) const override {
    const std::string path = spec_.remote ? "/m0.bin" : "/s0.bin";
    origin.add_blob(path, spec_.remote ? kRemoteBytes : kLocalBytes);
    return path;
  }

 private:
  PhaseResult load_pages(Rig& rig, std::size_t count, obs::TraceCollector* spans) const;

  PageSpec spec_;
  std::size_t units_;
  std::size_t warmup_;
  std::string url_;
};

PhaseResult PageWorkload::load_pages(Rig& rig, std::size_t count,
                                     obs::TraceCollector* spans) const {
  PhaseResult out;
  out.latency_ms.reserve(count);
  out.build_us.reserve(count);
  out.load_us.reserve(count);
  out.teardown_us.reserve(count);
  std::vector<double> unit_wall;
  unit_wall.reserve(count);

  browser::World& world = *rig.world;
  sim::Simulator& sim = world.sim();
  proxy::ProxyConfig proxy_config;
  browser::BrowserConfig browser_config;
  if (rig.traced) {
    proxy_config.metrics = rig.registry.get();
    proxy_config.collector = rig.collector.get();
    browser_config.metrics = rig.registry.get();
  }

  std::size_t incomplete = 0;
  std::size_t over_ip = 0;
  std::size_t over_scion = 0;
  const auto phase_start = Clock::now();
  const std::uint64_t phase_events = sim.events_executed();
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t allocs0 = testsupport::allocation_count();
    const std::uint64_t events0 = sim.events_executed();
    const auto t0 = Clock::now();
    std::optional<browser::ClientSession> proxied;
    std::optional<browser::DirectSession> direct;
    if (spec_.proxied) {
      proxied.emplace(world, proxy_config, browser_config);
    } else {
      direct.emplace(world, browser_config);
    }
    const auto t1 = Clock::now();
    const browser::PageLoadResult result = proxied ? proxied->load(url_) : direct->load(url_);
    const auto t2 = Clock::now();
    proxied.reset();
    direct.reset();
    const auto t3 = Clock::now();
    sim.run_until(sim.now() + kThinkTime);
    const auto t4 = Clock::now();
    out.allocations += testsupport::allocation_count() - allocs0;
    const std::uint64_t events = sim.events_executed() - events0;

    // Proxied loads must finish entirely over SCION; the direct browser must
    // never touch SCION.
    const bool ok = spec_.proxied ? result.ok && result.complete && result.over_ip == 0
                                  : result.ok && result.over_scion == 0;
    if (!result.ok || (spec_.proxied && !result.complete)) ++incomplete;
    if (spec_.proxied) over_ip += result.over_ip;
    if (!spec_.proxied) over_scion += result.over_scion;
    if (!ok && out.failures.empty()) {
      out.failures.push_back(strings::format(
          "%s: load %zu failed (ok=%d complete=%d over_ip=%zu over_scion=%zu)", spec_.name, i,
          result.ok ? 1 : 0, result.complete ? 1 : 0, result.over_ip, result.over_scion));
    }
    ++out.attempted;
    if (ok) ++out.ok;
    out.latency_ms.push_back(ok ? result.plt.millis() : kInf);
    out.digest.add(result.plt.nanos());
    out.digest.add(events);
    out.digest.add(std::uint64_t{ok ? 1u : 0u});
    out.build_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
    out.load_us.push_back(std::chrono::duration<double, std::micro>(t2 - t1).count());
    out.teardown_us.push_back(std::chrono::duration<double, std::micro>(t3 - t2).count());
    unit_wall.push_back(seconds_between(t0, t4));
    if (spans != nullptr) {
      record_trace(*spans, {{"unit", t0, t4},
                            {"session_build", t0, t1},
                            {"load", t1, t2},
                            {"session_teardown", t2, t3},
                            {"think", t3, t4}});
    }
  }
  out.wall_s = seconds_between(phase_start, Clock::now());
  out.events = sim.events_executed() - phase_events;
  // Per-unit wall time includes the think gap's events: work a change moves
  // out of load() into idle timers still counts. The rate is read from the
  // last quarter of the loads, where state that piles up across loads costs
  // the most, at the 5th percentile: the loads that other tenants of a shared
  // machine did not slow down. README.md has the measurements behind this.
  const auto tail = static_cast<std::ptrdiff_t>(std::max<std::size_t>(1, unit_wall.size() / 4));
  const double fast_wall =
      percentile_of(std::vector<double>(unit_wall.end() - tail, unit_wall.end()), 5);
  out.units_per_s = fast_wall > 0 ? 1.0 / fast_wall : 0;
  out.wall_growth_q4_q1 = quarter_growth(unit_wall);
  out.checks["incomplete_loads"] = static_cast<double>(incomplete);
  out.checks[spec_.proxied ? "resources_over_ip" : "resources_over_scion"] =
      static_cast<double>(spec_.proxied ? over_ip : over_scion);
  return out;
}

// --- the fleet -----------------------------------------------------------
//
// A run is a series of identical episodes: a fresh world and fleet, then one
// 10 s chaos cycle of load and a drain. One long multi-cycle run is not
// usable as a wall-clock measurement here: each pooled connection's pump
// walks every stream it ever opened, so the work is memory-latency bound and
// a single 40 s run varied by 20% between runs on a shared 4-vCPU VM. The
// fastest of a dozen 10 s episodes varies by 3-6%.

constexpr Duration kFleetPeriod = milliseconds(2);
constexpr Duration kFleetDeadline = seconds(2);
constexpr Duration kFleetCycle = seconds(10);
constexpr Duration kFleetDrain = seconds(3);
constexpr std::size_t kFleetWarmup = 250;
constexpr std::size_t kFleetReplicas = 4;
/// Timed episodes per run; --smoke runs one, 1/12 of the requests under the
/// same load and chaos.
constexpr std::size_t kFleetEpisodes = 12;
const std::string kFleetOrigin = "scion-fs.local";
const std::string kFleetUrl = "http://scion-fs.local/";

/// An open-loop generator on the sim clock: request i is due at
/// start + i * period, whatever happened to earlier requests. Latency is
/// measured from the due time. Shared ownership keeps it alive for callbacks
/// that outlive the phase that launched them.
class FleetLoad : public std::enable_shared_from_this<FleetLoad> {
 public:
  FleetLoad(sim::Simulator& sim, proxy::ProxyCluster& cluster, TimePoint start, Duration period,
            std::size_t total)
      : sim_(sim), cluster_(cluster), start_(start), period_(period), total_(total),
        latency_ns_(total, -1), status_(total, 0) {}

  void start() {
    sim_.schedule_at(start_, [self = shared_from_this()] { self->launch(0); });
  }

  void fill(PhaseResult& out) const {
    out.attempted = launched_;
    out.latency_ms.reserve(total_);
    for (std::size_t i = 0; i < total_; ++i) {
      const bool ok = status_[i] == 200;
      if (ok) ++out.ok;
      out.latency_ms.push_back(ok ? Duration{latency_ns_[i]}.millis() : kInf);
      out.digest.add(static_cast<std::int64_t>(status_[i]));
      out.digest.add(latency_ns_[i]);
    }
    out.checks["launched"] = static_cast<double>(launched_);
    out.checks["unresolved"] = static_cast<double>(launched_ - resolved_);
    out.checks["answered_twice"] = static_cast<double>(duplicates_);
    out.checks["strict_downgrades"] = static_cast<double>(downgrades_);
    out.checks["past_deadline"] = static_cast<double>(past_deadline_);
    out.checks["generator_lateness_ms"] = max_lateness_.millis();
    const auto fail = [&out](bool bad, const std::string& what) {
      if (bad) out.failures.push_back("fleet-chaos: " + what);
    };
    fail(launched_ != total_, strings::format("launched %zu of %zu", launched_, total_));
    fail(resolved_ != launched_,
         strings::format("%zu request(s) never resolved", launched_ - resolved_));
    fail(duplicates_ != 0, strings::format("%zu request(s) answered twice", duplicates_));
    fail(downgrades_ != 0, strings::format("%zu strict request(s) answered over IP", downgrades_));
    fail(past_deadline_ != 0,
         strings::format("%zu request(s) answered past the deadline", past_deadline_));
    fail(max_lateness_ > Duration::zero(),
         strings::format("generator ran %.3f ms late", max_lateness_.millis()));
  }

 private:
  void launch(std::size_t i) {
    const TimePoint due = start_ + period_ * static_cast<std::int64_t>(i);
    max_lateness_ = std::max(max_lateness_, sim_.now() - due);
    ++launched_;
    http::HttpRequest request;
    request.method = "GET";
    request.target = kFleetUrl;
    proxy::ProxyRequestOptions options;
    options.strict = true;
    options.deadline = due + kFleetDeadline;
    cluster_.fetch(std::move(request), options,
                   [self = shared_from_this(), i, due](proxy::ProxyResult result) {
                     self->resolve(i, due, result);
                   });
    if (i + 1 < total_) {
      sim_.schedule_at(due + period_, [self = shared_from_this(), i] { self->launch(i + 1); });
    }
  }

  void resolve(std::size_t i, TimePoint due, const proxy::ProxyResult& result) {
    if (status_[i] != 0) {
      ++duplicates_;
      return;
    }
    ++resolved_;
    if (sim_.now() > due + kFleetDeadline) ++past_deadline_;
    if (result.transport == proxy::TransportUsed::kIp) ++downgrades_;
    // A response without a status still counts as answered.
    status_[i] = result.response.status == 0 ? -1 : result.response.status;
    latency_ns_[i] = (sim_.now() - due).nanos();
  }

  sim::Simulator& sim_;
  proxy::ProxyCluster& cluster_;
  TimePoint start_;
  Duration period_;
  std::size_t total_;
  std::vector<std::int64_t> latency_ns_;
  std::vector<int> status_;
  std::size_t launched_ = 0;
  std::size_t resolved_ = 0;
  std::size_t duplicates_ = 0;
  std::size_t downgrades_ = 0;
  std::size_t past_deadline_ = 0;
  Duration max_lateness_ = Duration::zero();
};

class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(const Options& options)
      : Workload(options.seed.value_or(42)), episodes_(options.smoke ? 1 : kFleetEpisodes) {}

  [[nodiscard]] std::string describe() const override {
    return strings::format(
        "fleet-chaos world=local replicas=%zu seed=%llu period_us=%lld deadline_ms=%lld "
        "episodes=%zu cycle_s=%lld warmup=%zu drain_s=%lld "
        "chaos=crash@2s/1s,hang@4s/500ms,restart@6s",
        kFleetReplicas, static_cast<unsigned long long>(seed_),
        static_cast<long long>(kFleetPeriod.nanos() / 1000),
        static_cast<long long>(kFleetDeadline.nanos() / 1'000'000), episodes_,
        static_cast<long long>(kFleetCycle.nanos() / 1'000'000'000), kFleetWarmup,
        static_cast<long long>(kFleetDrain.nanos() / 1'000'000'000));
  }

  [[nodiscard]] std::unique_ptr<Rig> build(bool traced) const override {
    auto rig = std::make_unique<Rig>(traced);
    browser::WorldConfig config;
    config.seed = seed_;
    rig->configure(config);
    rig->world = browser::make_local_world(config);
    rig->attach_tracer();
    http::FileServer& origin = *rig->world->site(kFleetOrigin);
    add_probe_resource(origin);
    rig->origins = {&origin};
    proxy::ClusterConfig cluster;
    cluster.replicas = kFleetReplicas;
    if (traced) {
      cluster.proxy.metrics = rig->registry.get();
      cluster.proxy.collector = rig->collector.get();
    }
    rig->fleet = std::make_unique<browser::FleetSession>(*rig->world, cluster);
    return rig;
  }

  PhaseResult warm_up(Rig& rig) const override {
    sim::Simulator& sim = rig.world->sim();
    auto load = std::make_shared<FleetLoad>(sim, rig.fleet->cluster(), sim.now(), kFleetPeriod,
                                            kFleetWarmup);
    load->start();
    sim.run_until(sim.now() + kFleetPeriod * static_cast<std::int64_t>(kFleetWarmup) +
                  kFleetDeadline + milliseconds(500));
    PhaseResult out;
    load->fill(out);
    return out;
  }

  PhaseResult run(Rig& rig, obs::TraceCollector* spans) const override;

  std::string add_probe_resource(http::FileServer& origin) const override {
    origin.add_text("/", "document");
    return "/";
  }

  [[nodiscard]] std::size_t episodes() const override { return episodes_; }

 private:
  std::size_t episodes_;
};

PhaseResult FleetWorkload::run(Rig& rig, obs::TraceCollector* spans) const {
  PhaseResult out;
  sim::Simulator& sim = rig.world->sim();
  proxy::ProxyCluster& cluster = rig.fleet->cluster();
  // Aim every fault at the replica that owns the loaded origin, so failover
  // (not luck of the ring) is what keeps the stream alive.
  const std::string owner = cluster.owner_of(kFleetOrigin);
  const TimePoint start = sim.now();
  const auto at = [start](Duration offset) {
    return strings::format("at=%lldns", static_cast<long long>((start + offset).nanos()));
  };
  const std::string plan = at(seconds(2)) + " dur=1s replica-crash " + owner + "\n" +
                           at(seconds(4)) + " dur=500ms replica-hang " + owner + "\n" +
                           at(seconds(6)) + " replica-restart " + owner + "\n";
  if (const Status status = rig.world->schedule_chaos(plan); !status.ok()) {
    out.failures.push_back("fleet-chaos: bad chaos plan: " + status.error());
    return out;
  }

  const auto total = static_cast<std::size_t>(kFleetCycle.nanos() / kFleetPeriod.nanos());
  auto load = std::make_shared<FleetLoad>(sim, cluster, start, kFleetPeriod, total);
  load->start();

  const std::uint64_t allocs0 = testsupport::allocation_count();
  const std::uint64_t events0 = sim.events_executed();
  // Wall clock at the start, after each quarter of the cycle, and after the
  // drain for the last deadlines.
  std::array<Clock::time_point, 6> t;
  t[0] = Clock::now();
  for (std::int64_t q = 1; q <= 4; ++q) {
    sim.run_until(start + kFleetCycle * q / 4);
    t[q] = Clock::now();
  }
  sim.run_until(start + kFleetCycle + kFleetDrain);
  t[5] = Clock::now();
  out.allocations = testsupport::allocation_count() - allocs0;
  if (spans != nullptr) {
    record_trace(*spans, {{"cycle", t[0], t[5]},
                          {"quarter", t[0], t[1]},
                          {"quarter", t[1], t[2]},
                          {"quarter", t[2], t[3]},
                          {"quarter", t[3], t[4]},
                          {"drain", t[4], t[5]}});
  }
  std::vector<double> quarter_wall;
  for (std::size_t q = 1; q <= 4; ++q) quarter_wall.push_back(seconds_between(t[q - 1], t[q]));
  out.wall_s = seconds_between(t[0], t[5]);
  out.events = sim.events_executed() - events0;
  load->fill(out);
  out.digest.add(out.events);
  out.units_per_s = out.wall_s > 0 ? static_cast<double>(out.attempted) / out.wall_s : 0;
  out.wall_growth_q4_q1 = quarter_growth(quarter_wall);
  return out;
}

const PageSpec kPageSpecs[] = {
    {"local-fig3", false, true, 2022, 0.15, milliseconds(1), 100, 3000},
    {"remote-fig5", true, true, 5, 0.08, milliseconds(4), 50, 1500},
    {"remote-ip", true, false, 5, 0.08, milliseconds(4), 100, 3000},
};

}  // namespace

std::unique_ptr<Workload> make_workload(const Options& options) {
  for (const PageSpec& spec : kPageSpecs) {
    if (options.workload == spec.name) return std::make_unique<PageWorkload>(spec, options);
  }
  if (options.workload == "fleet-chaos") return std::make_unique<FleetWorkload>(options);
  return nullptr;
}

}  // namespace pan::benchmark
