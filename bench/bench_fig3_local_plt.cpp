// Reproduces Figure 3 (and the Figure 2 setup): Page Load Time box plots in
// the local world for the paper's four experiments:
//   - SCION-only:     all resources on the SCION file server
//   - mixed SCION-IP: resources split across the SCION and TCP/IP servers
//   - strict-SCION:   strict mode; only one resource is SCION-reachable,
//                     the rest are blocked (never fetched)
//   - BGP/IP-only:    extension disabled, plain HTTP over TCP/IP
//
// Expected shape (paper): SCION-only and mixed pay an extension+proxy
// overhead (~100 ms there) over BGP/IP-only; strict-SCION is the fastest of
// the extension-enabled arms since blocked resources cost nothing (BGP/IP-only,
// with no proxy hop at all, is faster still).
#include "bench_util.hpp"
#include "core/scenarios.hpp"

using namespace pan;

namespace {

constexpr int kTrials = 30;
constexpr int kResources = 8;
constexpr std::size_t kResourceBytes = 25'000;

// The paper's local experiments run on one laptop; we model the localhost
// proxy hop with the default IPC overhead and give links mild jitter so the
// box plots have spread, as in any real measurement.
browser::WorldConfig world_config() {
  browser::WorldConfig config;
  config.seed = 2022;
  config.link_jitter = 0.15;
  config.dns_latency = milliseconds(1);
  return config;
}

}  // namespace

int main() {
  auto world = browser::make_local_world(world_config());
  auto& scion_fs = *world->site("scion-fs.local");
  auto& tcpip_fs = *world->site("tcpip-fs.local");

  // SCION-only page.
  {
    std::vector<std::string> urls;
    for (int i = 0; i < kResources; ++i) {
      const std::string path = "/s" + std::to_string(i) + ".bin";
      scion_fs.add_blob(path, kResourceBytes);
      urls.push_back(path);
    }
    scion_fs.add_text("/scion-only", browser::render_document(urls));
  }
  // Mixed page: one resource on the SCION FS, the rest on the TCP/IP FS —
  // the same split the strict-SCION experiment uses.
  {
    std::vector<std::string> urls;
    scion_fs.add_blob("/m0.bin", kResourceBytes);
    urls.push_back("/m0.bin");
    for (int i = 1; i < kResources; ++i) {
      const std::string path = "/m" + std::to_string(i) + ".bin";
      tcpip_fs.add_blob(path, kResourceBytes);
      urls.push_back("http://tcpip-fs.local" + path);
    }
    scion_fs.add_text("/mixed", browser::render_document(urls));
  }
  // Baseline page on the TCP/IP FS.
  {
    std::vector<std::string> urls;
    for (int i = 0; i < kResources; ++i) {
      const std::string path = "/b" + std::to_string(i) + ".bin";
      tcpip_fs.add_blob(path, kResourceBytes);
      urls.push_back(path);
    }
    tcpip_fs.add_text("/", browser::render_document(urls));
  }

  // One registry shared across all proxied trials: per-request phase spans
  // accumulate into proxy.phase.* histograms for the breakdown table below.
  obs::MetricsRegistry registry;
  proxy::ProxyConfig proxy_config;
  proxy_config.metrics = &registry;
  // Single-hop traces (no reverse proxy in the local world): dumped when
  // PAN_TRACE_DUMP is set, for about:tracing / trace-lint inspection.
  obs::TraceCollector collector;
  proxy_config.collector = &collector;

  std::vector<bench::Series> series;
  series.push_back({"SCION-only", bench::run_trials(kTrials, [&] {
                      browser::ClientSession session(*world, proxy_config);
                      return session.load("http://scion-fs.local/scion-only").plt.millis();
                    })});
  series.push_back({"mixed SCION-IP", bench::run_trials(kTrials, [&] {
                      browser::ClientSession session(*world, proxy_config);
                      return session.load("http://scion-fs.local/mixed").plt.millis();
                    })});
  series.push_back({"strict-SCION", bench::run_trials(kTrials, [&] {
                      browser::ClientSession session(*world, proxy_config);
                      session.extension().set_mode(browser::OperationMode::kStrict);
                      return session.load("http://scion-fs.local/mixed").plt.millis();
                    })});
  series.push_back({"BGP/IP-only", bench::run_trials(kTrials, [&] {
                      browser::DirectSession session(*world);
                      return session.load("http://tcpip-fs.local/").plt.millis();
                    })});

  bench::print_box_table(
      "Figure 3 — Page Load Time (ms), local setup (" + std::to_string(kTrials) +
          " trials, " + std::to_string(kResources) + " x " +
          std::to_string(kResourceBytes / 1000) + " kB resources)",
      series);

  bench::print_phase_table(
      "Per-request phase latency across all proxied trials (from the proxy's\n"
      "metrics registry; the ipc rows are the paper's ~100 ms overhead source)",
      registry);

  std::printf("\nPaper's qualitative result: SCION-only and mixed pay a proxying overhead over\n"
              "BGP/IP-only; strict-SCION is the fastest of the extension-enabled arms because\n"
              "blocked resources are never fetched.\n");
  bench::dump_chrome_trace(collector, "fig3-local-plt");
  return 0;
}
