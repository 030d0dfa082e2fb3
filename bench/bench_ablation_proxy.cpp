// Ablation 1 (DESIGN.md): proxy indirection vs. tight browser integration.
//
// The paper attributes its ~100 ms local overhead to the extension + HTTP
// proxy hop and predicts that "with tighter SCION integration in the browser
// ... the overhead [will] disappear". We sweep the browser<->proxy IPC cost
// from zero (native in-browser SCION stack) upward and compare against the
// extension-disabled baseline.
#include "bench_util.hpp"
#include "core/scenarios.hpp"

using namespace pan;

namespace {
constexpr int kTrials = 20;
constexpr int kResources = 8;
}  // namespace

int main() {
  browser::WorldConfig config;
  config.seed = 11;
  config.link_jitter = 0.1;
  auto world = browser::make_local_world(config);
  auto& scion_fs = *world->site("scion-fs.local");
  auto& tcpip_fs = *world->site("tcpip-fs.local");
  std::vector<std::string> urls;
  for (int i = 0; i < kResources; ++i) {
    const std::string path = "/r" + std::to_string(i) + ".bin";
    scion_fs.add_blob(path, 25'000);
    tcpip_fs.add_blob(path, 25'000);
    urls.push_back(path);
  }
  scion_fs.add_text("/", browser::render_document(urls));
  tcpip_fs.add_text("/", browser::render_document(urls));

  std::vector<bench::Series> series;
  for (const auto& [label, ipc_us] :
       std::vector<std::pair<std::string, std::int64_t>>{{"native integration (0 us)", 0},
                                                         {"lean proxy (100 us)", 100},
                                                         {"prototype proxy (400 us)", 400},
                                                         {"heavy proxy (1000 us)", 1000},
                                                         {"pathological (5000 us)", 5000}}) {
    proxy::ProxyConfig proxy_config;
    proxy_config.ipc_overhead = microseconds(ipc_us);
    if (ipc_us == 0) proxy_config.processing_overhead = Duration::zero();
    series.push_back({label, bench::run_trials(kTrials, [&] {
                        browser::ClientSession session(*world, proxy_config);
                        return session.load("http://scion-fs.local/").plt.millis();
                      })});
  }
  series.push_back({"BGP/IP-only baseline", bench::run_trials(kTrials, [&] {
                      browser::DirectSession session(*world);
                      return session.load("http://tcpip-fs.local/").plt.millis();
                    })});

  bench::print_box_table(
      "Ablation — proxy indirection cost vs tight integration (local SCION page, ms)",
      series);
  // Every trial of the 0 us row sits above every baseline trial: the
  // conclusion reports that gap.
  const double native = box_stats(series.front().samples_ms).median;
  const double baseline = box_stats(series.back().samples_ms).median;
  std::printf("\nThe proxy hop cost adds linearly. At zero IPC cost the SCION load is %.2f ms\n"
              "(%.0f%%) above the BGP/IP baseline: most, not all, of the proxying overhead\n"
              "disappears under native browser integration. The residual is not yet\n"
              "attributed to a layer.\n",
              native - baseline, (native - baseline) / baseline * 100.0);
  return 0;
}
