// pan_bench: runs one workload in this process and prints one JSON object.
//
//   pan_bench --workload NAME [--seed N] [--trace 0|1] [--smoke] [--out DIR]
//
// --trace 0 sets the workload up at least 15 times (set-up time is the
// median; every set-up must reproduce the same warm-up digest), times the
// workload's episodes on set-ups spread among them, and reports the
// end-to-end metrics. --trace 1 alternates untraced and traced episodes,
// each on a fresh world (traced: shared registries, router histograms, a
// trace collector and a packet-counting tracer), requires every episode to
// reproduce the same sim digest, and reports the per-layer metrics.
// benchmark/run.py wraps this with the build, the checks across runs and the
// metric units.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"
#include "crypto/sha256.hpp"
#include "util/strings.hpp"

using namespace pan;
using namespace pan::benchmark;

namespace {

constexpr std::size_t kMinSetups = 15;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "pan_bench: %s\nusage: pan_bench --workload NAME [--seed N] [--trace 0|1] "
               "[--smoke] [--out DIR]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      const auto seed = strings::parse_u64(value());
      if (!seed.ok()) usage("--seed takes an unsigned integer");
      options.seed = seed.value();
    } else if (arg == "--trace") {
      const std::string text = value();
      if (text != "0" && text != "1") usage("--trace takes 0 or 1");
      options.trace = text == "1";
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--out") {
      options.out_dir = value();
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  return options;
}

struct SetUp {
  std::unique_ptr<Rig> rig;
  double seconds = 0;
  PhaseResult warm;
};

/// World build + site population + warm-up units: what setup_s times.
SetUp set_up(const Workload& workload, bool traced) {
  SetUp out;
  const auto start = Clock::now();
  out.rig = workload.build(traced);
  out.warm = workload.warm_up(*out.rig);
  out.seconds = seconds_between(start, Clock::now());
  return out;
}

/// Units per second of the fastest episode. Fleet episodes are identical
/// fresh worlds, so a slowdown inside one shows in every one, while other
/// tenants of a shared machine disturb only some; page workloads time one.
double best_rate(const std::vector<PhaseResult>& phases) {
  double best = 0;
  for (const PhaseResult& phase : phases) best = std::max(best, phase.units_per_s);
  return best;
}

bool write_file(const std::string& path, const std::string& body) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), file) == body.size();
  return std::fclose(file) == 0 && ok;
}

/// A JSON number with every digit; non-finite values are written as 1e999,
/// which JSON readers load as +inf.
std::string json_number(double value) {
  if (!std::isfinite(value)) return "1e999";
  return strings::format("%.17g", value);
}

std::string json_object(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ',';
    out += strings::json_quote(name) + ":" + json_number(value);
  }
  return out + "}";
}

std::string json_array(const std::vector<std::string>& values) {
  std::string out = "[";
  for (const std::string& value : values) {
    if (out.size() > 1) out += ',';
    out += strings::json_quote(value);
  }
  return out + "]";
}

/// Peak RSS of this process image. getrusage's ru_maxrss would also count
/// the launcher's memory, because Linux keeps the high-water mark across the
/// exec that started us; VmHWM belongs to this image alone.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  const std::unique_ptr<Workload> workload = make_workload(options);
  if (!workload) usage("unknown workload " + options.workload);
  const std::size_t episodes = workload->episodes();

  std::vector<std::string> failures;
  const auto absorb = [&failures](const PhaseResult& phase, const char* what) {
    for (const std::string& failure : phase.failures) {
      failures.push_back(std::string(what) + ": " + failure);
    }
  };
  // The same seed must give the same simulation: every set-up's warm-up and
  // every timed episode, traced or not, is compared with the first.
  const auto same_digest = [&failures](const Digest& first, const Digest& other,
                                       const char* what) {
    if (first.value() != other.value()) {
      failures.push_back(std::string(what) + " digest differs between runs of the same seed (" +
                         first.hex() + " vs " + other.hex() + ")");
    }
  };

  std::vector<double> setup_seconds;
  std::vector<PhaseResult> plain;   // untraced timed episodes
  std::vector<PhaseResult> traced;  // traced timed episodes
  std::vector<std::map<std::string, double>> layers;
  Digest first_warm;
  // The benchmark's own spans, one trace per unit or fleet cycle.
  obs::TraceCollector spans(obs::CollectorConfig{.max_traces = 1u << 20});
  std::string spans_path;         // written by traced runs given --out
  std::string proxy_traces_path;  // only when the proxies retained traces
  const std::size_t setups = options.trace ? 2 * episodes : std::max(kMinSetups, episodes);
  // Untimed set-ups go before and after the timed episodes, so a stretch of
  // machine noise must cover both ends of the run to move the median.
  const std::size_t stride = setups / episodes;
  SetUp current;
  for (std::size_t i = 0; i < setups; ++i) {
    const bool timed = options.trace || (i % stride == stride / 2 && plain.size() < episodes);
    const bool tracing = options.trace && i % 2 == 1;
    current.rig.reset();  // one world alive at a time
    current = set_up(*workload, tracing);
    setup_seconds.push_back(current.seconds);
    absorb(current.warm, tracing ? "traced warm-up" : "warm-up");
    if (i == 0) first_warm = current.warm.digest;
    same_digest(first_warm, current.warm.digest, "warm-up");
    if (!timed) continue;
    if (!tracing) {
      plain.push_back(workload->run(*current.rig, nullptr));
      absorb(plain.back(), "timed run");
      continue;
    }
    const LayerMark before = mark_layers(*current.rig);
    traced.push_back(workload->run(*current.rig, &spans));
    absorb(traced.back(), "traced run");
    layers.push_back(layer_metrics(*current.rig, before, traced.back()));
    if (!options.out_dir.empty() && i + 1 == setups &&
        !current.rig->collector->traces().empty()) {
      proxy_traces_path = options.out_dir + "/proxy_traces_" + options.workload + ".json";
      if (!write_file(proxy_traces_path, current.rig->collector->chrome_trace_json())) {
        failures.push_back("cannot write " + proxy_traces_path);
      }
    }
  }
  for (const std::vector<PhaseResult>* phases : {&plain, &traced}) {
    for (const PhaseResult& phase : *phases) {
      same_digest(plain.front().digest, phase.digest, "timed episode");
    }
  }
  const std::vector<PhaseResult>& reported = options.trace ? traced : plain;
  const PhaseResult& first = reported.front();

  std::map<std::string, double> metrics;
  std::size_t attempted = 0;
  std::size_t ok = 0;
  for (const PhaseResult& phase : reported) {
    attempted += phase.attempted;
    ok += phase.ok;
  }
  if (!options.trace) {
    // Episodes repeat one seed, so the sim metrics of the first stand for all.
    metrics["sim_latency_p50_ms"] = percentile_of(first.latency_ms, 50);
    metrics["sim_latency_p99_ms"] = percentile_of(first.latency_ms, 99);
    metrics["ok_ratio"] =
        attempted == 0 ? 0 : static_cast<double>(ok) / static_cast<double>(attempted);
    metrics["units_per_s"] = best_rate(plain);
    std::vector<double> allocs_per_unit;
    for (const PhaseResult& p : plain) {
      allocs_per_unit.push_back(static_cast<double>(p.allocations) /
                                static_cast<double>(std::max<std::size_t>(1, p.attempted)));
    }
    metrics["allocs_per_unit"] = percentile_of(std::move(allocs_per_unit), 50);
    metrics["peak_rss_mb"] = peak_rss_mb();
    if (metrics["peak_rss_mb"] <= 0) failures.push_back("cannot read VmHWM of this process");
    metrics["setup_s"] = percentile_of(setup_seconds, 50);
  } else {
    // Counts repeat exactly across traced episodes; wall-clock layer
    // metrics take the median.
    for (const auto& [name, value] : layers.front()) {
      std::vector<double> values;
      for (const auto& episode : layers) values.push_back(episode.at(name));
      metrics[name] = percentile_of(std::move(values), 50);
    }
    const double plain_rate = best_rate(plain);
    metrics["obs.tracing_overhead_pct"] =
        plain_rate > 0 ? (1.0 - best_rate(traced) / plain_rate) * 100.0 : 0;
    metrics["sim.event_ns"] = probe_event_ns();
    metrics["sim.cancel_ns"] = probe_cancel_ns();
    metrics["http.origin_handler_us"] = probe_origin_handler_us(*workload);
    if (metrics["http.origin_handler_us"] <= 0) {
      failures.push_back("origin probe: FileServer did not answer 200");
    }
    if (!options.out_dir.empty()) {
      spans_path = options.out_dir + "/spans_" + options.workload + ".json";
      if (!write_file(spans_path, spans.chrome_trace_json())) {
        failures.push_back("cannot write " + spans_path);
      }
    }
  }

  const std::string config = workload->describe();
  std::string out = "{\"workload\":" + strings::json_quote(options.workload);
  out += ",\"seed\":" + std::to_string(workload->seed());
  out += ",\"trace\":" + std::string(options.trace ? "1" : "0");
  out += ",\"config\":" + strings::json_quote(config);
  out += ",\"config_digest\":" +
         strings::json_quote(crypto::hex_digest(crypto::sha256(config)).substr(0, 16));
  out += ",\"sim_digest\":" + strings::json_quote(first.digest.hex());
  out += ",\"n\":" + std::to_string(first.attempted);
  out += ",\"episodes\":" + std::to_string(reported.size());
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(attempted - ok);
  out += ",\"metrics\":" + json_object(metrics);
  out += ",\"checks\":" + json_object(first.checks);
  out += ",\"artifacts\":{\"spans\":" + strings::json_quote(spans_path) +
         ",\"proxy_traces\":" + strings::json_quote(proxy_traces_path) + "}";
  out += ",\"failures\":" + json_array(failures) + "}";
  std::printf("%s\n", out.c_str());
  return 0;
}
