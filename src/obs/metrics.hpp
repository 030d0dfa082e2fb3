// Observability: the metrics registry.
//
// A MetricsRegistry is the measurement substrate for the reproduction's
// performance work: every subsystem that wants attribution registers named
// instruments here — monotonic counters, gauges, and fixed-bucket latency
// histograms with percentile snapshots. The registry is deliberately simple
// and deterministic (instruments live in ordered maps, so a JSON dump of the
// same run is byte-identical), single-threaded like the simulator itself,
// and allocation-light on the hot path (instrument lookup returns a stable
// reference that callers cache).
//
// Histograms are *mergeable*: the default bucket layout is log-linear (nine
// linear sub-buckets per decade), identical for every default histogram in
// the fleet, so merging two histograms is a count-wise sum — associative and
// commutative — and a fleet-merged histogram is bit-identical to a histogram
// fed the pooled samples. Each histogram additionally keeps a bounded set of
// exemplar slots: tail records tagged with a trace id, the one-hop bridge
// from a p99.9 bucket to the offending /skip/trace/<id>.
//
// The SKIP proxy owns a registry (or shares one injected through
// ProxyConfig::metrics, which is how the figure benches aggregate across
// per-trial proxies) and serves a dump at the /skip/metrics endpoint (JSON)
// and /skip/metrics.prom (Prometheus text exposition).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "util/types.hpp"

namespace pan::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// A value that can go up and down (pool sizes, active revocations, ...).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double delta) { value_ += delta; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Point-in-time view of a histogram, with the percentiles the paper's
/// latency analysis needs. Percentiles are estimated by linear interpolation
/// inside the containing bucket and clamped to the observed min/max.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  Duration sum = Duration::zero();
  Duration min = Duration::zero();
  Duration max = Duration::zero();
  Duration p50 = Duration::zero();
  Duration p95 = Duration::zero();
  Duration p99 = Duration::zero();
  Duration p999 = Duration::zero();

  [[nodiscard]] Duration mean() const {
    return count == 0 ? Duration::zero() : sum / static_cast<std::int64_t>(count);
  }
};

/// One exemplar: a recorded value tagged with the trace that produced it.
/// Slots keep the largest tagged values seen, so the surviving exemplars are
/// exactly the tail outliers an operator wants to drill into.
struct Exemplar {
  Duration value = Duration::zero();
  std::uint64_t trace_id = 0;
  TimePoint at;
};

/// Fixed-bucket latency histogram. Bucket bounds are upper-inclusive and
/// ascending; an implicit overflow bucket catches everything above the last
/// bound. Recording is O(log buckets) and allocation-free; snapshots are
/// O(buckets).
class Histogram {
 public:
  /// Bounded exemplar slots per histogram (fixed array: no allocation).
  static constexpr std::size_t kExemplarSlots = 4;

  /// The default layout (copied, not rebuilt).
  Histogram();
  explicit Histogram(std::vector<Duration> bounds);

  void record(Duration value);
  /// Records a value and offers it as an exemplar tagged with `trace_id`
  /// (0 = untagged: plain record). A slot is claimed when the value exceeds
  /// the smallest currently held exemplar — largest values win.
  void record(Duration value, std::uint64_t trace_id, TimePoint at);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] Duration sum() const { return sum_; }
  [[nodiscard]] HistogramSnapshot snapshot() const;
  /// Percentile in [0, 100], estimated from the buckets.
  [[nodiscard]] Duration percentile(double pct) const;

  [[nodiscard]] const std::vector<Duration>& bounds() const { return bounds_; }
  /// Per-bucket counts; size is bounds().size() + 1 (last = overflow).
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }

  /// Merges `other` into this histogram: count-wise bucket sum, summed
  /// totals, extreme min/max, and the union's largest exemplars. Requires an
  /// identical bucket layout (guaranteed for default-constructed histograms);
  /// returns false — and merges nothing — when the layouts differ.
  /// Associative and commutative: any merge order yields the same state, and
  /// the result is identical to one histogram fed the pooled samples.
  [[nodiscard]] bool merge(const Histogram& other);

  /// The valid exemplars, ordered largest value first.
  [[nodiscard]] std::vector<Exemplar> exemplars() const;

  /// Log-linear default layout: nine linear sub-buckets per decade from
  /// 10 us through 10 s (10,20,...,90 us; 100,200,...,900 us; ...), then
  /// 10..60 s. Within a decade every bucket is one decade-width wide, which
  /// is the merged-percentile error bound the property tests assert. The
  /// layout is universal so any two default histograms merge. Built once.
  [[nodiscard]] static const std::vector<Duration>& default_latency_buckets();

 private:
  void offer_exemplar(Duration value, std::uint64_t trace_id, TimePoint at);

  std::vector<Duration> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  Duration sum_ = Duration::zero();
  Duration min_ = Duration::zero();
  Duration max_ = Duration::zero();
  std::array<Exemplar, kExemplarSlots> exemplars_{};
  std::uint8_t exemplar_count_ = 0;
};

/// Named instruments. References returned by counter()/gauge()/histogram()
/// remain valid for the registry's lifetime (node-stable maps).
class MetricsRegistry {
 public:
  [[nodiscard]] Counter& counter(const std::string& name) { return counters_[name]; }
  [[nodiscard]] Gauge& gauge(const std::string& name) { return gauges_[name]; }
  [[nodiscard]] Histogram& histogram(const std::string& name) { return histograms_[name]; }

  [[nodiscard]] const Counter* find_counter(const std::string& name) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;

  /// Counter value, or 0 when the counter was never touched.
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;

  [[nodiscard]] const std::map<std::string, Counter>& counters() const { return counters_; }
  [[nodiscard]] const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Full dump: {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  /// Durations are reported in milliseconds; the overflow bucket's bound is
  /// the string "+Inf". Deterministic (name-ordered) output. A non-empty
  /// `prefix` keeps only instruments whose name starts with it (the
  /// /skip/metrics?prefix= filter).
  [[nodiscard]] std::string to_json(std::string_view prefix = {}) const;

  /// Prometheus-style text exposition (counters, gauges, histograms with
  /// cumulative le buckets in seconds, OpenMetrics exemplar annotations on
  /// tail buckets). Instrument names are sanitized into the prom grammar
  /// ("proxy.request_total" -> "pan_proxy_request_total"); a name carrying
  /// an embedded "{key=value,...}" suffix becomes prom labels. `base_labels`
  /// are stamped on every series (replica / fleet scope); `prefix` filters
  /// like to_json.
  [[nodiscard]] std::string to_prom(
      std::string_view prefix = {},
      const std::vector<std::pair<std::string, std::string>>& base_labels = {}) const;

  /// The flight recorder rides on the registry so every component that
  /// already holds a registry pointer can record control-plane events
  /// without new plumbing. See obs/flight_recorder.hpp.
  [[nodiscard]] FlightRecorder& events() { return events_; }
  [[nodiscard]] const FlightRecorder& events() const { return events_; }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  FlightRecorder events_;
};

/// Sanitizes an instrument name into the prom name grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` with a "pan_" namespace prefix; any embedded
/// "{...}" suffix is split off and returned as label pairs.
[[nodiscard]] std::string prom_name(std::string_view name);
[[nodiscard]] std::vector<std::pair<std::string, std::string>> prom_labels_of(
    std::string_view name);

}  // namespace pan::obs
