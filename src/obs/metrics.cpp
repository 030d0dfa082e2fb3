#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <set>

#include "util/json.hpp"
#include "util/strings.hpp"

namespace pan::obs {

namespace {

/// Prom label values escape backslash, double quote, and newline.
std::string prom_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Renders `{a="1",b="2"}` (or "" when empty).
std::string prom_label_block(const std::vector<std::pair<std::string, std::string>>& labels) {
  if (labels.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += "=\"";
    out += prom_escape(value);
    out += '"';
  }
  out += '}';
  return out;
}

std::string prom_seconds(Duration d) {
  return strings::format("%.9g", d.nanos() / 1e9);
}

}  // namespace

Histogram::Histogram()
    : bounds_(default_latency_buckets()), counts_(bounds_.size() + 1, 0) {}

Histogram::Histogram(std::vector<Duration> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  counts_.assign(bounds_.size() + 1, 0);
}

const std::vector<Duration>& Histogram::default_latency_buckets() {
  static const std::vector<Duration> kBounds = [] {
    std::vector<Duration> bounds;
    // Nine linear sub-buckets per decade, 10 us .. 9 s. Every default
    // histogram shares this layout, which is what makes merge() a plain
    // count-wise sum.
    for (const std::int64_t decade :
         {10'000LL, 100'000LL, 1'000'000LL, 10'000'000LL, 100'000'000LL, 1'000'000'000LL}) {
      for (std::int64_t k = 1; k <= 9; ++k) bounds.push_back(Duration{decade * k});
    }
    // The top decade is cut at the 60 s request-timeout ceiling.
    for (std::int64_t k = 1; k <= 6; ++k) bounds.push_back(Duration{10'000'000'000LL * k});
    return bounds;
  }();
  return kBounds;
}

void Histogram::record(Duration value) {
  if (value < Duration::zero()) value = Duration::zero();
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  sum_ += value;
  ++count_;
}

void Histogram::record(Duration value, std::uint64_t trace_id, TimePoint at) {
  record(value);
  if (trace_id != 0) offer_exemplar(value < Duration::zero() ? Duration::zero() : value,
                                    trace_id, at);
}

void Histogram::offer_exemplar(Duration value, std::uint64_t trace_id, TimePoint at) {
  if (exemplar_count_ < kExemplarSlots) {
    exemplars_[exemplar_count_++] = Exemplar{value, trace_id, at};
    return;
  }
  // Full: displace the smallest held value when the new one beats it, so the
  // slots converge on the largest (tail) samples.
  std::size_t smallest = 0;
  for (std::size_t i = 1; i < kExemplarSlots; ++i) {
    if (exemplars_[i].value < exemplars_[smallest].value) smallest = i;
  }
  if (exemplars_[smallest].value < value) {
    exemplars_[smallest] = Exemplar{value, trace_id, at};
  }
}

std::vector<Exemplar> Histogram::exemplars() const {
  std::vector<Exemplar> out(exemplars_.begin(), exemplars_.begin() + exemplar_count_);
  std::sort(out.begin(), out.end(), [](const Exemplar& a, const Exemplar& b) {
    if (a.value != b.value) return b.value < a.value;
    return a.trace_id < b.trace_id;  // deterministic tie-break
  });
  return out;
}

bool Histogram::merge(const Histogram& other) {
  if (bounds_ != other.bounds_) return false;
  if (other.count_ == 0) return true;
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (count_ == 0 || other.max_ > max_) max_ = other.max_;
  sum_ += other.sum_;
  count_ += other.count_;
  for (std::uint8_t i = 0; i < other.exemplar_count_; ++i) {
    offer_exemplar(other.exemplars_[i].value, other.exemplars_[i].trace_id,
                   other.exemplars_[i].at);
  }
  return true;
}

Duration Histogram::percentile(double pct) const {
  if (count_ == 0) return Duration::zero();
  pct = std::clamp(pct, 0.0, 100.0);
  const double target = pct / 100.0 * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const std::uint64_t before = cumulative;
    cumulative += counts_[i];
    if (static_cast<double>(cumulative) < target) continue;
    // Interpolate within [lower, upper] of bucket i; the overflow bucket has
    // no upper bound, so report the observed max for it.
    if (i == bounds_.size()) return max_;
    const Duration lower = i == 0 ? Duration::zero() : bounds_[i - 1];
    const Duration upper = bounds_[i];
    const double frac =
        (target - static_cast<double>(before)) / static_cast<double>(counts_[i]);
    Duration estimate = lower + (upper - lower).scaled(std::clamp(frac, 0.0, 1.0));
    // The true extremes are known exactly; keep estimates inside them.
    estimate = std::clamp(estimate, min_, max_);
    return estimate;
  }
  return max_;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.count = count_;
  snap.sum = sum_;
  snap.min = min_;
  snap.max = max_;
  snap.p50 = percentile(50);
  snap.p95 = percentile(95);
  snap.p99 = percentile(99);
  snap.p999 = percentile(99.9);
  return snap;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  const Counter* counter = find_counter(name);
  return counter == nullptr ? 0 : counter->value();
}

std::string MetricsRegistry::to_json(std::string_view prefix) const {
  const auto matches = [prefix](const std::string& name) {
    return prefix.empty() || strings::starts_with(name, prefix);
  };
  util::JsonWriter w;
  w.begin_object().key("counters").begin_object();
  for (const auto& [name, counter] : counters_) {
    if (matches(name)) w.field(name, counter.value());
  }
  w.end_object().key("gauges").begin_object();
  for (const auto& [name, gauge] : gauges_) {
    if (matches(name)) w.key(name).fixed(gauge.value(), 6);
  }
  w.end_object().key("histograms").begin_object();
  for (const auto& [name, histogram] : histograms_) {
    if (!matches(name)) continue;
    const HistogramSnapshot snap = histogram.snapshot();
    w.key(name).begin_object().field("count", snap.count);
    w.key("sum_ms").fixed(snap.sum.millis(), 6);
    w.key("min_ms").fixed(snap.min.millis(), 6);
    w.key("max_ms").fixed(snap.max.millis(), 6);
    w.key("p50_ms").fixed(snap.p50.millis(), 6);
    w.key("p95_ms").fixed(snap.p95.millis(), 6);
    w.key("p99_ms").fixed(snap.p99.millis(), 6);
    w.key("p999_ms").fixed(snap.p999.millis(), 6);
    w.key("buckets").begin_array();
    const auto& bounds = histogram.bounds();
    const auto& counts = histogram.bucket_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      w.begin_object().key("le_ms");
      if (i == bounds.size()) {
        w.value("+Inf");
      } else {
        w.fixed(bounds[i].millis(), 6);
      }
      w.field("count", counts[i]).end_object();
    }
    w.end_array().key("exemplars").begin_array();
    for (const Exemplar& ex : histogram.exemplars()) {
      w.begin_object().key("value_ms").fixed(ex.value.millis(), 6);
      w.field("trace_id", std::to_string(ex.trace_id));
      w.key("at_ms").fixed(ex.at.millis(), 6).end_object();
    }
    w.end_array().end_object();
  }
  w.end_object().end_object();
  return w.take();
}

std::string prom_name(std::string_view name) {
  const auto brace = name.find('{');
  if (brace != std::string_view::npos) name = name.substr(0, brace);
  std::string out = "pan_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> prom_labels_of(std::string_view name) {
  std::vector<std::pair<std::string, std::string>> labels;
  const auto brace = name.find('{');
  if (brace == std::string_view::npos) return labels;
  std::string_view inner = name.substr(brace + 1);
  if (!inner.empty() && inner.back() == '}') inner.remove_suffix(1);
  for (const std::string_view part : strings::split_trimmed(inner, ',')) {
    const auto eq = part.find('=');
    std::string key;
    std::string value;
    if (eq == std::string_view::npos) {
      key = "tag";
      value = std::string(part);
    } else {
      value = std::string(part.substr(eq + 1));
      // Keys must fit the prom label grammar; values are escaped at render.
      for (const char c : part.substr(0, eq)) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        key += ok ? c : '_';
      }
      if (key.empty() || (key[0] >= '0' && key[0] <= '9')) key = "_" + key;
    }
    labels.emplace_back(std::move(key), std::move(value));
  }
  return labels;
}

std::string MetricsRegistry::to_prom(
    std::string_view prefix,
    const std::vector<std::pair<std::string, std::string>>& base_labels) const {
  const auto matches = [prefix](const std::string& name) {
    return prefix.empty() || strings::starts_with(name, prefix);
  };
  const auto labels_for = [&base_labels](const std::string& name) {
    std::vector<std::pair<std::string, std::string>> labels = base_labels;
    for (auto& extra : prom_labels_of(name)) labels.push_back(std::move(extra));
    return labels;
  };
  std::string out;
  // Instruments whose names differ only in the embedded "{key=value}" label
  // suffix (per-path counters, per-replica series) collapse into one prom
  // family; the text format allows exactly one TYPE line per family, so
  // remember what has been declared. Name-ordered iteration keeps a family's
  // samples adjacent.
  std::set<std::string> declared;
  for (const auto& [name, counter] : counters_) {
    if (!matches(name)) continue;
    const std::string pname = prom_name(name);
    if (declared.insert(pname).second) out += "# TYPE " + pname + " counter\n";
    out += pname + prom_label_block(labels_for(name)) + " " +
           std::to_string(counter.value()) + "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    if (!matches(name)) continue;
    const std::string pname = prom_name(name);
    if (declared.insert(pname).second) out += "# TYPE " + pname + " gauge\n";
    out += pname + prom_label_block(labels_for(name)) + " " +
           strings::format("%.6f", gauge.value()) + "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    if (!matches(name)) continue;
    const std::string pname = prom_name(name);
    const auto labels = labels_for(name);
    if (declared.insert(pname).second) out += "# TYPE " + pname + " histogram\n";
    const auto& bounds = histogram.bounds();
    const auto& counts = histogram.bucket_counts();
    // OpenMetrics allows one exemplar per bucket line; attach each held
    // exemplar to the first bucket that contains its value.
    const std::vector<Exemplar> exemplars = histogram.exemplars();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      cumulative += counts[i];
      std::vector<std::pair<std::string, std::string>> bucket_labels = labels;
      bucket_labels.emplace_back(
          "le", i == bounds.size() ? std::string("+Inf") : prom_seconds(bounds[i]));
      out += pname + "_bucket" + prom_label_block(bucket_labels) + " " +
             std::to_string(cumulative);
      const Duration lower = i == 0 ? Duration{-1} : bounds[i - 1];
      for (const Exemplar& ex : exemplars) {
        const bool in_bucket =
            ex.value > lower && (i == bounds.size() || ex.value <= bounds[i]);
        if (!in_bucket) continue;
        out += " # {trace_id=\"" + std::to_string(ex.trace_id) + "\"} " +
               prom_seconds(ex.value);
        break;  // one exemplar per line
      }
      out += "\n";
    }
    out += pname + "_sum" + prom_label_block(labels) + " " + prom_seconds(histogram.sum()) +
           "\n";
    out += pname + "_count" + prom_label_block(labels) + " " +
           std::to_string(histogram.count()) + "\n";
  }
  return out;
}

}  // namespace pan::obs
