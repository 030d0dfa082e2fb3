#include "proxy/fleet_metrics.hpp"

#include "util/json.hpp"

namespace pan::proxy {

void FleetMetricsAggregator::ingest(const std::string& name, std::uint64_t generation,
                                    const obs::MetricsRegistry& registry, TimePoint now) {
  Slot& slot = slots_[name];
  if (slot.seen && slot.generation != generation) {
    // The replica restarted since the last snapshot: its cumulative state
    // reset to zero. Fold what the dead generation reported into the
    // monotonic base so the fleet totals never step backward.
    ++folds_;
    ++slot.folds;
    for (const auto& [cname, value] : slot.counter_latest) slot.counter_base[cname] += value;
    for (const auto& [hname, hist] : slot.hist_latest) {
      auto it = slot.hist_base.find(hname);
      if (it == slot.hist_base.end()) {
        slot.hist_base.emplace(hname, hist);
      } else if (!it->second.merge(hist)) {
        ++layout_conflicts_;
      }
    }
    slot.counter_latest.clear();
    slot.gauge_latest.clear();
    slot.hist_latest.clear();
  }
  slot.seen = true;
  slot.generation = generation;
  slot.last_ingest = now;
  ++ingests_;
  for (const auto& [cname, counter] : registry.counters()) {
    slot.counter_latest[cname] = counter.value();
  }
  for (const auto& [gname, gauge] : registry.gauges()) {
    slot.gauge_latest[gname] = gauge.value();
  }
  slot.hist_latest.clear();
  for (const auto& [hname, hist] : registry.histograms()) {
    slot.hist_latest.emplace(hname, hist);
  }
}

void FleetMetricsAggregator::merge_histogram(const std::string& name,
                                             const obs::Histogram& h,
                                             obs::MetricsRegistry& out) const {
  obs::Histogram& target = out.histogram(name);
  if (target.merge(h)) return;
  if (target.count() == 0) {
    // Foreign (explicit-bounds) layout and nothing merged yet: adopt it.
    target = h;
  } else {
    ++layout_conflicts_;
  }
}

void FleetMetricsAggregator::merge_slot_into(const Slot& slot,
                                             obs::MetricsRegistry& out) const {
  for (const auto& [name, value] : slot.counter_base) out.counter(name).inc(value);
  for (const auto& [name, value] : slot.counter_latest) out.counter(name).inc(value);
  for (const auto& [name, value] : slot.gauge_latest) out.gauge(name).add(value);
  for (const auto& [name, hist] : slot.hist_base) merge_histogram(name, hist, out);
  for (const auto& [name, hist] : slot.hist_latest) merge_histogram(name, hist, out);
}

void FleetMetricsAggregator::build_merged(obs::MetricsRegistry& out) const {
  for (const auto& [name, slot] : slots_) {
    (void)name;
    merge_slot_into(slot, out);
  }
}

bool FleetMetricsAggregator::build_replica(const std::string& name,
                                           obs::MetricsRegistry& out) const {
  const auto it = slots_.find(name);
  if (it == slots_.end()) return false;
  merge_slot_into(it->second, out);
  return true;
}

std::string FleetMetricsAggregator::fleet_json(std::string_view prefix) const {
  util::JsonWriter w;
  w.begin_object().key("replicas").begin_object();
  for (const auto& [name, slot] : slots_) {
    obs::MetricsRegistry view;
    merge_slot_into(slot, view);
    w.key(name).begin_object().field("generation", slot.generation).field("folds", slot.folds);
    w.key("last_ingest_ms").fixed(slot.last_ingest.millis(), 3);
    w.key("metrics").raw(view.to_json(prefix)).end_object();
  }
  obs::MetricsRegistry merged;
  build_merged(merged);
  w.end_object().key("fleet").raw(merged.to_json(prefix));
  w.field("ingests", ingests_).field("generation_folds", folds_);
  w.field("layout_conflicts", layout_conflicts_).end_object();
  return w.take();
}

std::string FleetMetricsAggregator::fleet_prom(std::string_view prefix) const {
  obs::MetricsRegistry merged;
  build_merged(merged);
  return merged.to_prom(prefix, {{"scope", "fleet"}});
}

}  // namespace pan::proxy
