#include "obs/collector.hpp"

#include <algorithm>

#include "util/json.hpp"
#include "util/strings.hpp"

namespace pan::obs {

namespace {

/// In-flight traces kept before the oldest is evicted.
constexpr std::size_t kMaxPending = 256;
/// Spans kept per trace; excess spans are counted and dropped.
constexpr std::size_t kMaxSpansPerTrace = 64;

std::string hex_id(std::uint64_t id) {
  return strings::format("0x%016llx", static_cast<unsigned long long>(id));
}

void write_attrs(util::JsonWriter& w,
                 const std::vector<std::pair<std::string, std::string>>& attrs) {
  for (const auto& [key, value] : attrs) w.field(key, value);
}

}  // namespace

bool TraceCollector::head_sample(unsigned priority) {
  const std::size_t cls = priority >= 2 ? 2 : priority;
  const std::uint32_t rate = cls == 0   ? config_.sample_document
                             : cls == 1 ? config_.sample_subresource
                                        : config_.sample_probe;
  const std::uint64_t seen = sample_seen_[cls]++;
  if (rate == 0) return false;
  return seen % rate == 0;
}

void TraceCollector::record_span(CollectedSpan span) {
  ++spans_recorded_;
  auto it = pending_.find(span.trace_id);
  if (it == pending_.end()) {
    // New in-flight trace; evict the oldest when over budget so a hop that
    // keeps emitting after finalize (late reverse-proxy spans) stays bounded.
    while (pending_order_.size() >= kMaxPending) {
      pending_.erase(pending_order_.front());
      pending_order_.pop_front();
      ++evicted_;
    }
    pending_order_.push_back(span.trace_id);
    it = pending_.emplace(span.trace_id, std::vector<CollectedSpan>{}).first;
  }
  if (it->second.size() >= kMaxSpansPerTrace) {
    ++spans_dropped_;
    return;
  }
  it->second.push_back(std::move(span));
}

void TraceCollector::finalize(std::uint64_t trace_id, std::string_view outcome, bool keep) {
  const auto it = pending_.find(trace_id);
  if (it == pending_.end()) return;
  std::vector<CollectedSpan> spans = std::move(it->second);
  pending_.erase(it);
  pending_order_.erase(
      std::find(pending_order_.begin(), pending_order_.end(), trace_id));
  if (!keep) {
    ++sampled_out_;
    return;
  }
  TraceRecord record;
  record.trace_id = trace_id;
  record.outcome = std::string(outcome);
  // Spans arrive in completion order; sort by start (stable, so equal starts
  // keep arrival order) so exports read chronologically.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const CollectedSpan& a, const CollectedSpan& b) { return a.start < b.start; });
  record.spans = std::move(spans);
  done_.push_back(std::move(record));
  while (done_.size() > config_.max_traces) {
    done_.pop_front();
    ++evicted_;
  }
}

void TraceCollector::attach_events(std::uint64_t trace_id, std::vector<FlightEvent> events) {
  for (auto it = done_.rbegin(); it != done_.rend(); ++it) {
    if (it->trace_id != trace_id) continue;
    it->events = std::move(events);
    return;
  }
}

const TraceRecord* TraceCollector::find(std::uint64_t trace_id) const {
  for (auto it = done_.rbegin(); it != done_.rend(); ++it) {
    if (it->trace_id == trace_id) return &*it;
  }
  return nullptr;
}

void TraceCollector::collect_chrome_events(const TraceRecord& trace,
                                           std::map<std::string, int>& tids,
                                           std::vector<std::pair<double, std::string>>& out) {
  for (const CollectedSpan& span : trace.spans) {
    auto [it, inserted] = tids.emplace(span.component, 0);
    if (inserted) it->second = static_cast<int>(tids.size());
    const double ts = span.start.nanos() / 1e3;  // trace_event wants microseconds
    util::JsonWriter w;
    w.begin_object().field("ph", "X").field("name", span.name).field("cat", span.component);
    w.key("ts").fixed(ts, 3).key("dur").fixed(span.duration.nanos() / 1e3, 3);
    w.field("pid", 1).field("tid", it->second);
    w.key("args").begin_object().field("trace", hex_id(span.trace_id));
    w.field("span", hex_id(span.span_id)).field("parent", hex_id(span.parent_id));
    write_attrs(w, span.attrs);
    w.end_object().end_object();
    out.emplace_back(ts, w.take());
  }
  for (const FlightEvent& fe : trace.events) {
    const double ts = fe.at.nanos() / 1e3;
    util::JsonWriter w;
    w.begin_object().field("ph", "i").field("s", "g").field("name", fe.component + ":" + fe.kind);
    w.key("ts").fixed(ts, 3).field("pid", 1).field("tid", 0);
    w.key("args").begin_object().field("trace", hex_id(trace.trace_id));
    w.field("detail", fe.detail).end_object().end_object();
    out.emplace_back(ts, w.take());
  }
}

std::string TraceCollector::wrap_chrome_events(const std::map<std::string, int>& tids,
                                               std::vector<std::pair<double, std::string>> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  util::JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  for (const auto& [component, tid] : tids) {
    w.begin_object().field("ph", "M").field("name", "thread_name").field("pid", 1);
    w.field("tid", tid).key("args").begin_object().field("name", component);
    w.end_object().end_object();
  }
  for (const auto& [ts, event] : events) w.raw(event);
  w.end_array().field("displayTimeUnit", "ms").end_object();
  return w.take();
}

std::string TraceCollector::chrome_trace_json() const {
  std::map<std::string, int> tids;
  std::vector<std::pair<double, std::string>> events;
  for (const TraceRecord& trace : done_) collect_chrome_events(trace, tids, events);
  return wrap_chrome_events(tids, std::move(events));
}

std::string TraceCollector::chrome_trace_json(const TraceRecord& trace) {
  std::map<std::string, int> tids;
  std::vector<std::pair<double, std::string>> events;
  collect_chrome_events(trace, tids, events);
  return wrap_chrome_events(tids, std::move(events));
}

std::string TraceCollector::spans_jsonl() const {
  util::JsonWriter w;
  for (const TraceRecord& trace : done_) {
    for (const CollectedSpan& span : trace.spans) {
      w.begin_object().field("trace", hex_id(span.trace_id));
      w.field("span", hex_id(span.span_id)).field("parent", hex_id(span.parent_id));
      w.field("name", span.name).field("component", span.component);
      w.key("start_ms").fixed(span.start.millis(), 6);
      w.key("dur_ms").fixed(span.duration.millis(), 6);
      w.field("outcome", trace.outcome);
      write_attrs(w, span.attrs);
      w.end_object().raw("\n");
    }
  }
  return w.take();
}

std::string TraceCollector::stats_json() const {
  util::JsonWriter w;
  w.begin_object().field("retained", done_.size()).field("pending", pending_.size());
  w.field("spans_recorded", spans_recorded_).field("spans_dropped", spans_dropped_);
  w.field("sampled_out", sampled_out_).field("evicted", evicted_).end_object();
  return w.take();
}

}  // namespace pan::obs
