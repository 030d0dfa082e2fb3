#include "http/origin_pool.hpp"

#include <algorithm>

#include "util/log.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace pan::http {

namespace {

constexpr std::string_view kLog = "pool";
constexpr std::size_t kNone = static_cast<std::size_t>(-1);
/// Deadline shedding stays off until the queue-wait histogram has this many
/// samples — a p90 computed from a handful of waits is noise.
constexpr std::uint64_t kShedMinSamples = 8;

}  // namespace

bool OriginPool::is_queue_timeout(const std::string& error) {
  return strings::starts_with(error, kQueueTimeoutError);
}

bool OriginPool::is_fast_fail(const std::string& error) {
  return strings::starts_with(error, kFastFailError);
}

bool OriginPool::is_shed(const std::string& error) {
  return strings::starts_with(error, kShedError);
}

bool OriginPool::is_expired(const std::string& error) {
  return strings::starts_with(error, kExpiredError);
}

bool OriginPool::is_pool_synthesized(const std::string& error) {
  return is_queue_timeout(error) || is_fast_fail(error) || is_shed(error) ||
         is_expired(error);
}

OriginPool::OriginPool(sim::Simulator& sim, obs::MetricsRegistry& metrics,
                       OriginPoolConfig config)
    : sim_(sim),
      metrics_(metrics),
      config_(std::move(config)),
      hits_(metrics.counter("pool." + config_.name + ".hits")),
      misses_(metrics.counter("pool." + config_.name + ".misses")),
      evictions_(metrics.counter("pool." + config_.name + ".evictions")),
      pruned_(metrics.counter("pool." + config_.name + ".pruned")),
      queue_timeouts_(metrics.counter("pool." + config_.name + ".queue_timeouts")),
      fastfails_(metrics.counter("pool." + config_.name + ".fastfails")),
      cooldowns_(metrics.counter("pool." + config_.name + ".cooldowns")),
      sheds_(metrics.counter("pool." + config_.name + ".sheds")),
      expired_dispatches_(metrics.counter("pool." + config_.name + ".expired_dispatches")),
      migrations_(metrics.counter("pool." + config_.name + ".migrations")),
      conns_gauge_(metrics.gauge("pool." + config_.name + ".conns")),
      queue_depth_(metrics.gauge("pool." + config_.name + ".queue_depth")),
      queue_wait_(metrics.histogram("pool.queue_wait")) {}

OriginPool::~OriginPool() { *alive_ = false; }

bool OriginPool::cooling_down(const Origin& origin) const {
  return config_.backoff_threshold > 0 && sim_.now() < origin.cooldown_until;
}

void OriginPool::set_conn_gauge() {
  conns_gauge_.set(static_cast<double>(total_conns_));
}

void OriginPool::fail_waiter(Waiter waiter, std::string_view error) {
  if (waiter.timeout_event != sim::kInvalidEventId) sim_.cancel(waiter.timeout_event);
  waiter.on_response(Err(std::string(error)));
}

void OriginPool::submit(const std::string& key, HttpRequest request,
                        HttpClientStream::ResponseFn on_response, ConnFactory factory) {
  submit(key, std::move(request), SubmitOptions{}, std::move(on_response),
         std::move(factory));
}

void OriginPool::submit(const std::string& key, HttpRequest request, SubmitOptions options,
                        HttpClientStream::ResponseFn on_response, ConnFactory factory) {
  Origin& origin = origins_[key];
  if (cooling_down(origin)) {
    fastfails_.inc();
    on_response(Err(std::string(kFastFailError) + ": " + key));
    return;
  }
  Waiter waiter;
  waiter.id = next_waiter_id_++;
  waiter.priority = options.priority;
  waiter.deadline = options.deadline;
  waiter.request = std::move(request);
  waiter.on_response = std::move(on_response);
  waiter.factory = std::move(factory);
  waiter.enqueued_at = sim_.now();
  if (config_.queue_timeout > Duration::zero()) {
    waiter.timeout_event = sim_.schedule_after(
        config_.queue_timeout, [this, alive = alive_, key, id = waiter.id] {
          if (!*alive) return;
          const auto it = origins_.find(key);
          if (it == origins_.end()) return;
          auto& waiting = it->second.waiting;
          const auto wit = std::find_if(waiting.begin(), waiting.end(),
                                        [id](const Waiter& w) { return w.id == id; });
          if (wit == waiting.end()) return;  // already dispatched
          Waiter timed_out = std::move(*wit);
          waiting.erase(wit);
          --total_queued_;
          queue_depth_.set(static_cast<double>(total_queued_));
          queue_timeouts_.inc();
          timed_out.timeout_event = sim::kInvalidEventId;  // this event; already fired
          PAN_DEBUG(kLog) << config_.name << "/" << key << ": queue-wait timeout";
          fail_waiter(std::move(timed_out), std::string(kQueueTimeoutError) + ": " + key);
        });
  }
  origin.waiting.push_back(std::move(waiter));
  ++total_queued_;
  queue_depth_.set(static_cast<double>(total_queued_));
  dispatch(key);
}

void OriginPool::release_deferred(std::unique_ptr<PooledConnection> conn) {
  // A completion callback on this connection may still be on the call stack
  // (fetch() can complete synchronously on a dead stream, and the transport
  // touches itself again after invoking the callback), so destruction is
  // deferred through the event loop.
  std::shared_ptr<PooledConnection> dead(std::move(conn));
  sim_.schedule_after(Duration::zero(), [dead] {});
}

void OriginPool::prune_closed(Origin& origin) {
  std::size_t removed = 0;
  for (auto it = origin.conns.begin(); it != origin.conns.end();) {
    if (!it->conn->usable() && it->outstanding == 0) {
      // A wedged-but-open connection (dead HTTP/1 stream) still holds
      // transport state; close it before letting go.
      if (it->conn->transport().state() != transport::Connection::State::kClosed) {
        it->conn->shutdown();
      }
      release_deferred(std::move(it->conn));
      it = origin.conns.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  if (removed > 0) {
    pruned_.inc(removed);
    total_conns_ -= removed;
    set_conn_gauge();
  }
}

std::size_t OriginPool::best_waiter(const Origin& origin) {
  std::size_t best = kNone;
  for (std::size_t i = 0; i < origin.waiting.size(); ++i) {
    // Strictly-less keeps FIFO order inside a priority class.
    if (best == kNone || origin.waiting[i].priority < origin.waiting[best].priority) {
      best = i;
    }
  }
  return best;
}

OriginPool::Waiter OriginPool::take_waiter(Origin& origin, std::size_t index) {
  Waiter waiter = std::move(origin.waiting[index]);
  origin.waiting.erase(origin.waiting.begin() + static_cast<std::ptrdiff_t>(index));
  --total_queued_;
  queue_depth_.set(static_cast<double>(total_queued_));
  return waiter;
}

std::size_t OriginPool::effective_limit(const std::string& key) const {
  if (config_.limiter == nullptr) return kNone;  // SIZE_MAX: static caps only
  return std::max<std::size_t>(1, config_.limiter->limit(key));
}

void OriginPool::dispatch(const std::string& key) {
  // Re-entrancy: fetch() can complete synchronously (dead stream), and the
  // completion path runs user callbacks that may submit() again — which can
  // rehash origins_ or grow this origin's connection vector. No reference
  // into the map survives across a fetch; every iteration re-looks-up.
  {
    const auto it = origins_.find(key);
    if (it == origins_.end()) return;
    prune_closed(it->second);
  }
  while (true) {
    auto it = origins_.find(key);
    if (it == origins_.end() || it->second.waiting.empty()) return;
    Origin& origin = it->second;
    if (cooling_down(origin)) {
      // The origin tripped its cool-down with requests still parked behind
      // it; fail them now rather than dialing a known-dead origin.
      Waiter waiter = take_waiter(origin, 0);
      fastfails_.inc();
      fail_waiter(std::move(waiter), std::string(kFastFailError) + ": " + key);
      continue;
    }

    // Dispatch-time expiry: a waiter whose deadline already passed gets an
    // immediate failure instead of a connection slot — its caller has long
    // answered 504, and dispatching it would burn origin capacity on a
    // request nobody is waiting for.
    {
      const auto expired = std::find_if(
          origin.waiting.begin(), origin.waiting.end(), [this](const Waiter& w) {
            return w.deadline.has_value() && *w.deadline <= sim_.now();
          });
      if (expired != origin.waiting.end()) {
        Waiter waiter = take_waiter(
            origin, static_cast<std::size_t>(expired - origin.waiting.begin()));
        expired_dispatches_.inc();
        metrics_.events().record(sim_.now(), "pool", "expired-dispatch",
                                 config_.name + "/" + key);
        fail_waiter(std::move(waiter), std::string(kExpiredError) + ": " + key);
        continue;
      }
    }

    // Capacity: the static per-conn caps plus the adaptive window. Only
    // usable connections count against max_conns_per_origin — a wedged
    // connection with requests still outstanding holds a pool slot until its
    // fetches drain, and counting it would let an all-wedged origin block
    // every new dial until queue timeout.
    std::size_t outstanding_total = 0;
    std::size_t usable_conns = 0;
    for (Entry& entry : origin.conns) {
      outstanding_total += entry.outstanding;
      if (entry.conn->usable()) ++usable_conns;
    }
    std::size_t chosen = kNone;
    if (outstanding_total < effective_limit(key)) {
      // Least-outstanding live connection.
      std::size_t best = kNone;
      for (std::size_t i = 0; i < origin.conns.size(); ++i) {
        Entry& entry = origin.conns[i];
        if (!entry.conn->usable()) continue;
        if (best == kNone || entry.outstanding < origin.conns[best].outstanding) best = i;
      }
      if (best != kNone && origin.conns[best].outstanding == 0) {
        chosen = best;  // idle connection: plain reuse
        hits_.inc();
      } else if (usable_conns < config_.max_conns_per_origin) {
        origin.conns.push_back(Entry{origin.waiting[best_waiter(origin)].factory(), 0, 0});
        chosen = origin.conns.size() - 1;
        ++total_conns_;
        set_conn_gauge();
        misses_.inc();
      } else if (best != kNone && (config_.max_outstanding_per_conn == 0 ||
                                   origin.conns[best].outstanding <
                                       config_.max_outstanding_per_conn)) {
        chosen = best;  // pool full: share the least-loaded live connection
        hits_.inc();
      }
    }
    if (chosen == kNone) {
      // At capacity. CoDel-style deadline shedding: a parked waiter whose
      // remaining budget cannot cover the observed p90 queue wait would
      // almost surely ripen into a 504 — fail it fast instead, so the
      // caller can retry elsewhere and the queue holds only viable work.
      if (!config_.deadline_shed || queue_wait_.count() < kShedMinSamples) return;
      const Duration p90 = queue_wait_.percentile(90.0);
      const auto hopeless = std::find_if(
          origin.waiting.begin(), origin.waiting.end(), [&](const Waiter& w) {
            return w.deadline.has_value() && sim_.now() + p90 >= *w.deadline;
          });
      if (hopeless == origin.waiting.end()) return;
      Waiter waiter = take_waiter(
          origin, static_cast<std::size_t>(hopeless - origin.waiting.begin()));
      sheds_.inc();
      metrics_.events().record(sim_.now(), "pool", "shed",
                               config_.name + "/" + key + " queue-wait p90 exceeds budget");
      PAN_DEBUG(kLog) << config_.name << "/" << key
                      << ": shedding waiter (queue-wait p90 exceeds budget)";
      fail_waiter(std::move(waiter), std::string(kShedError) + ": " + key);
      continue;  // the callback may have re-entered submit(); re-look-up
    }

    Waiter waiter = take_waiter(origin, best_waiter(origin));
    if (waiter.timeout_event != sim::kInvalidEventId) sim_.cancel(waiter.timeout_event);
    queue_wait_.record(sim_.now() - waiter.enqueued_at);

    Entry& entry = origin.conns[chosen];
    ++entry.outstanding;
    ++entry.idle_epoch;  // invalidates any pending idle-eviction check
    PooledConnection* conn = entry.conn.get();
    conn->fetch(waiter.request,
                [this, alive = alive_, key, conn, started = sim_.now(),
                 cb = std::move(waiter.on_response)](Result<HttpResponse> result) mutable {
                  if (!*alive) {
                    cb(std::move(result));
                    return;
                  }
                  if (config_.limiter != nullptr) {
                    config_.limiter->record(key, sim_.now() - started, result.ok());
                  }
                  on_fetch_done(key, conn, result.ok());
                  cb(std::move(result));
                  if (*alive) dispatch(key);
                });
  }
}

void OriginPool::on_fetch_done(const std::string& key, PooledConnection* conn, bool ok) {
  const auto it = origins_.find(key);
  if (it == origins_.end()) return;
  Origin& origin = it->second;
  for (Entry& entry : origin.conns) {
    if (entry.conn.get() != conn || entry.outstanding == 0) continue;
    --entry.outstanding;
    if (entry.outstanding == 0) arm_idle_eviction(key, entry);
    break;
  }
  if (ok) {
    origin.consecutive_failures = 0;
    return;
  }
  ++origin.consecutive_failures;
  if (config_.backoff_threshold > 0 &&
      origin.consecutive_failures >= config_.backoff_threshold &&
      !cooling_down(origin)) {
    origin.cooldown_until = sim_.now() + config_.backoff_cooldown;
    cooldowns_.inc();
    metrics_.events().record(
        sim_.now(), "pool", "cooldown",
        config_.name + "/" + key + " after " +
            std::to_string(origin.consecutive_failures) + " consecutive failures");
    PAN_DEBUG(kLog) << config_.name << "/" << key << ": " << origin.consecutive_failures
                    << " consecutive failures, cooling down";
  }
}

void OriginPool::arm_idle_eviction(const std::string& key, Entry& entry) {
  if (config_.idle_ttl <= Duration::zero()) return;
  const std::uint64_t epoch = entry.idle_epoch;
  PooledConnection* conn = entry.conn.get();
  sim_.schedule_after(config_.idle_ttl, [this, alive = alive_, key, conn, epoch] {
    if (!*alive) return;
    const auto it = origins_.find(key);
    if (it == origins_.end()) return;
    auto& conns = it->second.conns;
    const auto cit = std::find_if(conns.begin(), conns.end(),
                                  [conn](const Entry& e) { return e.conn.get() == conn; });
    if (cit == conns.end() || cit->outstanding != 0 || cit->idle_epoch != epoch) return;
    cit->conn->shutdown();
    release_deferred(std::move(cit->conn));
    conns.erase(cit);
    --total_conns_;
    evictions_.inc();
    ++it->second.evictions;
    set_conn_gauge();
  });
}

std::size_t OriginPool::migrate(const std::string& key, const scion::Path& path) {
  const auto it = origins_.find(key);
  if (it == origins_.end()) return 0;
  std::size_t migrated = 0;
  for (Entry& entry : it->second.conns) {
    auto* scion_conn = dynamic_cast<ScionPooledConnection*>(entry.conn.get());
    if (scion_conn == nullptr) continue;
    // A wedged-open connection (dead stream, transport still up) is waiting
    // to be pruned; moving it onto a fresh path would burn the path's first
    // impression on a connection that can never carry a request again.
    if (!entry.conn->usable()) continue;
    if (scion_conn->path().fingerprint() == path.fingerprint()) continue;
    scion_conn->set_path(path);
    ++migrated;
  }
  if (migrated > 0) migrations_.inc(migrated);
  return migrated;
}

std::size_t OriginPool::retire(const std::string& key) {
  const auto it = origins_.find(key);
  if (it == origins_.end()) return 0;
  std::size_t closed = 0;
  for (Entry& entry : it->second.conns) {
    if (entry.conn->transport().state() == transport::Connection::State::kClosed) continue;
    entry.conn->shutdown();
    ++closed;
  }
  if (closed > 0) {
    metrics_.events().record(sim_.now(), "pool", "retire",
                             config_.name + "/" + key + " closed " +
                                 std::to_string(closed) + " conns");
  }
  // Idle entries leave now; busy ones drain through their failing fetches.
  // Re-dispatch so parked waiters dial fresh connections immediately.
  dispatch(key);
  return closed;
}

OriginPool::PooledConnection* OriginPool::primary(const std::string& key) {
  const auto it = origins_.find(key);
  if (it == origins_.end()) return nullptr;
  for (const Entry& entry : it->second.conns) {
    if (entry.conn->transport().state() != transport::Connection::State::kClosed) {
      return entry.conn.get();
    }
  }
  return nullptr;
}

void OriginPool::for_each_connection(
    const std::function<void(const std::string& key, PooledConnection& conn)>& fn) {
  for (auto& [key, origin] : origins_) {
    for (Entry& entry : origin.conns) fn(key, *entry.conn);
  }
}

std::vector<OriginPool::OriginSnapshot> OriginPool::snapshot() const {
  std::vector<OriginSnapshot> out;
  out.reserve(origins_.size());
  for (const auto& [key, origin] : origins_) {
    OriginSnapshot snap;
    snap.key = key;
    snap.conns = origin.conns.size();
    for (const Entry& entry : origin.conns) {
      snap.outstanding += entry.outstanding;
      snap.per_conn_outstanding.push_back(entry.outstanding);
    }
    snap.queued = origin.waiting.size();
    if (config_.limiter != nullptr) snap.effective_limit = config_.limiter->limit(key);
    snap.evictions = origin.evictions;
    snap.consecutive_failures = origin.consecutive_failures;
    snap.cooling_down = cooling_down(origin);
    out.push_back(std::move(snap));
  }
  // Deterministic order for JSON dumps and tests.
  std::sort(out.begin(), out.end(),
            [](const OriginSnapshot& a, const OriginSnapshot& b) { return a.key < b.key; });
  return out;
}

std::string OriginPool::snapshot_json() const {
  util::JsonWriter w;
  w.begin_array();
  for (const OriginSnapshot& snap : snapshot()) {
    w.begin_object().field("origin", snap.key).field("conns", snap.conns);
    w.field("outstanding", snap.outstanding).field("queued", snap.queued);
    w.field("limit", snap.effective_limit).field("evictions", snap.evictions);
    w.field("consecutive_failures", snap.consecutive_failures);
    w.field("cooling_down", snap.cooling_down).end_object();
  }
  w.end_array();
  return w.take();
}

}  // namespace pan::http
