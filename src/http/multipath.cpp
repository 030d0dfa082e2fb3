#include "http/multipath.hpp"

#include "util/log.hpp"

namespace pan::http {

namespace {
constexpr std::string_view kLog = "multipath";
/// Failover attempts on other channels when a fetch errors.
constexpr std::size_t kMaxRetries = 2;
}

const char* to_string(MultipathConfig::Schedule s) {
  switch (s) {
    case MultipathConfig::Schedule::kRoundRobin: return "round-robin";
    case MultipathConfig::Schedule::kLeastOutstanding: return "least-outstanding";
    case MultipathConfig::Schedule::kWeightedLatency: return "weighted-latency";
  }
  return "?";
}

MultipathScionConnection::MultipathScionConnection(scion::ScionStack& stack,
                                                   scion::ScionEndpoint server,
                                                   std::vector<scion::Path> paths,
                                                   MultipathConfig config)
    : stack_(stack), server_(server), config_(std::move(config)) {
  channels_.reserve(paths.size());
  for (scion::Path& path : paths) add_channel(stack_, std::move(path));
}

MultipathScionConnection::~MultipathScionConnection() { *alive_ = false; }

void MultipathScionConnection::add_channel(scion::ScionStack& stack, scion::Path path,
                                           std::string access) {
  Channel channel;
  channel.conn =
      std::make_unique<ScionHttpConnection>(stack, server_, path.dataplane(), config_.quic);
  channel.stack = &stack;
  channel.stats.fingerprint = path.fingerprint();
  channel.stats.access = access;
  channel.path = std::move(path);
  channels_.push_back(std::move(channel));
}

bool MultipathScionConnection::channel_usable(const Channel& channel) const {
  return channel.conn != nullptr &&
         channel.conn->transport().state() != transport::Connection::State::kClosed;
}

std::size_t MultipathScionConnection::usable_count() const {
  std::size_t count = 0;
  for (const Channel& channel : channels_) {
    if (channel_usable(channel)) ++count;
  }
  return count;
}

void MultipathScionConnection::maybe_redial(std::size_t index) {
  Channel& channel = channels_[index];
  if (closed_ || config_.max_redials == 0 || channel.redial_pending) return;
  if (channel_usable(channel)) return;
  if (channel.redials >= config_.max_redials) return;  // budget exhausted
  Duration backoff = config_.redial_backoff;
  for (std::size_t i = 0; i < channel.redials; ++i) backoff = backoff * 2;
  channel.redial_pending = true;
  ++channel.redials;
  ++channel.stats.redials;
  PAN_DEBUG(kLog) << "channel " << channel.stats.fingerprint << " dead; re-dial "
                  << channel.redials << "/" << config_.max_redials << " in "
                  << to_string(backoff);
  auto alive = alive_;
  channel.stack->host().simulator().schedule_after(backoff, [this, alive, index] {
    if (!*alive || closed_) return;
    Channel& dead = channels_[index];
    dead.redial_pending = false;
    if (channel_usable(dead)) return;  // recovered on its own in the meantime
    dead.conn = std::make_unique<ScionHttpConnection>(*dead.stack, server_,
                                                      dead.path.dataplane(), config_.quic);
  });
}

std::size_t MultipathScionConnection::pick_channel() {
  const std::size_t n = channels_.size();
  std::size_t best = n;
  switch (config_.schedule) {
    case MultipathConfig::Schedule::kRoundRobin: {
      for (std::size_t step = 0; step < n; ++step) {
        const std::size_t candidate = (rr_cursor_ + step) % n;
        if (channel_usable(channels_[candidate])) {
          best = candidate;
          rr_cursor_ = candidate + 1;
          break;
        }
      }
      break;
    }
    case MultipathConfig::Schedule::kLeastOutstanding: {
      for (std::size_t i = 0; i < n; ++i) {
        if (!channel_usable(channels_[i])) continue;
        if (best == n || channels_[i].outstanding < channels_[best].outstanding) {
          best = i;
        }
      }
      break;
    }
    case MultipathConfig::Schedule::kWeightedLatency: {
      double best_score = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (!channel_usable(channels_[i])) continue;
        const double score = static_cast<double>(channels_[i].outstanding + 1) *
                             static_cast<double>(channels_[i].path.meta().latency.nanos());
        if (best == n || score < best_score) {
          best = i;
          best_score = score;
        }
      }
      break;
    }
  }
  return best;
}

std::size_t MultipathScionConnection::pick_for_intent(net::FetchIntent intent) {
  if (intent == net::FetchIntent::kBulk) return pick_channel();
  // Latency-critical wants the lowest-latency usable channel; background the
  // highest (staying off the fast ones). Ties keep the earliest channel.
  const std::size_t n = channels_.size();
  std::size_t best = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (!channel_usable(channels_[i])) continue;
    if (best == n) {
      best = i;
      continue;
    }
    const auto latency = channels_[i].path.meta().latency;
    const auto best_latency = channels_[best].path.meta().latency;
    if (intent == net::FetchIntent::kLatencyCritical ? latency < best_latency
                                                     : latency > best_latency) {
      best = i;
    }
  }
  return best;
}

void MultipathScionConnection::fetch(const HttpRequest& request,
                                     HttpClientStream::ResponseFn on_response) {
  attempt(request, std::nullopt, std::move(on_response), kMaxRetries);
}

void MultipathScionConnection::fetch(const HttpRequest& request, net::FetchIntent intent,
                                     HttpClientStream::ResponseFn on_response) {
  attempt(request, intent, std::move(on_response), kMaxRetries);
}

void MultipathScionConnection::attempt(const HttpRequest& request,
                                       std::optional<net::FetchIntent> intent,
                                       HttpClientStream::ResponseFn on_response,
                                       std::size_t retries_left) {
  // Dead channels queue a re-dial on every scheduling pass, so striping
  // width recovers even while traffic keeps flowing on the survivors.
  for (std::size_t i = 0; i < channels_.size(); ++i) maybe_redial(i);
  const std::size_t index = intent.has_value() ? pick_for_intent(*intent) : pick_channel();
  if (index >= channels_.size()) {
    on_response(Err("multipath: no usable channel"));
    return;
  }
  Channel& channel = channels_[index];
  ++channel.outstanding;
  ++channel.stats.requests;
  channel.conn->fetch(request, [this, index, request, intent, retries_left,
                                cb = std::move(on_response)](Result<HttpResponse> result) mutable {
    Channel& done_channel = channels_[index];
    if (done_channel.outstanding > 0) --done_channel.outstanding;
    if (!result.ok()) {
      ++done_channel.stats.errors;
      maybe_redial(index);
      if (retries_left > 0) {
        PAN_DEBUG(kLog) << "channel " << done_channel.stats.fingerprint << " failed ("
                        << result.error() << "); failing over";
        attempt(request, intent, std::move(cb), retries_left - 1);
        return;
      }
      cb(std::move(result));
      return;
    }
    done_channel.redials = 0;  // the channel proved itself; refill the budget
    done_channel.stats.bytes += result.value().body.size();
    cb(std::move(result));
  });
}

std::vector<MultipathScionConnection::ChannelStats>
MultipathScionConnection::channel_stats() const {
  std::vector<ChannelStats> out;
  out.reserve(channels_.size());
  for (const Channel& channel : channels_) out.push_back(channel.stats);
  return out;
}

void MultipathScionConnection::close() {
  for (Channel& channel : channels_) {
    if (channel.conn != nullptr) channel.conn->close();
  }
}

}  // namespace pan::http
