// HTTP-level multipath over SCION.
//
// PAN architectures "simultaneously also provid[e] native inter-domain
// multipath" (paper, Section 1): an end host can use several paths to the
// same destination at once. This client holds one QUIC-lite connection per
// selected path ("channel") and schedules each HTTP exchange onto a channel,
// aggregating bandwidth across paths and failing over when a channel's
// connection dies. Request-level striping (rather than packet-level) keeps
// each transport connection's congestion state on a single path, the same
// trade-off HTTP-level multipath CDN clients make.
#pragma once

#include "http/endpoints.hpp"
#include "net/multi_access.hpp"
#include "scion/path.hpp"

namespace pan::http {

struct MultipathConfig {
  enum class Schedule {
    kRoundRobin,        // rotate channels per request
    kLeastOutstanding,  // least in-flight exchanges first
    kWeightedLatency,   // minimize (outstanding+1) * path latency
  };
  Schedule schedule = Schedule::kLeastOutstanding;
  /// Bounded re-dial: a channel whose transport dies is re-dialed on its
  /// path (exponential backoff: redial_backoff * 2^n) up to max_redials
  /// consecutive times, so a long transfer recovers full striping width
  /// after a transient instead of limping on a shrunken path set. A fetch
  /// completing over the channel resets its redial budget. 0 disables.
  std::size_t max_redials = 3;
  Duration redial_backoff = milliseconds(50);
  transport::TransportConfig quic = default_quic_config();
};

[[nodiscard]] const char* to_string(MultipathConfig::Schedule s);

class MultipathScionConnection {
 public:
  /// One channel per path; `paths` must all lead to `server`'s AS.
  MultipathScionConnection(scion::ScionStack& stack, scion::ScionEndpoint server,
                           std::vector<scion::Path> paths, MultipathConfig config = {});

  ~MultipathScionConnection();

  MultipathScionConnection(const MultipathScionConnection&) = delete;
  MultipathScionConnection& operator=(const MultipathScionConnection&) = delete;

  /// Adds a channel dialed through `stack` (a multi-access client passes a
  /// different stack per access); `access` labels the channel in stats and
  /// intent picks. The path must lead to the server's AS from that stack.
  void add_channel(scion::ScionStack& stack, scion::Path path, std::string access = {});

  void fetch(const HttpRequest& request, HttpClientStream::ResponseFn on_response);
  /// Intent-aware scheduling: latency-critical rides the lowest-latency
  /// usable channel, background the highest, bulk the configured schedule.
  void fetch(const HttpRequest& request, net::FetchIntent intent,
             HttpClientStream::ResponseFn on_response);

  [[nodiscard]] std::size_t path_count() const { return channels_.size(); }
  /// Channels whose transport is currently open (re-dials restore them).
  [[nodiscard]] std::size_t usable_count() const;

  struct ChannelStats {
    std::string fingerprint;
    std::string access;
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;
    std::uint64_t bytes = 0;
    std::uint64_t redials = 0;
  };
  [[nodiscard]] std::vector<ChannelStats> channel_stats() const;

  /// Closes every channel.
  void close();

  /// Test/diagnostic access to a channel's transport connection.
  [[nodiscard]] transport::Connection& channel_transport(std::size_t index) {
    return channels_[index].conn->transport();
  }

 private:
  struct Channel {
    std::unique_ptr<ScionHttpConnection> conn;
    scion::ScionStack* stack = nullptr;  // stack this channel dials through
    scion::Path path;
    std::size_t outstanding = 0;
    std::size_t redials = 0;  // consecutive re-dials since the last success
    bool redial_pending = false;
    ChannelStats stats;
  };

  /// Index of the channel to use, or channels_.size() if none is usable.
  [[nodiscard]] std::size_t pick_channel();
  [[nodiscard]] std::size_t pick_for_intent(net::FetchIntent intent);
  void attempt(const HttpRequest& request, std::optional<net::FetchIntent> intent,
               HttpClientStream::ResponseFn on_response, std::size_t retries_left);
  [[nodiscard]] bool channel_usable(const Channel& channel) const;
  /// Schedules a backoff re-dial of a dead channel when budget remains.
  void maybe_redial(std::size_t index);

  scion::ScionStack& stack_;
  scion::ScionEndpoint server_;
  MultipathConfig config_;
  std::vector<Channel> channels_;
  std::size_t rr_cursor_ = 0;
  bool closed_ = false;
  /// Flipped in the destructor so pending re-dial timers become no-ops.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace pan::http
