// HTTP endpoint adapters binding the HTTP layer to concrete transports:
//   - LegacyHttpServer / LegacyHttpConnection: HTTP over TCP-lite over
//     legacy UDP/IP (the paper's BGP/IP baseline stack);
//   - ScionHttpServer / ScionHttpConnection: HTTP over QUIC-lite over SCION
//     (the paper's SCION transport: "we exclusively use QUIC ... for all web
//     traffic over SCION", one bidirectional stream per mapped request).
#pragma once

#include <memory>
#include <unordered_map>

#include "http/client.hpp"
#include "http/server.hpp"
#include "transport/scion_host.hpp"
#include "transport/udp_host.hpp"

namespace pan::http {

[[nodiscard]] transport::TransportConfig default_tcp_config();
[[nodiscard]] transport::TransportConfig default_quic_config();

/// A text error response whose message is echoed in X-Skip-Error: the form
/// of every error a SKIP proxy or proxy cluster answers by itself.
[[nodiscard]] HttpResponse make_error_response(int status, const std::string& message);

/// Synthesizes a load-shed / unavailability response (429 or 503). Every
/// rejection path — admission control, circuit breaker, strict-mode
/// degradation, pool fast-fail, queue shed — goes through this one helper so
/// none of them can omit the Retry-After header. `retry_after` is rounded up
/// to whole seconds (minimum 1, per RFC 9110 delay-seconds).
[[nodiscard]] HttpResponse make_retry_after_response(int status, Duration retry_after,
                                                     const std::string& message);

class LegacyHttpServer {
 public:
  LegacyHttpServer(net::Host& host, std::uint16_t port, HttpServer::Handler handler,
                   transport::TransportConfig config = default_tcp_config());

  [[nodiscard]] HttpServer& http() { return server_; }
  [[nodiscard]] std::uint16_t port() const { return transport_.port(); }

 private:
  HttpServer server_;
  transport::UdpTransportServer transport_;
};

class ScionHttpServer {
 public:
  ScionHttpServer(scion::ScionStack& stack, std::uint16_t port, HttpServer::Handler handler,
                  transport::TransportConfig config = default_quic_config());

  [[nodiscard]] HttpServer& http() { return server_; }
  [[nodiscard]] std::uint16_t port() const { return transport_.port(); }

 private:
  HttpServer server_;
  transport::ScionTransportServer transport_;
};

/// One keep-alive HTTP connection over TCP-lite (sequential exchanges on the
/// single stream).
class LegacyHttpConnection {
 public:
  LegacyHttpConnection(net::Host& host, net::Endpoint server,
                       transport::TransportConfig config = default_tcp_config());

  void fetch(const HttpRequest& request, HttpClientStream::ResponseFn on_response);
  [[nodiscard]] transport::Connection& transport() { return client_.connection(); }
  /// An HTTP/1 connection rides a single stream: once that stream is dead
  /// (FIN, break, or a parse error from a truncated response) the connection
  /// can never serve again even while the transport stays open.
  [[nodiscard]] bool usable() const { return !http_->broken(); }
  void close();

 private:
  transport::UdpTransportClient client_;
  transport::Stream* stream_ = nullptr;
  std::unique_ptr<HttpClientStream> http_;
};

/// One QUIC-lite-over-SCION connection; each fetch runs on a fresh stream.
class ScionHttpConnection {
 public:
  ScionHttpConnection(scion::ScionStack& stack, scion::ScionEndpoint server,
                      const scion::DataplanePath& path,
                      transport::TransportConfig config = default_quic_config());
  ~ScionHttpConnection();

  void fetch(const HttpRequest& request, HttpClientStream::ResponseFn on_response);
  /// Migrates the connection to a different path.
  void set_path(const scion::DataplanePath& path) { client_.set_path(path); }
  [[nodiscard]] transport::Connection& transport() { return client_.connection(); }
  void close();

 private:
  transport::ScionTransportClient client_;
  std::unordered_map<std::uint32_t, std::unique_ptr<HttpClientStream>> exchanges_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace pan::http
