#include "http/endpoints.hpp"

#include <algorithm>

namespace pan::http {

transport::TransportConfig default_tcp_config() {
  transport::TransportConfig config;
  config.kind = transport::TransportKind::kTcpLite;
  config.alpn = "http/1.1";
  return config;
}

transport::TransportConfig default_quic_config() {
  transport::TransportConfig config;
  config.kind = transport::TransportKind::kQuicLite;
  config.alpn = "h3-lite";
  // Probe while awaiting responses so path failures surface even on
  // receive-only connections (see TransportConfig::keep_alive).
  config.keep_alive = milliseconds(250);
  return config;
}

HttpResponse make_error_response(int status, const std::string& message) {
  HttpResponse response = make_text_response(status, message);
  response.headers.set("X-Skip-Error", message);
  return response;
}

HttpResponse make_retry_after_response(int status, Duration retry_after,
                                       const std::string& message) {
  HttpResponse response = make_error_response(status, message);
  const std::int64_t millis = static_cast<std::int64_t>(retry_after.millis());
  const std::int64_t secs = std::max<std::int64_t>(1, (millis + 999) / 1000);
  response.headers.set("Retry-After", std::to_string(secs));
  return response;
}

LegacyHttpServer::LegacyHttpServer(net::Host& host, std::uint16_t port,
                                   HttpServer::Handler handler,
                                   transport::TransportConfig config)
    : server_(std::move(handler)),
      transport_(host, port, std::move(config), [this](transport::Connection& conn) {
        conn.set_on_stream([this](transport::Stream& stream) { server_.serve(stream); });
      }) {}

ScionHttpServer::ScionHttpServer(scion::ScionStack& stack, std::uint16_t port,
                                 HttpServer::Handler handler,
                                 transport::TransportConfig config)
    : server_(std::move(handler)),
      transport_(stack, port, std::move(config), [this](transport::Connection& conn) {
        conn.set_on_stream([this](transport::Stream& stream) { server_.serve(stream); });
      }) {}

LegacyHttpConnection::LegacyHttpConnection(net::Host& host, net::Endpoint server,
                                           transport::TransportConfig config)
    : client_(host, server, std::move(config)) {
  stream_ = &client_.connection().open_stream();
  http_ = std::make_unique<HttpClientStream>(*stream_, /*close_after_request=*/false);
  client_.connection().start();
}

void LegacyHttpConnection::fetch(const HttpRequest& request,
                                 HttpClientStream::ResponseFn on_response) {
  http_->fetch(request, std::move(on_response));
}

void LegacyHttpConnection::close() { client_.connection().close("done"); }

ScionHttpConnection::ScionHttpConnection(scion::ScionStack& stack,
                                         scion::ScionEndpoint server,
                                         const scion::DataplanePath& path,
                                         transport::TransportConfig config)
    : client_(stack, server, path, std::move(config)) {
  client_.connection().start();
}

void ScionHttpConnection::fetch(const HttpRequest& request,
                                HttpClientStream::ResponseFn on_response) {
  transport::Stream& stream = client_.connection().open_stream();
  auto exchange = std::make_unique<HttpClientStream>(stream, /*close_after_request=*/true);
  HttpClientStream* raw = exchange.get();
  exchanges_[stream.id()] = std::move(exchange);
  const std::uint32_t id = stream.id();
  // Destruction is deferred through the event loop: the completion callback
  // runs inside the HttpClientStream's own parser callback, so erasing the
  // exchange synchronously (even from a later fetch() on this connection,
  // which can be invoked re-entrantly from `cb`) would free an object that
  // is still on the call stack.
  raw->fetch(request, [this, id, alive = alive_,
                       cb = std::move(on_response)](Result<HttpResponse> result) {
    cb(std::move(result));
    client_.connection().simulator().schedule_after(Duration::zero(), [this, id, alive] {
      if (*alive) exchanges_.erase(id);
    });
  });
}

ScionHttpConnection::~ScionHttpConnection() { *alive_ = false; }

void ScionHttpConnection::close() { client_.connection().close("done"); }

}  // namespace pan::http
