// HTTP client machinery over an abstract Bytestream.
//
// HttpClientStream drives one stream: requests go out (pipelined FIFO) and
// responses come back in order. With close_after_request (the QUIC
// one-stream-per-request mapping) the stream is FIN'd after the request.
#pragma once

#include <deque>
#include <functional>
#include <memory>

#include "http/message.hpp"
#include "http/parser.hpp"
#include "transport/bytestream.hpp"

namespace pan::http {

class HttpClientStream {
 public:
  using ResponseFn = std::function<void(Result<HttpResponse>)>;

  HttpClientStream(transport::Bytestream& stream, bool close_after_request);
  /// Releases the stream (Bytestream::release): its read callback never
  /// fires again, and the transport frees it once both directions are done.
  ~HttpClientStream();

  HttpClientStream(const HttpClientStream&) = delete;
  HttpClientStream& operator=(const HttpClientStream&) = delete;

  void fetch(const HttpRequest& request, ResponseFn on_response);

  [[nodiscard]] std::size_t outstanding() const { return waiting_.size(); }
  /// The stream can never carry another exchange: it FIN'd, broke, or the
  /// parser choked mid-response (e.g. an origin reset truncated the wire).
  /// Pools use this to retire HTTP/1 connections whose transport is still
  /// nominally open but whose single stream is dead.
  [[nodiscard]] bool broken() const {
    return stream_done_ || parse_failed_ || stream_.broken();
  }

 private:
  void fail_all(const std::string& reason);

  transport::Bytestream& stream_;
  bool close_after_request_;
  HttpParser parser_{ParserMode::kResponse};
  std::deque<ResponseFn> waiting_;
  bool stream_done_ = false;
  bool parse_failed_ = false;
};

}  // namespace pan::http
