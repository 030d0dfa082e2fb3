#include "http/client.hpp"

namespace pan::http {

HttpClientStream::HttpClientStream(transport::Bytestream& stream, bool close_after_request)
    : stream_(stream), close_after_request_(close_after_request) {
  parser_.on_response = [this](HttpResponse response) {
    if (waiting_.empty()) return;  // unsolicited response; drop
    ResponseFn cb = std::move(waiting_.front());
    waiting_.pop_front();
    cb(Result<HttpResponse>(std::move(response)));
  };
  parser_.on_error = [this](const std::string& reason) {
    parse_failed_ = true;
    fail_all("parse error: " + reason);
  };
  stream_.set_on_data([this](std::span<const std::uint8_t> data, bool fin) {
    if (stream_done_) return;
    parser_.feed(data);
    if (fin) {
      stream_done_ = true;
      parser_.finish();
      if (!waiting_.empty()) fail_all("stream closed with responses outstanding");
    }
  });
}

HttpClientStream::~HttpClientStream() { stream_.release(); }

void HttpClientStream::fetch(const HttpRequest& request, ResponseFn on_response) {
  if (stream_done_ || stream_.broken()) {
    on_response(Err("stream is closed"));
    return;
  }
  waiting_.push_back(std::move(on_response));
  const Bytes wire = request.serialize();
  stream_.write(wire);
  if (close_after_request_) stream_.finish();
}

void HttpClientStream::fail_all(const std::string& reason) {
  while (!waiting_.empty()) {
    ResponseFn cb = std::move(waiting_.front());
    waiting_.pop_front();
    cb(Err(reason));
  }
}

}  // namespace pan::http
