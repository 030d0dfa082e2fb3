#include "http/server.hpp"

namespace pan::http {

struct HttpServer::StreamContext : std::enable_shared_from_this<HttpServer::StreamContext> {
  explicit StreamContext(transport::Bytestream& stream)
      : stream(&stream), parser(ParserMode::kRequest) {}

  transport::Bytestream* stream;
  HttpParser parser;
  // Response slots, in request order; filled as handlers complete.
  std::vector<std::optional<HttpResponse>> slots;
  std::size_t next_to_send = 0;
  bool client_finished = false;
  bool finished_our_side = false;

  void flush() {
    while (next_to_send < slots.size() && slots[next_to_send].has_value()) {
      const Bytes wire = slots[next_to_send]->serialize();
      const std::size_t cut = slots[next_to_send]->truncate_wire_at;
      if (cut < wire.size()) {
        // Injected origin reset: emit a prefix of the wire bytes and slam
        // the stream shut; everything queued behind this response dies with
        // the connection.
        stream->write(std::span<const std::uint8_t>(wire.data(), cut));
        slots[next_to_send].reset();
        ++next_to_send;
        finished_our_side = true;
        stream->finish();
        release_if_done();
        return;
      }
      stream->write(wire);
      slots[next_to_send].reset();
      ++next_to_send;
    }
    if (client_finished && next_to_send == slots.size() && !finished_our_side) {
      finished_our_side = true;
      stream->finish();
    }
    release_if_done();
  }

  /// Both directions done: hand the stream back to the transport, which
  /// frees it (and with it this context, owned by its read callback) later.
  void release_if_done() {
    if (client_finished && finished_our_side) stream->release();
  }
};

HttpServer::HttpServer(Handler handler) : handler_(std::move(handler)) {}

void HttpServer::serve(transport::Bytestream& stream) {
  auto ctx = std::make_shared<StreamContext>(stream);

  // Ownership: the stream's on_data closure (below) holds the only
  // persistent shared_ptr, so the context lives until the transport retires
  // the released stream. The parser lives inside the context, so its
  // callbacks may capture a raw pointer — capturing the shared_ptr there
  // would create a ctx -> parser -> closure -> ctx cycle and leak.
  StreamContext* raw = ctx.get();
  raw->parser.on_request = [this, raw](HttpRequest request) {
    ++requests_;
    const std::size_t slot = raw->slots.size();
    raw->slots.emplace_back();
    // The Respond closure may outlive the exchange (async handlers); it
    // keeps the context alive via the weak self reference.
    handler_(request, [weak = raw->weak_from_this(), slot](HttpResponse response) {
      const auto ctx_locked = weak.lock();
      if (ctx_locked == nullptr) return;
      if (slot >= ctx_locked->slots.size() || ctx_locked->slots[slot].has_value()) return;
      if (ctx_locked->stream->broken()) return;
      ctx_locked->slots[slot] = std::move(response);
      ctx_locked->flush();
    });
  };
  raw->parser.on_error = [raw](const std::string& /*reason*/) {
    if (!raw->stream->broken() && !raw->finished_our_side) {
      const Bytes wire = make_text_response(400, "bad request").serialize();
      raw->stream->write(wire);
      raw->stream->finish();
      raw->finished_our_side = true;
    }
  };

  stream.set_on_data([ctx](std::span<const std::uint8_t> data, bool fin) {
    ctx->parser.feed(data);
    if (fin) {
      ctx->client_finished = true;
      ctx->flush();
    }
  });
}

}  // namespace pan::http
