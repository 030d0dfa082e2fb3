// Tests for the HTTP layer: messages, incremental parsing, URLs,
// Strict-SCION, file server, and end-to-end client/server over both
// transports.
#include <gtest/gtest.h>

#include "core/scenarios.hpp"
#include "http/endpoints.hpp"
#include "http/file_server.hpp"
#include "util/rng.hpp"
#include "http/parser.hpp"
#include "http/url.hpp"

namespace pan::http {
namespace {

// --------------------------------------------------------------- headers --

TEST(HeadersTest, CaseInsensitiveAccess) {
  Headers h;
  h.set("Content-Type", "text/html");
  EXPECT_EQ(h.get("content-type"), "text/html");
  EXPECT_TRUE(h.contains("CONTENT-TYPE"));
  h.remove("CoNtEnT-tYpE");
  EXPECT_FALSE(h.contains("Content-Type"));
}

TEST(HeadersTest, SetReplacesAddAppends) {
  Headers h;
  h.add("Via", "a");
  h.add("Via", "b");
  EXPECT_EQ(h.get_all("via").size(), 2u);
  h.set("Via", "c");
  EXPECT_EQ(h.get_all("via").size(), 1u);
  EXPECT_EQ(h.get("Via"), "c");
}

// -------------------------------------------------------------- messages --

TEST(MessageTest, RequestSerializesWithContentLength) {
  HttpRequest req;
  req.method = "POST";
  req.target = "/submit";
  req.headers.set("Host", "example.org");
  req.body = from_string("abc");
  const std::string wire = to_string_view_copy(req.serialize());
  EXPECT_NE(wire.find("POST /submit HTTP/1.1\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 3\r\n"), std::string::npos);
  EXPECT_TRUE(wire.ends_with("\r\n\r\nabc"));
}

TEST(MessageTest, ResponseHelpers) {
  const HttpResponse res = make_text_response(404, "gone");
  EXPECT_EQ(res.status, 404);
  EXPECT_EQ(res.reason, "Not Found");
  EXPECT_FALSE(res.ok());
  EXPECT_TRUE(make_response(204).ok());
}

// ---------------------------------------------------------------- parser --

TEST(ParserTest, ParsesRequest) {
  HttpParser parser(ParserMode::kRequest);
  HttpRequest got;
  parser.on_request = [&](HttpRequest r) { got = std::move(r); };
  HttpRequest req;
  req.method = "GET";
  req.target = "/x";
  req.headers.set("Host", "h");
  parser.feed(req.serialize());
  EXPECT_EQ(parser.messages_parsed(), 1u);
  EXPECT_EQ(got.method, "GET");
  EXPECT_EQ(got.target, "/x");
  EXPECT_EQ(got.host(), "h");
}

TEST(ParserTest, ByteAtATime) {
  HttpParser parser(ParserMode::kResponse);
  HttpResponse got;
  parser.on_response = [&](HttpResponse r) { got = std::move(r); };
  HttpResponse res = make_text_response(200, "hello world");
  const Bytes wire = res.serialize();
  for (const std::uint8_t byte : wire) {
    parser.feed(std::span<const std::uint8_t>(&byte, 1));
  }
  EXPECT_EQ(parser.messages_parsed(), 1u);
  EXPECT_EQ(to_string_view_copy(got.body), "hello world");
}

TEST(ParserTest, KeepAliveSequence) {
  HttpParser parser(ParserMode::kResponse);
  std::vector<int> statuses;
  parser.on_response = [&](HttpResponse r) { statuses.push_back(r.status); };
  Bytes wire = make_text_response(200, "a").serialize();
  const Bytes second = make_text_response(404, "b").serialize();
  wire.insert(wire.end(), second.begin(), second.end());
  parser.feed(wire);
  EXPECT_EQ(statuses, (std::vector<int>{200, 404}));
}

TEST(ParserTest, BodyUntilEofResponses) {
  HttpParser parser(ParserMode::kResponse);
  HttpResponse got;
  parser.on_response = [&](HttpResponse r) { got = std::move(r); };
  parser.feed(from_string("HTTP/1.1 200 OK\r\nX-A: 1\r\n\r\npartial bo"));
  EXPECT_EQ(parser.messages_parsed(), 0u);
  parser.feed(from_string("dy"));
  parser.finish();
  EXPECT_EQ(parser.messages_parsed(), 1u);
  EXPECT_EQ(to_string_view_copy(got.body), "partial body");
}

TEST(ParserTest, Errors) {
  {
    HttpParser parser(ParserMode::kRequest);
    std::string err;
    parser.on_error = [&](const std::string& e) { err = e; };
    parser.feed(from_string("NOT_A_REQUEST\r\n\r\n"));
    EXPECT_TRUE(parser.failed());
    EXPECT_FALSE(err.empty());
  }
  {
    HttpParser parser(ParserMode::kResponse);
    parser.on_error = [](const std::string&) {};
    parser.feed(from_string("HTTP/1.1 xyz OK\r\n\r\n"));
    EXPECT_TRUE(parser.failed());
  }
  {
    HttpParser parser(ParserMode::kRequest);
    parser.on_error = [](const std::string&) {};
    parser.feed(from_string("GET / HTTP/1.1\r\nBadHeaderNoColon\r\n\r\n"));
    EXPECT_TRUE(parser.failed());
  }
  {
    HttpParser parser(ParserMode::kRequest);
    parser.on_error = [](const std::string&) {};
    parser.feed(from_string("GET / HTTP/1.1\r\nContent-Length: huge\r\n\r\n"));
    EXPECT_TRUE(parser.failed());
  }
}

TEST(ParserTest, MidMessageEofIsError) {
  HttpParser parser(ParserMode::kResponse);
  bool errored = false;
  parser.on_error = [&](const std::string&) { errored = true; };
  parser.feed(from_string("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc"));
  parser.finish();
  EXPECT_TRUE(errored);
}

/// Random messages survive serialize -> incremental parse intact.
class MessageRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MessageRoundTrip, SerializeParsePreservesEverything) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    HttpResponse original;
    original.status = 200 + static_cast<int>(rng.next_below(300));
    original.reason = status_reason(original.status);
    const std::size_t header_count = rng.next_below(6);
    for (std::size_t i = 0; i < header_count; ++i) {
      original.headers.add("X-H" + std::to_string(i),
                           "value-" + std::to_string(rng.next_below(1000)));
    }
    original.body = generate_blob(rng.next_below(5000), trial);

    const Bytes wire = original.serialize();
    HttpParser parser(ParserMode::kResponse);
    HttpResponse parsed;
    bool got = false;
    parser.on_response = [&](HttpResponse r) {
      parsed = std::move(r);
      got = true;
    };
    // Feed in random-size chunks.
    std::size_t pos = 0;
    while (pos < wire.size()) {
      const std::size_t n = std::min<std::size_t>(1 + rng.next_below(97), wire.size() - pos);
      parser.feed(std::span<const std::uint8_t>(wire.data() + pos, n));
      pos += n;
    }
    ASSERT_TRUE(got);
    EXPECT_EQ(parsed.status, original.status);
    EXPECT_EQ(parsed.body, original.body);
    for (std::size_t i = 0; i < header_count; ++i) {
      EXPECT_EQ(parsed.headers.get("x-h" + std::to_string(i)),
                original.headers.get("X-H" + std::to_string(i)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageRoundTrip, ::testing::Range<std::uint64_t>(1, 6));

// ------------------------------------------------------------------- url --

TEST(UrlTest, FullForm) {
  const auto url = parse_url("http://example.org:8080/a/b?c=d");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url.value().host, "example.org");
  EXPECT_EQ(url.value().port, 8080);
  EXPECT_EQ(url.value().path, "/a/b?c=d");
  EXPECT_EQ(url.value().authority(), "example.org:8080");
  EXPECT_EQ(url.value().to_string(), "http://example.org:8080/a/b?c=d");
}

TEST(UrlTest, Defaults) {
  const auto url = parse_url("http://example.org");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url.value().port, 80);
  EXPECT_EQ(url.value().path, "/");
  EXPECT_EQ(url.value().authority(), "example.org");
  EXPECT_EQ(url.value().origin(), "http://example.org");
}

TEST(UrlTest, Errors) {
  EXPECT_FALSE(parse_url("https://example.org/").ok());  // unsupported scheme
  EXPECT_FALSE(parse_url("http:///path").ok());
  EXPECT_FALSE(parse_url("http://host:0/").ok());
  EXPECT_FALSE(parse_url("http://host:99999/").ok());
  EXPECT_FALSE(parse_url("").ok());
}

// ---------------------------------------------------------- strict-scion --

TEST(StrictScionTest, ParseAndSerialize) {
  const auto d = parse_strict_scion("max-age=3600");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->max_age.nanos(), seconds(3600).nanos());
  EXPECT_EQ(d->serialize(), "max-age=3600");
  EXPECT_TRUE(parse_strict_scion(" max-age = 60 ; foo=bar ").has_value());
  EXPECT_FALSE(parse_strict_scion("max-age=abc").has_value());
  EXPECT_FALSE(parse_strict_scion("nonsense").has_value());
}

TEST(StrictScionTest, HugeMaxAgeClampedInsteadOfWrappingNegative) {
  // UINT64_MAX seconds overflows the signed nanosecond Duration; unclamped
  // it wrapped negative and expired the pin in the past.
  const auto huge = parse_strict_scion("max-age=18446744073709551615");
  ASSERT_TRUE(huge.has_value());
  EXPECT_GT(huge->max_age, Duration::zero());
  EXPECT_EQ(huge->max_age, seconds(kStrictScionMaxAgeSeconds));
  // Values merely above the cap (but representable) clamp too.
  const auto above = parse_strict_scion("max-age=99999999999");
  ASSERT_TRUE(above.has_value());
  EXPECT_EQ(above->max_age, seconds(kStrictScionMaxAgeSeconds));
  // max-age=0 parses fine: it is an explicit withdrawal, applied upstream.
  const auto zero = parse_strict_scion("max-age=0");
  ASSERT_TRUE(zero.has_value());
  EXPECT_EQ(zero->max_age, Duration::zero());
}

TEST(StrictScionTest, ResponseRoundTrip) {
  HttpResponse res = make_response(200);
  set_strict_scion(res, StrictScionDirective{seconds(120)});
  const auto d = strict_scion_of(res);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->max_age.nanos(), seconds(120).nanos());
  EXPECT_FALSE(strict_scion_of(make_response(200)).has_value());
}

// ------------------------------------------------------------ fileserver --

TEST(FileServerTest, ServesAndMisses) {
  sim::Simulator sim;
  FileServer fs(sim);
  fs.add_text("/", "<html>", "text/html");
  fs.add_blob("/big", 1000);
  auto handler = fs.handler();
  HttpResponse got;
  HttpRequest req;
  req.target = "/";
  handler(req, [&](HttpResponse r) { got = std::move(r); });
  sim.run();
  EXPECT_EQ(got.status, 200);
  EXPECT_EQ(got.headers.get("Content-Type"), "text/html");

  req.target = "/nope";
  handler(req, [&](HttpResponse r) { got = std::move(r); });
  sim.run();
  EXPECT_EQ(got.status, 404);
  EXPECT_EQ(fs.hits(), 1u);
  EXPECT_EQ(fs.misses(), 1u);
}

TEST(FileServerTest, BlobsAreDeterministicAndDistinct) {
  sim::Simulator sim;
  FileServer fs(sim);
  fs.add_blob("/a", 500);
  fs.add_blob("/b", 500);
  auto handler = fs.handler();
  Bytes a1;
  Bytes a2;
  Bytes b;
  HttpRequest req;
  req.target = "/a";
  handler(req, [&](HttpResponse r) { a1 = std::move(r.body); });
  handler(req, [&](HttpResponse r) { a2 = std::move(r.body); });
  req.target = "/b";
  handler(req, [&](HttpResponse r) { b = std::move(r.body); });
  sim.run();
  EXPECT_EQ(a1.size(), 500u);
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
}

TEST(FileServerTest, EtagIsStableAcrossHitsAndFollowsReAdd) {
  sim::Simulator sim;
  FileServer fs(sim);
  fs.add_text("/doc", "<html>v1</html>");
  fs.add_blob("/blob", 4000);
  auto handler = fs.handler();
  const auto fetch = [&](const std::string& target) {
    HttpRequest req;
    req.target = target;
    HttpResponse got;
    handler(req, [&](HttpResponse r) { got = std::move(r); });
    sim.run();
    return got;
  };
  for (const std::string target : {"/doc", "/blob"}) {
    for (int hit = 0; hit < 50; ++hit) {
      const HttpResponse r = fetch(target);
      ASSERT_EQ(r.status, 200);
      EXPECT_EQ(r.headers.get("ETag"), "\"" + etag_of(r.body) + "\"");
    }
  }
  const auto v1 = fetch("/doc").headers.get("ETag");
  fs.add_text("/doc", "<html>v2</html>");
  const HttpResponse v2 = fetch("/doc");
  EXPECT_EQ(to_string_view_copy(v2.body), "<html>v2</html>");
  EXPECT_EQ(v2.headers.get("ETag"), "\"" + etag_of(v2.body) + "\"");
  EXPECT_NE(v2.headers.get("ETag"), v1);
  // A revalidation against the old validator now misses.
  HttpRequest revalidate;
  revalidate.target = "/doc";
  revalidate.headers.set("If-None-Match", *v1);
  HttpResponse got;
  handler(revalidate, [&](HttpResponse r) { got = std::move(r); });
  sim.run();
  EXPECT_EQ(got.status, 200);
  EXPECT_EQ(fs.revalidations(), 0u);
}

TEST(FileServerTest, ThinkTimeDelaysResponse) {
  sim::Simulator sim;
  FileServer fs(sim);
  fs.add_text("/", "x");
  fs.set_think_time(milliseconds(5));
  auto handler = fs.handler();
  TimePoint responded_at;
  HttpRequest req;
  req.target = "/";
  handler(req, [&](HttpResponse) { responded_at = sim.now(); });
  sim.run();
  EXPECT_EQ(responded_at.nanos(), milliseconds(5).nanos());
}

TEST(FileServerTest, StrictScionHeaderInjected) {
  sim::Simulator sim;
  FileServer fs(sim);
  fs.add_text("/", "x");
  fs.enable_strict_scion(seconds(100));
  auto handler = fs.handler();
  HttpResponse got;
  HttpRequest req;
  req.target = "/";
  handler(req, [&](HttpResponse r) { got = std::move(r); });
  sim.run();
  EXPECT_TRUE(strict_scion_of(got).has_value());
}

// ------------------------------------------------ end-to-end over worlds --

TEST(EndToEndTest, LegacyHttpFetch) {
  auto world = browser::make_local_world();
  FileServer& fs = *world->site("tcpip-fs.local");
  fs.add_blob("/file", 10'000);
  auto& topo = world->topology();
  const auto server_host = topo.host_by_name("tcpip-fs");

  LegacyHttpConnection conn(topo.host(world->client),
                            net::Endpoint{topo.ip(server_host), 80});
  HttpRequest req;
  req.target = "/file";
  req.headers.set("Host", "tcpip-fs.local");
  HttpResponse got;
  bool done = false;
  conn.fetch(req, [&](Result<HttpResponse> r) {
    ASSERT_TRUE(r.ok()) << r.error();
    got = std::move(r).take();
    done = true;
  });
  world->sim().run_until_condition([&] { return done; }, TimePoint{seconds(10).nanos()});
  ASSERT_TRUE(done);
  EXPECT_EQ(got.status, 200);
  EXPECT_EQ(got.body.size(), 10'000u);
}

TEST(EndToEndTest, ScionHttpFetchAndKeepAliveReuse) {
  auto world = browser::make_local_world();
  FileServer& fs = *world->site("scion-fs.local");
  fs.add_blob("/file", 10'000);
  auto& topo = world->topology();
  const auto server_host = topo.host_by_name("scion-fs");

  ScionHttpConnection conn(topo.scion_stack(world->client),
                           scion::ScionEndpoint{topo.scion_addr(server_host), 80},
                           scion::DataplanePath{});  // same AS: local path
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    HttpRequest req;
    req.target = "/file";
    req.headers.set("Host", "scion-fs.local");
    conn.fetch(req, [&](Result<HttpResponse> r) {
      ASSERT_TRUE(r.ok()) << r.error();
      EXPECT_EQ(r.value().body.size(), 10'000u);
      ++done;
    });
  }
  world->sim().run_until_condition([&] { return done == 3; },
                                   TimePoint{seconds(10).nanos()});
  EXPECT_EQ(done, 3);
}

TEST(EndToEndTest, OutOfOrderHandlersRespondInOrder) {
  // Two requests pipelined on one TCP-lite stream; the first handler
  // answers later than the second — responses must still arrive in order.
  auto world = browser::make_local_world();
  auto& topo = world->topology();
  auto& sim = world->sim();
  const auto server_host = topo.host_by_name("tcpip-fs");

  HttpServer::Handler handler = [&sim](const HttpRequest& req, HttpServer::Respond respond) {
    const Duration delay = req.target == "/slow" ? milliseconds(50) : milliseconds(1);
    sim.schedule_after(delay, [respond = std::move(respond), target = req.target] {
      respond(make_text_response(200, target));
    });
  };
  LegacyHttpServer server(topo.host(server_host), 8080, std::move(handler));
  LegacyHttpConnection conn(topo.host(world->client),
                            net::Endpoint{topo.ip(server_host), 8080});
  std::vector<std::string> bodies;
  HttpRequest slow;
  slow.target = "/slow";
  HttpRequest fast;
  fast.target = "/fast";
  conn.fetch(slow, [&](Result<HttpResponse> r) {
    ASSERT_TRUE(r.ok());
    bodies.push_back(to_string_view_copy(r.value().body));
  });
  conn.fetch(fast, [&](Result<HttpResponse> r) {
    ASSERT_TRUE(r.ok());
    bodies.push_back(to_string_view_copy(r.value().body));
  });
  sim.run_until_condition([&] { return bodies.size() == 2; }, TimePoint{seconds(5).nanos()});
  ASSERT_EQ(bodies.size(), 2u);
  EXPECT_EQ(bodies[0], "/slow");
  EXPECT_EQ(bodies[1], "/fast");
}

}  // namespace
}  // namespace pan::http
