// One dispatcher for the proxy's origin-form control spaces: a SKIP proxy's
// /skip/* endpoints and a proxy cluster's /skip/fleet* endpoints. Each space
// is a static table of (path, match, handler) rows; the dispatcher owns the
// rules the spaces share. The query is split off before matching, a known
// path asked with any method but GET is 405 + `Allow: GET` (fleet front-ends
// and load balancers probe with HEAD/POST and must tell "wrong verb" from "no
// such endpoint"), and an unknown path is 404 whatever the method.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "http/endpoints.hpp"
#include "http/url.hpp"
#include "obs/timeseries.hpp"
#include "util/strings.hpp"

namespace pan::proxy {

/// What a control handler sees of its request.
struct ControlRequest {
  const http::HttpRequest& http;
  std::string_view query;  ///< the target after '?' (empty when absent)
  std::string_view tail;   ///< the path after a prefix row's path
};

enum class RouteMatch { kExact, kPrefix };

template <class Owner>
struct ControlRoute {
  std::string_view path;
  RouteMatch match;
  http::HttpResponse (Owner::*handler)(const ControlRequest&);
};

/// 200 with a JSON body.
inline http::HttpResponse json_response(std::string_view body) {
  return http::make_response(200, from_string(body), "application/json");
}

/// The `?window=<ms>` form of a metrics endpoint: deltas and rates over the
/// trailing window from `series` instead of the lifetime-cumulative dump,
/// or 400 when the window is not a whole number of milliseconds.
inline http::HttpResponse windowed_metrics(const obs::TimeSeriesStore& series,
                                           std::string_view prefix, std::string_view window) {
  const auto window_ms = strings::parse_u64(window);
  if (!window_ms.ok()) {
    return http::make_error_response(400,
                                     "bad window (want milliseconds): " + std::string(window));
  }
  return json_response(
      series.query_json(prefix, milliseconds(static_cast<std::int64_t>(window_ms.value()))));
}

/// Answers `request` from `routes`. An unknown path gets a 404 whose
/// message is `not_found` followed by `echoed`.
template <class Owner, std::size_t N>
http::HttpResponse serve_control(Owner& owner, const ControlRoute<Owner> (&routes)[N],
                                 const http::HttpRequest& request, std::string_view not_found,
                                 std::string_view echoed) {
  const auto [path, query] = http::split_target(request.target);
  for (const ControlRoute<Owner>& route : routes) {
    const bool hit = route.match == RouteMatch::kExact ? path == route.path
                                                       : path.starts_with(route.path);
    if (!hit) continue;
    if (request.method != "GET") {
      http::HttpResponse response =
          http::make_error_response(405, "method not allowed: " + request.method);
      response.headers.set("Allow", "GET");
      return response;
    }
    return (owner.*route.handler)(
        ControlRequest{request, query, path.substr(route.path.size())});
  }
  return http::make_error_response(404, std::string(not_found) + std::string(echoed));
}

}  // namespace pan::proxy
