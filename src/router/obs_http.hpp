// The socket-bound half of the HTTP exposition endpoint: a
// ConnectionServer body (router/socket).
//
// obs/http owns the protocol (request parsing, response rendering — pure
// strings, no fds); this body moves its bytes over the same unix:/tcp:
// transport every other router socket speaks. It is routing-agnostic: it
// turns bytes into an HttpRequest, hands it to the injected handler, and
// writes the rendered response. FlightRecorder supplies the handler that
// knows about /metrics, /timeseries, /events, /slo, /healthz; tests can
// mount anything. Connections are one-shot (Connection: close) — a scrape
// is a fresh connect, which keeps the endpoint stateless and its
// connection threads short-lived.
#pragma once

#include <functional>

#include "obs/http.hpp"
#include "router/socket.hpp"

namespace pelican::router {

using HttpHandler = std::function<obs::HttpResponse(const obs::HttpRequest&)>;

/// The body that answers one HTTP request per connection with `handler`:
/// 400 for a malformed or incomplete head, 431 for one over
/// obs::kMaxHttpHeadBytes, 500 (with the what()) when the handler throws.
/// Reads time out after 5 s, so a stalled client cannot hold a thread.
[[nodiscard]] ConnectionServer::Body http_body(HttpHandler handler);

}  // namespace pelican::router
