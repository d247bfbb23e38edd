// Minimal HTTP/1.1 request parsing and response rendering — the
// transport-FREE half of the exposition server.
//
// The layer lattice keeps obs below router (obs may not name sockets), so
// this module is pure string work: given the raw bytes of a request head,
// produce {method, target}; given a {status, content type, body}, produce
// the exact response bytes. The connection body that moves those bytes
// lives in `router/obs_http`, on the router/socket transport. Splitting
// here also makes the parser trivially unit-testable without a live
// listener.
//
// Deliberately minimal: GET-style requests with no meaningful bodies
// (scrapes), `Connection: close` one-shot responses (every scrape is a
// fresh connection; Prometheus handles this fine and it keeps the server
// free of keep-alive state). Request heads are capped at
// kMaxHttpHeadBytes — anything longer is a client error, not a buffer.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace pelican::obs {

/// Longest request head (request line + headers + CRLFCRLF) accepted.
inline constexpr std::size_t kMaxHttpHeadBytes = 8192;

/// Parsed request line. Headers are intentionally not retained — no
/// endpoint needs them.
struct HttpRequest {
  std::string method;   ///< "GET"
  std::string target;   ///< "/metrics" (query string kept verbatim)
  std::string version;  ///< "HTTP/1.1"
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// True once `buffer` holds a complete head (terminating CRLFCRLF; a bare
/// LFLF is tolerated for hand-typed clients).
[[nodiscard]] bool http_head_complete(std::string_view buffer) noexcept;

/// Parse the request line out of a complete head. nullopt on malformed
/// input (empty line, missing fields, embedded NUL).
[[nodiscard]] std::optional<HttpRequest> parse_http_request(
    std::string_view head);

/// Canonical reason phrase ("OK", "Not Found", ...); "Unknown" otherwise.
[[nodiscard]] const char* http_status_reason(int status) noexcept;

/// Serialize a response: status line, Content-Type/Length, Connection:
/// close, blank line, body.
[[nodiscard]] std::string render_http_response(const HttpResponse& response);

}  // namespace pelican::obs
