#include "router/obs_http.hpp"

#include <exception>
#include <string>
#include <string_view>
#include <utility>

namespace pelican::router {

ConnectionServer::Body http_body(HttpHandler handler) {
  return [handler = std::move(handler)](Socket& socket) {
    socket.set_io_timeout(5000.0);
    std::string head;
    char buffer[2048];
    while (!obs::http_head_complete(head)) {
      if (head.size() > obs::kMaxHttpHeadBytes) break;
      const std::size_t got = socket.recv_some(buffer, sizeof(buffer));
      if (got == 0) break;  // EOF before a full head
      head.append(buffer, got);
    }
    // A head counts only when it ends within the cap; the last read may
    // have completed one past it.
    const std::string_view capped =
        std::string_view(head).substr(0, obs::kMaxHttpHeadBytes);
    obs::HttpResponse response;
    if (!obs::http_head_complete(capped)) {
      if (head.empty()) return;  // the client left without asking
      response.status = head.size() > obs::kMaxHttpHeadBytes ? 431 : 400;
      response.body = "incomplete or oversized request head\n";
    } else if (auto request = obs::parse_http_request(capped)) {
      try {
        response = handler(*request);
      } catch (const std::exception& error) {
        response = obs::HttpResponse{500, "text/plain; charset=utf-8",
                                     std::string(error.what()) + "\n"};
      }
    } else {
      response.status = 400;
      response.body = "malformed request line\n";
    }
    socket.send_bytes(obs::render_http_response(response));
  };
}

}  // namespace pelican::router
