// http_body on a real ConnectionServer: raw HTTP requests on the router's
// own socket transport, responses read back to EOF. Covers the happy path
// (a real scrape of Prometheus text), routing errors (404/405), protocol
// errors (400/431), handler exceptions (500), and lifecycle (concurrent
// scrapes, stop() severing a half-open client).
#include "router/obs_http.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "router/socket.hpp"
#include "router_support.hpp"

namespace pelican::router {
namespace {

using router_testing::TempDir;

/// One-shot HTTP exchange: connect, write `request` verbatim, read to EOF.
std::string http_exchange(const Address& address, const std::string& request) {
  Socket socket = Socket::connect_to(address);
  socket.send_bytes(request);
  std::string response;
  char buffer[2048];
  for (;;) {
    const std::size_t got = socket.recv_some(buffer, sizeof(buffer));
    if (got == 0) break;
    response.append(buffer, got);
  }
  return response;
}

std::string body_of(const std::string& response) {
  const auto split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

/// Answers 200 "ok" to anything, counting the requests it answered.
HttpHandler counting_ok(std::atomic<int>& served) {
  return [&served](const obs::HttpRequest&) {
    served.fetch_add(1);
    return obs::HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
  };
}

TEST(HttpBodyTest, ServesARealScrapeOfPrometheusText) {
  TempDir dir;
  obs::Registry registry;
  registry.counter("requests_total").add(42);
  registry.histogram("lat_ms").observe(3.0);

  std::atomic<int> served{0};
  ConnectionServer server(
      parse_address(dir.socket_address(0)),
      http_body([&](const obs::HttpRequest& request) {
        served.fetch_add(1);
        EXPECT_EQ(request.method, "GET");
        obs::HttpResponse response;
        response.content_type = "text/plain; version=0.0.4; charset=utf-8";
        response.body = obs::prometheus_text(registry.state(), "");
        return response;
      }));
  server.start();

  const std::string response = http_exchange(
      server.address(), "GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n");
  EXPECT_EQ(response.find("HTTP/1.1 200 OK\r\n"), 0u);
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);

  // Parse the scrape like a collector would: every line is `name value`
  // or `name{labels} value`; the counter we set must come through exact.
  const std::string body = body_of(response);
  EXPECT_NE(body.find("pelican_requests_total 42\n"), std::string::npos);
  EXPECT_NE(body.find("pelican_lat_ms_count 1\n"), std::string::npos);
  // Content-Length matches the body byte-for-byte (EOF-delimited read).
  const std::string marker = "Content-Length: ";
  const auto at = response.find(marker);
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(std::stoul(response.substr(at + marker.size())), body.size());

  EXPECT_EQ(served.load(), 1);
  server.stop();
}

TEST(HttpBodyTest, HandlerStatusAndExceptionsMapToHttpCodes) {
  TempDir dir;
  ConnectionServer server(
      parse_address(dir.socket_address(0)),
      http_body([](const obs::HttpRequest& request) {
        if (request.target == "/boom") throw std::runtime_error("exploded");
        if (request.target != "/ok") {
          return obs::HttpResponse{404, "text/plain; charset=utf-8",
                                   "nope\n"};
        }
        return obs::HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
      }));
  server.start();

  EXPECT_EQ(http_exchange(server.address(), "GET /ok HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 200 OK"),
            0u);
  EXPECT_EQ(http_exchange(server.address(), "GET /missing HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 404 Not Found"),
            0u);
  const std::string boom =
      http_exchange(server.address(), "GET /boom HTTP/1.1\r\n\r\n");
  EXPECT_EQ(boom.find("HTTP/1.1 500 Internal Server Error"), 0u);
  EXPECT_NE(body_of(boom).find("exploded"), std::string::npos)
      << "the handler's what() reaches the client";
  server.stop();
}

TEST(HttpBodyTest, ProtocolErrorsGet400And431) {
  TempDir dir;
  std::atomic<int> served{0};
  ConnectionServer server(parse_address(dir.socket_address(0)),
                          http_body(counting_ok(served)));
  server.start();

  // Malformed request line (complete head, no parseable fields).
  EXPECT_EQ(http_exchange(server.address(), "garbage\r\n\r\n")
                .find("HTTP/1.1 400 Bad Request"),
            0u);

  // A head that never terminates within the cap draws 431.
  std::string oversized = "GET / HTTP/1.1\r\nX-Filler: ";
  oversized.append(obs::kMaxHttpHeadBytes, 'a');
  EXPECT_EQ(http_exchange(server.address(), oversized)
                .find("HTTP/1.1 431 Request Header Fields Too Large"),
            0u);

  // So does a complete head whose terminator lies past the cap, even when
  // the read that completes it is the one that crosses the cap.
  std::string complete_oversized = "GET / HTTP/1.1\r\nX-Filler: ";
  complete_oversized.append(obs::kMaxHttpHeadBytes + 800, 'a');
  complete_oversized += "\r\n\r\n";
  EXPECT_EQ(http_exchange(server.address(), complete_oversized)
                .find("HTTP/1.1 431 Request Header Fields Too Large"),
            0u);
  // A head that ends exactly at the cap is still served.
  std::string at_cap = "GET / HTTP/1.1\r\nX-Filler: ";
  at_cap.append(obs::kMaxHttpHeadBytes - at_cap.size() - 4, 'a');
  at_cap += "\r\n\r\n";
  ASSERT_EQ(at_cap.size(), obs::kMaxHttpHeadBytes);
  EXPECT_EQ(http_exchange(server.address(), at_cap).find("HTTP/1.1 200 OK"),
            0u);
  EXPECT_EQ(served.load(), 1) << "only the head within the cap is handled";
  server.stop();
}

TEST(HttpBodyTest, ConcurrentScrapesAllSucceed) {
  TempDir dir;
  std::atomic<int> served{0};
  ConnectionServer server(parse_address(dir.socket_address(0)),
                          http_body(counting_ok(served)));
  server.start();

  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::vector<std::string> responses(kClients);
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      responses[static_cast<std::size_t>(c)] =
          http_exchange(server.address(), "GET / HTTP/1.1\r\n\r\n");
    });
  }
  for (auto& thread : threads) thread.join();
  for (const std::string& response : responses) {
    EXPECT_EQ(response.find("HTTP/1.1 200 OK"), 0u);
  }
  EXPECT_EQ(served.load(), kClients);
  server.stop();
}

TEST(HttpBodyTest, StopSeversHalfOpenClients) {
  TempDir dir;
  ConnectionServer server(
      parse_address(dir.socket_address(0)),
      http_body([](const obs::HttpRequest&) { return obs::HttpResponse{}; }));
  server.start();
  // Connect and send an INCOMPLETE head, then just hold the connection:
  // stop() must shut the connection down and return rather than wait out
  // the 5s io-timeout, let alone hang.
  Socket lurker = Socket::connect_to(server.address());
  lurker.send_bytes("GET / HTTP/1.1\r\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.stop();  // must not block on the lurker
  SUCCEED();
}

}  // namespace
}  // namespace pelican::router
