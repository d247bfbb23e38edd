#include "router/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/fault.hpp"

namespace pelican::router {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw WireError(what + ": " + std::strerror(errno));
}

sockaddr_un unix_sockaddr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::invalid_argument("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in tcp_sockaddr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::invalid_argument("tcp address must be a numeric IPv4 host: " +
                                host);
  }
  return addr;
}

/// poll() for input on `fds`, retried on EINTR. False on timeout.
bool poll_input(std::span<pollfd> fds, int timeout_ms) {
  for (;;) {
    const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
    if (rc < 0 && errno == EINTR) continue;
    return rc > 0;
  }
}

}  // namespace

std::string Address::to_string() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

Address parse_address(const std::string& text) {
  Address address;
  if (text.starts_with("unix:")) {
    address.kind = Address::Kind::kUnix;
    address.path = text.substr(5);
    if (address.path.empty()) {
      throw std::invalid_argument("empty unix socket path: " + text);
    }
    (void)unix_sockaddr(address.path);  // validates the length eagerly
    return address;
  }
  if (text.starts_with("tcp:")) {
    const std::string rest = text.substr(4);
    const auto colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == rest.size()) {
      throw std::invalid_argument("tcp address must be tcp:host:port: " +
                                  text);
    }
    address.kind = Address::Kind::kTcp;
    address.host = rest.substr(0, colon);
    const std::string port_text = rest.substr(colon + 1);
    unsigned port = 0;
    const auto [ptr, ec] = std::from_chars(
        port_text.data(), port_text.data() + port_text.size(), port);
    if (ec != std::errc{} || ptr != port_text.data() + port_text.size() ||
        port == 0 || port > 65535) {
      throw std::invalid_argument("bad tcp port in: " + text);
    }
    address.port = static_cast<std::uint16_t>(port);
    return address;
  }
  throw std::invalid_argument(
      "address must start with unix: or tcp: (got '" + text + "')");
}

bool wait_connectable(const Address& address,
                      std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    try {
      (void)Socket::connect_to(address);
      return true;
    } catch (const WireError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  return false;
}

// ------------------------------------------------------------------ Socket --

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    peer_ = std::move(other.peer_);
    other.fd_ = -1;
  }
  return *this;
}

void Socket::set_io_timeout(double timeout_ms) noexcept {
  if (!valid()) return;
  timeval tv{};
  if (timeout_ms > 0) {
    const auto total_us = static_cast<long>(timeout_ms * 1000.0);
    tv.tv_sec = total_us / 1000000;
    tv.tv_usec = total_us % 1000000;
    // A sub-microsecond request must not round to {0, 0} — that means
    // "blocking forever", the opposite of what the caller asked for.
    if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;
  }
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  (void)::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

Socket Socket::connect_to(const Address& address) {
  const int domain = address.kind == Address::Kind::kUnix ? AF_UNIX : AF_INET;
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  Socket socket(fd);
  int rc = 0;
  if (address.kind == Address::Kind::kUnix) {
    const sockaddr_un addr = unix_sockaddr(address.path);
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  } else {
    const sockaddr_in addr = tcp_sockaddr(address.host, address.port);
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
    if (rc == 0) {
      const int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
  }
  if (rc != 0) throw_errno("connect to " + address.to_string());
  socket.set_peer(address.to_string());
  return socket;
}

void Socket::send_all(const void* data, std::size_t bytes) {
  const char* p = static_cast<const char*>(data);
  while (bytes > 0) {
    const ssize_t sent = ::send(fd_, p, bytes, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw WireTimeout("send timed out to " + peer_);
      }
      throw_errno("send");
    }
    p += sent;
    bytes -= static_cast<std::size_t>(sent);
  }
}

void Socket::recv_all(void* data, std::size_t bytes) {
  char* p = static_cast<char*>(data);
  while (bytes > 0) {
    const ssize_t got = ::recv(fd_, p, bytes, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw WireTimeout("recv timed out from " + peer_);
      }
      throw_errno("recv");
    }
    if (got == 0) throw WireError("peer closed the connection");
    p += got;
    bytes -= static_cast<std::size_t>(got);
  }
}

void Socket::send_bytes(std::string_view data) {
  send_all(data.data(), data.size());
}

std::size_t Socket::recv_some(char* buffer, std::size_t capacity) {
  for (;;) {
    const ssize_t got = ::recv(fd_, buffer, capacity, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw WireTimeout("recv timed out from " + peer_);
      }
      throw_errno("recv");
    }
    return static_cast<std::size_t>(got);  // 0 = orderly EOF
  }
}

void Socket::apply_fault(const char* site,
                         std::span<const std::uint8_t> payload) {
  auto& injector = fault::Injector::global();
  const fault::Decision decision = injector.decide(site, peer_);
  switch (decision.action) {
    case fault::Action::kNone:
      return;
    case fault::Action::kDelay:
    case fault::Action::kStall:
      injector.sleep_for(decision);
      return;
    case fault::Action::kDrop:
      // Severed, not closed: the socket's owner closes it (a
      // ConnectionServer under the lock its stop() severs under).
      shutdown_both();
      throw WireError("fault injection: dropped connection (" +
                      std::string(site) + ", peer " + peer_ + ")");
    case fault::Action::kTruncate: {
      // Announce the full frame, deliver half, then sever: the peer sees a
      // mid-frame close, exactly the torn write a crashing process leaves.
      if (!payload.empty()) {
        const std::uint32_t length =
            static_cast<std::uint32_t>(payload.size());
        send_all(&length, sizeof length);
        send_all(payload.data(), payload.size() / 2);
      }
      shutdown_both();
      throw WireError("fault injection: truncated frame (" +
                      std::string(site) + ", peer " + peer_ + ")");
    }
  }
}

void Socket::send_frame(std::span<const std::uint8_t> payload) {
  if (!valid()) throw WireError("send on closed socket");
  if (payload.size() > kMaxFrameBytes) {
    throw WireError("frame too large: " + std::to_string(payload.size()));
  }
  if (fault::Injector::global().active()) apply_fault("socket.send", payload);
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  send_all(&length, sizeof length);
  send_all(payload.data(), payload.size());
}

std::vector<std::uint8_t> Socket::recv_frame() {
  if (!valid()) throw WireError("recv on closed socket");
  if (fault::Injector::global().active()) apply_fault("socket.recv", {});
  std::uint32_t length = 0;
  recv_all(&length, sizeof length);
  if (length > kMaxFrameBytes) {
    throw WireError("oversized frame announced: " + std::to_string(length));
  }
  std::vector<std::uint8_t> payload(length);
  recv_all(payload.data(), payload.size());
  return payload;
}

std::size_t first_readable(std::span<const Socket* const> sockets,
                           int timeout_ms) {
  std::vector<pollfd> fds;
  fds.reserve(sockets.size());
  for (const Socket* socket : sockets) {
    fds.push_back({socket->fd(), POLLIN, 0});  // poll(2) skips a negative fd
  }
  if (!poll_input(fds, timeout_ms)) return sockets.size();
  const auto ready = std::ranges::find_if(
      fds, [](const pollfd& fd) { return fd.revents != 0; });
  return static_cast<std::size_t>(ready - fds.begin());
}

void Socket::shutdown_both() noexcept {
  if (valid()) (void)::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() noexcept {
  if (valid()) {
    (void)::close(fd_);
    fd_ = -1;
  }
}

// -------------------------------------------------------- ConnectionServer --

ConnectionServer::ConnectionServer(Address address, Body body)
    : address_(std::move(address)), body_(std::move(body)) {
  const bool is_unix = address_.kind == Address::Kind::kUnix;
  listener_ = Socket(::socket(is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0));
  if (!listener_.valid()) throw_errno("socket");
  int rc = 0;
  if (is_unix) {
    // A stale socket file from a crashed engine would fail the bind.
    std::error_code ec;
    std::filesystem::remove(address_.path, ec);
    const sockaddr_un addr = unix_sockaddr(address_.path);
    rc = ::bind(listener_.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr);
  } else {
    const int one = 1;
    (void)::setsockopt(listener_.fd(), SOL_SOCKET, SO_REUSEADDR, &one,
                       sizeof one);
    const sockaddr_in addr = tcp_sockaddr(address_.host, address_.port);
    rc = ::bind(listener_.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr);
  }
  if (rc != 0) throw_errno("bind " + address_.to_string());
  if (::listen(listener_.fd(), SOMAXCONN) != 0) throw_errno("listen");
}

ConnectionServer::~ConnectionServer() { stop(); }

void ConnectionServer::start() {
  const MutexLock lock(mutex_);
  if (stopping_ || acceptor_.joinable()) return;
  acceptor_ = std::thread([this] { accept_loop(); });
}

void ConnectionServer::stop() {
  {
    const MutexLock lock(mutex_);
    if (stopping_) return;  // the first caller owns the joins
    stopping_ = true;
  }
  // shutdown(2) makes the blocked accept() fail at once. The fd stays open
  // until the acceptor is joined, so its number cannot be recycled into
  // another file under a running accept().
  listener_.shutdown_both();
  if (acceptor_.joinable()) acceptor_.join();
  listener_.close();
  if (address_.kind == Address::Kind::kUnix) {
    std::error_code ec;
    std::filesystem::remove(address_.path, ec);
  }
  std::list<Connection> connections;
  {
    const MutexLock lock(mutex_);
    for (Connection& connection : connections_) {
      connection.socket.shutdown_both();  // wakes a body blocked in I/O
    }
    connections.swap(connections_);  // elements keep their addresses
  }
  for (Connection& connection : connections) connection.thread.join();
}

void ConnectionServer::accept_loop() {
  for (;;) {
    Socket socket(::accept(listener_.fd(), nullptr, nullptr));
    const MutexLock lock(mutex_);
    if (stopping_) return;
    // A failed accept (a signal, a connection that died in the backlog,
    // no fd left) is retried.
    if (!socket.valid()) continue;
    // A connection marks itself done as its final locked action, so these
    // joins never wait on live work.
    std::erase_if(connections_, [](Connection& connection) {
      if (!connection.done) return false;
      connection.thread.join();
      return true;
    });
    socket.set_peer(address_.to_string());
    Connection& connection = connections_.emplace_back();
    connection.socket = std::move(socket);
    connection.thread = std::thread([this, &connection] { serve(connection); });
  }
}

void ConnectionServer::serve(Connection& connection) {
  try {
    body_(connection.socket);
  } catch (const WireError&) {
    // The peer went away or stop() severed the connection.
  }
  const MutexLock lock(mutex_);
  connection.socket.close();
  connection.done = true;
}

}  // namespace pelican::router
