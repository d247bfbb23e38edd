#include "router/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <thread>
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

/// poll() for input on one fd, retried on EINTR. Returns the reported
/// events, 0 on timeout.
short poll_input(int fd, int timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0 && errno == EINTR) continue;
    return rc > 0 ? pfd.revents : 0;
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
      shutdown_both();
      close();
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
      close();
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

bool Socket::wait_readable(int timeout_ms) const {
  return valid() && poll_input(fd_, timeout_ms) != 0;
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

// ------------------------------------------------------------ ListenSocket --

ListenSocket::~ListenSocket() { close(); }

ListenSocket::ListenSocket(ListenSocket&& other) noexcept
    : fd_(other.fd_),
      address_(std::move(other.address_)),
      unlink_on_close_(other.unlink_on_close_) {
  other.fd_ = -1;
  other.unlink_on_close_ = false;
}

ListenSocket& ListenSocket::operator=(ListenSocket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    address_ = std::move(other.address_);
    unlink_on_close_ = other.unlink_on_close_;
    other.fd_ = -1;
    other.unlink_on_close_ = false;
  }
  return *this;
}

ListenSocket ListenSocket::bind_to(const Address& address) {
  const int domain = address.kind == Address::Kind::kUnix ? AF_UNIX : AF_INET;
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  ListenSocket listener;
  listener.fd_ = fd;
  listener.address_ = address;
  int rc = 0;
  if (address.kind == Address::Kind::kUnix) {
    // A stale socket file from a crashed engine would fail the bind.
    std::error_code ec;
    std::filesystem::remove(address.path, ec);
    const sockaddr_un addr = unix_sockaddr(address.path);
    rc = ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
    listener.unlink_on_close_ = rc == 0;
  } else {
    const int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    const sockaddr_in addr = tcp_sockaddr(address.host, address.port);
    rc = ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  }
  if (rc != 0) throw_errno("bind " + address.to_string());
  if (::listen(fd, SOMAXCONN) != 0) throw_errno("listen");
  return listener;
}

Socket ListenSocket::accept() {
  if (!valid()) throw WireError("accept on closed listener");
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      Socket socket(fd);
      // Engine-side sockets are labeled with the engine's OWN address so
      // fault rules can target "every frame engine e1 handles" without
      // knowing its clients' ephemeral endpoints.
      socket.set_peer(address_.to_string());
      return socket;
    }
    if (errno == EINTR) continue;
    throw_errno("accept on " + address_.to_string());
  }
}

bool ListenSocket::wait_readable(int timeout_ms) const {
  return valid() && (poll_input(fd_, timeout_ms) & POLLIN) != 0;
}

void ListenSocket::close() noexcept {
  if (valid()) {
    (void)::close(fd_);
    fd_ = -1;
  }
  if (unlink_on_close_) {
    std::error_code ec;
    std::filesystem::remove(address_.path, ec);
    unlink_on_close_ = false;
  }
}

}  // namespace pelican::router
