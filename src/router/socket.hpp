// Stream-socket transport of the router tier: RAII fds, Unix-domain and
// TCP endpoints, length-prefixed frame I/O, and the connection server
// every listening process of the tier runs on.
//
// Addresses are strings so configs and CLI flags stay trivial:
//   "unix:/tmp/pelican/e0.sock"   Unix-domain stream socket (the default
//                                 for same-host fleets: no ports, no
//                                 loopback stack, filesystem permissions)
//   "tcp:127.0.0.1:7401"          TCP, for engines on other hosts
//
// Framing: a u32 little-endian payload length, then the payload (a
// router/wire frame). recv_frame() rejects frames above kMaxFrameBytes so
// a corrupt or hostile peer cannot drive an unbounded allocation.
//
// Failure model: every transport error — connect refused, peer died
// mid-frame (a SIGKILLed engine), short read at EOF — throws WireError.
// The Router maps any WireError on a backend connection to "backend dead"
// and triggers failover-repartition. Sockets additionally support a
// per-socket I/O deadline (set_io_timeout): when a send or recv exceeds it,
// the more specific WireTimeout is thrown instead, which the Router treats
// as "backend possibly hung" — it probes the engine's health verb and
// quarantines (rather than forgets) a stalling process so it can rejoin on
// recovery.
//
// Fault injection: when common/fault rules are loaded (PELICAN_FAULT or a
// programmatic Injector configuration), send_frame/recv_frame consult the
// sites "socket.send" / "socket.recv" with this socket's peer label and can
// be made to delay, stall, drop the connection, or truncate a frame
// mid-write — deterministically, for the chaos suite.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"

namespace pelican::router {

/// Transport-level failure (connect/send/recv); the frame or connection is
/// unusable and the backend should be treated as dead.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A send/recv exceeded the socket's I/O deadline (set_io_timeout). The
/// connection is unusable like any WireError, but the PEER may merely be
/// slow, not dead — callers distinguish "probe and maybe quarantine" from
/// "forget this backend".
class WireTimeout : public WireError {
 public:
  using WireError::WireError;
};

/// Largest accepted frame payload. Generous: real frames are far smaller
/// (the biggest is a kMetricsReply with a full registry and journals).
inline constexpr std::uint32_t kMaxFrameBytes = 256u * 1024u * 1024u;

struct Address {
  enum class Kind : std::uint8_t { kUnix = 0, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;              ///< kUnix: filesystem path
  std::string host;              ///< kTcp
  std::uint16_t port = 0;        ///< kTcp

  [[nodiscard]] std::string to_string() const;
};

/// Parses "unix:<path>" or "tcp:<host>:<port>". Throws std::invalid_argument
/// on anything else (including Unix paths too long for sockaddr_un).
[[nodiscard]] Address parse_address(const std::string& text);

/// Polls `address` until something accepts a connection or `timeout`
/// elapses (false). The readiness probe for freshly spawned engines, used
/// by LocalFleet and the router tests.
[[nodiscard]] bool wait_connectable(
    const Address& address,
    std::chrono::milliseconds timeout = std::chrono::seconds(10));

/// A connected stream socket (move-only RAII). All I/O is blocking;
/// SIGPIPE is suppressed per-send.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept
      : fd_(other.fd_), peer_(std::move(other.peer_)) {
    other.fd_ = -1;
  }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Connects to `address`. Throws WireError when nothing is listening.
  /// The socket's peer label is set to the address string.
  [[nodiscard]] static Socket connect_to(const Address& address);

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Label used in error messages and fault-injection peer matching. For
  /// connected sockets this is the remote address; engine-side accepted
  /// sockets carry the engine's OWN listen address (faults target engines
  /// by identity, not by their clients' ephemeral endpoints).
  void set_peer(std::string peer) noexcept { peer_ = std::move(peer); }
  [[nodiscard]] const std::string& peer() const noexcept { return peer_; }

  /// Deadline applied to every subsequent send/recv syscall on this socket
  /// (SO_SNDTIMEO / SO_RCVTIMEO). On expiry the I/O call throws
  /// WireTimeout. <= 0 restores fully blocking I/O. Best-effort per
  /// syscall: a peer trickling bytes can extend a frame's total time to
  /// roughly timeout x frame chunks, which is fine for "is it hung".
  void set_io_timeout(double timeout_ms) noexcept;

  /// Length-prefixed write of one wire frame.
  void send_frame(std::span<const std::uint8_t> payload);

  /// Blocking read of one full frame. Throws WireError on EOF (peer gone),
  /// I/O error, or an over-limit length prefix.
  [[nodiscard]] std::vector<std::uint8_t> recv_frame();

  /// Raw (UNframed) byte I/O, for protocols with their own framing carried
  /// over this transport — the HTTP exposition body (router/obs_http).
  /// send_bytes writes all of `data`; recv_some performs ONE read into
  /// `buffer`, returning the byte count — 0 means orderly EOF (unlike
  /// recv_frame, a valid end of an HTTP request stream, not an error).
  /// Both honor set_io_timeout (WireTimeout) and throw WireError on
  /// transport failure.
  void send_bytes(std::string_view data);
  [[nodiscard]] std::size_t recv_some(char* buffer, std::size_t capacity);

  /// Wakes any thread blocked in this socket's I/O with an EOF/error
  /// (used to stop connection-handler threads). Safe from other threads.
  void shutdown_both() noexcept;

  void close() noexcept;

 private:
  void send_all(const void* data, std::size_t bytes);
  void recv_all(void* data, std::size_t bytes);
  /// Applies a fault-injection decision for `site` ("socket.send" /
  /// "socket.recv"); may sleep, sever the connection, or — send-side —
  /// write a deliberately truncated frame before severing.
  void apply_fault(const char* site, std::span<const std::uint8_t> payload);

  int fd_ = -1;
  std::string peer_;
};

/// One poll(2) over `sockets`: waits up to `timeout_ms` (< 0 = no limit,
/// 0 = just look) until a read on one of them would not block (data, EOF
/// or an error is pending) and returns the first such socket's index;
/// sockets.size() on timeout. Closed sockets are skipped. Router::serve()
/// waits on every group of a round with this, and a hedge races its
/// primary with it.
[[nodiscard]] std::size_t first_readable(
    std::span<const Socket* const> sockets, int timeout_ms);

/// A listening socket with one thread per accepted connection, the
/// connection lifecycle of every server in the tier (EngineWorker, the
/// flight recorder's HTTP endpoint). Connections are few and mostly
/// long-lived (a router pool holds up to pool_connections per engine), so
/// a blocking thread each is simpler than an event loop and costs nothing
/// that matters.
///
/// The server owns each connection's socket: `body` runs on the
/// connection's own thread, and when it returns (or a WireError escapes
/// it, which ends the connection quietly) the server closes the socket
/// under its lock, the same lock stop() holds while it severs open
/// connections, so an fd is never recycled under a shutdown. Finished
/// threads are joined at each accept. An accepted socket's peer label is
/// the server's OWN address (see Socket::set_peer).
class ConnectionServer {
 public:
  using Body = std::function<void(Socket&)>;

  /// Binds and listens on `address` (throws WireError when it is busy);
  /// accepts nothing until start(). A stale Unix socket file is removed
  /// before the bind.
  ConnectionServer(Address address, Body body);
  /// As stop().
  ~ConnectionServer();

  ConnectionServer(const ConnectionServer&) = delete;
  ConnectionServer& operator=(const ConnectionServer&) = delete;

  /// Starts the accept thread. Does nothing when started or stopped.
  void start();

  /// Wakes the accept thread with shutdown(2) and joins it, closes the
  /// listener and removes its Unix socket file, then severs every open
  /// connection and joins its thread. Does nothing after the first call.
  /// Never call it from a body: it would join its own thread.
  void stop();

  [[nodiscard]] const Address& address() const noexcept { return address_; }

 private:
  struct Connection {
    Socket socket;
    std::thread thread;
    /// Set as the connection's final locked action, read by the reaper
    /// under mutex_ (a nested struct cannot name the enclosing mutex).
    bool done = false;
  };

  void accept_loop();
  void serve(Connection& connection);

  const Address address_;
  const Body body_;
  /// The listening fd; Socket only for its RAII close and shutdown.
  Socket listener_;
  /// Started by start() under mutex_ only while stopping_ is unset, and
  /// joined by the one stop() that set it.
  std::thread acceptor_;

  Mutex mutex_;
  bool stopping_ PELICAN_GUARDED_BY(mutex_) = false;
  /// A list: each running body holds a reference into it.
  std::list<Connection> connections_ PELICAN_GUARDED_BY(mutex_);
};

}  // namespace pelican::router
