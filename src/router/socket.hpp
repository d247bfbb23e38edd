// Stream-socket transport of the router tier: RAII fds, Unix-domain and
// TCP endpoints, and length-prefixed frame I/O.
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
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

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
  /// over this transport — the HTTP exposition server (router/obs_http).
  /// send_bytes writes all of `data`; recv_some performs ONE read into
  /// `buffer`, returning the byte count — 0 means orderly EOF (unlike
  /// recv_frame, a valid end of an HTTP request stream, not an error).
  /// Both honor set_io_timeout (WireTimeout) and throw WireError on
  /// transport failure.
  void send_bytes(std::string_view data);
  [[nodiscard]] std::size_t recv_some(char* buffer, std::size_t capacity);

  /// Waits up to `timeout_ms` (0 = just look) until a read would not
  /// block: data, EOF or an error is pending. False on timeout. The
  /// router's hedged exchange polls its primary with this.
  [[nodiscard]] bool wait_readable(int timeout_ms) const;

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

/// A bound, listening stream socket. For kUnix addresses, bind unlinks a
/// stale socket file first and the destructor unlinks it again.
class ListenSocket {
 public:
  ListenSocket() = default;
  ~ListenSocket();

  ListenSocket(ListenSocket&& other) noexcept;
  ListenSocket& operator=(ListenSocket&& other) noexcept;
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  [[nodiscard]] static ListenSocket bind_to(const Address& address);

  /// Blocks until a peer connects. Throws WireError when the socket was
  /// closed (the accept loop's stop signal) or on accept failure. The
  /// accepted socket's peer label is this listener's own address — see
  /// Socket::set_peer.
  [[nodiscard]] Socket accept();

  /// Waits up to `timeout_ms` for a pending connection; false on timeout.
  /// The poll()-based accept loop uses this to observe its stop flag.
  [[nodiscard]] bool wait_readable(int timeout_ms) const;

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] const Address& address() const noexcept { return address_; }

  void close() noexcept;

 private:
  int fd_ = -1;
  Address address_;
  bool unlink_on_close_ = false;
};

}  // namespace pelican::router
