// Satellite (c): malformed frames surface as clean typed errors on both
// sides of the wire — never a hang, never an unbounded allocation.
//
//   engine side   a client that sends a truncated length prefix, an
//                 oversized length claim, or half a frame then disappears
//                 gets its connection severed; the engine keeps serving
//                 everyone else.
//   router side   recv_frame throws WireError on an oversized claim or a
//                 peer that dies mid-frame, and WireTimeout (a WireError
//                 subclass) when the peer just goes silent past the
//                 socket's I/O deadline.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <string>
#include <vector>

#include "router/engine_worker.hpp"
#include "router/socket.hpp"
#include "router/wire.hpp"
#include "router_support.hpp"

namespace pelican::router {
namespace {

namespace rt = pelican::router_testing;

/// Raw byte write, bypassing Socket's framing — how a corrupt or hostile
/// peer is played.
void write_raw(int fd, const void* data, std::size_t bytes) {
  const auto* cursor = static_cast<const std::uint8_t*>(data);
  while (bytes > 0) {
    const ssize_t sent = ::send(fd, cursor, bytes, MSG_NOSIGNAL);
    ASSERT_GT(sent, 0) << "raw test write failed";
    cursor += sent;
    bytes -= static_cast<std::size_t>(sent);
  }
}

class MalformedFrameTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<EngineWorker>(rt::engine_config(dir_, 0));
    engine_->start();
    address_ = parse_address(dir_.socket_address(0));
  }

  /// The liveness oracle: a well-formed health exchange succeeding proves
  /// the engine shrugged the malformed connection off.
  void expect_engine_alive() {
    Socket socket = Socket::connect_to(address_);
    socket.set_io_timeout(5000);  // an unresponsive engine fails, not hangs
    socket.send_frame(encode_health());
    const HealthReply reply = decode_health_reply(socket.recv_frame());
    EXPECT_FALSE(reply.draining);
  }

  rt::TempDir dir_;
  std::unique_ptr<EngineWorker> engine_;
  Address address_;
};

TEST_F(MalformedFrameTest, TruncatedLengthPrefixSeversConnection) {
  {
    Socket socket = Socket::connect_to(address_);
    const std::uint8_t half_prefix[2] = {0x10, 0x00};  // 2 of 4 length bytes
    write_raw(socket.fd(), half_prefix, sizeof half_prefix);
  }  // close mid-prefix
  expect_engine_alive();
}

TEST_F(MalformedFrameTest, OversizedLengthClaimIsRejectedNotAllocated) {
  Socket socket = Socket::connect_to(address_);
  const std::uint32_t claim = kMaxFrameBytes + 1;
  write_raw(socket.fd(), &claim, sizeof claim);
  // The engine must sever immediately — observed as a typed error on our
  // next read, well before any timeout.
  socket.set_io_timeout(5000);
  EXPECT_THROW((void)socket.recv_frame(), WireError);
  expect_engine_alive();
}

TEST_F(MalformedFrameTest, MidFrameCloseSeversConnection) {
  {
    Socket socket = Socket::connect_to(address_);
    const std::uint32_t claim = 100;
    write_raw(socket.fd(), &claim, sizeof claim);
    const std::vector<std::uint8_t> partial(10, 0xAB);
    write_raw(socket.fd(), partial.data(), partial.size());
  }  // vanish with 90 bytes owed
  expect_engine_alive();
}

TEST_F(MalformedFrameTest, GarbageVerbIsAnsweredNotFatal) {
  // 0xFF was never a verb; 5 and 68 are the retired stats request/reply.
  const std::vector<std::vector<std::uint8_t>> frames = {
      {0xFF, 0xDE, 0xAD, 0xBE, 0xEF}, {5}, {68}};
  for (const auto& garbage : frames) {
    Socket socket = Socket::connect_to(address_);
    socket.set_io_timeout(5000);
    socket.send_frame(garbage);  // well-framed, nonsense inside
    const Ack ack = decode_ack(socket.recv_frame());
    EXPECT_FALSE(ack.ok) << "verb byte " << int{garbage.front()}
                         << " is a refused request, not a crash";
    expect_engine_alive();
  }
}

// Router-side typed errors, against raw fake servers: each runs a script
// on the accepted connection's fd as its body.

TEST_F(MalformedFrameTest, ClientRejectsOversizedClaim) {
  ConnectionServer server(parse_address(dir_.socket_address(1)),
                          [](Socket& accepted) {
                            const std::uint32_t claim = kMaxFrameBytes + 1;
                            write_raw(accepted.fd(), &claim, sizeof claim);
                          });
  server.start();
  Socket socket = Socket::connect_to(server.address());
  socket.set_io_timeout(5000);
  try {
    (void)socket.recv_frame();
    FAIL() << "an oversized length claim must throw";
  } catch (const WireTimeout&) {
    FAIL() << "the claim must be rejected on arrival, not timed out";
  } catch (const WireError& error) {
    EXPECT_NE(std::string(error.what()).find("oversized"), std::string::npos);
  }
}

TEST_F(MalformedFrameTest, ClientSurfacesMidFramePeerDeath) {
  ConnectionServer server(parse_address(dir_.socket_address(1)),
                          [](Socket& accepted) {
                            const std::uint32_t claim = 100;
                            write_raw(accepted.fd(), &claim, sizeof claim);
                            const std::uint8_t partial[10] = {};
                            write_raw(accepted.fd(), partial, sizeof partial);
                            // return: the server closes the connection
                            // with 90 bytes owed
                          });
  server.start();
  Socket socket = Socket::connect_to(server.address());
  socket.set_io_timeout(5000);
  EXPECT_THROW((void)socket.recv_frame(), WireError);
}

TEST_F(MalformedFrameTest, SilentPeerThrowsWireTimeout) {
  ConnectionServer server(parse_address(dir_.socket_address(1)),
                          [](Socket& accepted) {
                            // Say nothing; hold the connection open until
                            // the client gives up.
                            std::uint8_t byte = 0;
                            (void)::recv(accepted.fd(), &byte, 1, 0);
                          });
  server.start();
  Socket socket = Socket::connect_to(server.address());
  socket.set_io_timeout(50);
  EXPECT_THROW((void)socket.recv_frame(), WireTimeout);
}

}  // namespace
}  // namespace pelican::router
