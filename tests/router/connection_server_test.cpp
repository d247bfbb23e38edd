// ConnectionServer, the connection lifecycle EngineWorker and the HTTP
// endpoint share: concurrent bodies, reaping of finished connections,
// stop() severing a blocked body and removing its socket file, and stop()
// before start() or twice.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "router/socket.hpp"
#include "router_support.hpp"

namespace pelican::router {
namespace {

using router_testing::TempDir;

/// Polls `condition` for up to 5 s.
template <typename Condition>
bool eventually(Condition condition) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (condition()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return condition();
}

/// One field of /proc/self/status ("Threads", "VmSize" in kB).
long proc_status(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with(field + ":")) {
      return std::stol(line.substr(field.size() + 1));
    }
  }
  return -1;
}

/// Reads one byte; 0 at EOF.
char read_byte(Socket& socket) {
  socket.set_io_timeout(10000);
  char byte = 0;
  return socket.recv_some(&byte, 1) == 1 ? byte : '\0';
}

TEST(ConnectionServerTest, TwoBodiesBlockedAtOnceAreBothServed) {
  TempDir dir;
  const std::string address = dir.socket_address(0);
  std::atomic<int> inside{0};
  ConnectionServer server(parse_address(address), [&](Socket& socket) {
    EXPECT_EQ(socket.peer(), address) << "accepted sockets carry our address";
    inside.fetch_add(1);
    // Each body waits for the other: a server that ran one connection at
    // a time would never have both inside.
    const bool both = eventually([&] { return inside.load() == 2; });
    socket.send_bytes(both ? "y" : "n");
  });
  server.start();
  Socket first = Socket::connect_to(server.address());
  Socket second = Socket::connect_to(server.address());
  EXPECT_EQ(read_byte(first), 'y');
  EXPECT_EQ(read_byte(second), 'y');
}

TEST(ConnectionServerTest, FinishedConnectionsAreReaped) {
#if defined(__GLIBC__)
  // One malloc arena for the whole process: connection threads that contend
  // for an arena would otherwise map new 64 MB ones, which read below as
  // stacks left unjoined.
  (void)mallopt(M_ARENA_MAX, 1);
#endif
  TempDir dir;
  ConnectionServer server(parse_address(dir.socket_address(0)),
                          [](Socket& socket) {
                            socket.send_bytes("y");
                            char byte = 0;
                            while (socket.recv_some(&byte, 1) > 0) {
                            }
                          });
  server.start();
  const auto cycle = [&] {
    Socket socket = Socket::connect_to(server.address());
    return read_byte(socket) == 'y';
  };
  // Warm up before the baseline: the accept thread's first allocation
  // maps a malloc arena.
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(cycle());
  const long threads = proc_status("Threads");
  const long vm_kb = proc_status("VmSize");
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(cycle());
  // The last bodies may still be finishing.
  EXPECT_TRUE(eventually([&] { return proc_status("Threads") <= threads + 2; }))
      << proc_status("Threads") << " threads, " << threads << " at the start";
  // One more accept joins the connections that finished since the last.
  ASSERT_TRUE(cycle());
  // An exited thread that is never joined keeps its stack mapped; 200 of
  // them would add hundreds of MB.
  EXPECT_LT(proc_status("VmSize") - vm_kb, 64L * 1024)
      << "finished connection threads were not joined: VmSize grew "
      << proc_status("VmSize") - vm_kb << " kB";
}

TEST(ConnectionServerTest, StopSeversABodyBlockedInRecvAndRemovesTheFile) {
  TempDir dir;
  const std::string address = dir.socket_address(0);
  std::atomic<bool> entered{false};
  std::atomic<bool> returned{false};
  ConnectionServer server(parse_address(address), [&](Socket& socket) {
    entered.store(true);
    char byte = 0;
    (void)socket.recv_some(&byte, 1);  // the client never writes
    returned.store(true);
  });
  server.start();
  Socket client = Socket::connect_to(server.address());
  ASSERT_TRUE(eventually([&] { return entered.load(); }));

  const auto start = std::chrono::steady_clock::now();
  server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));
  EXPECT_TRUE(returned.load()) << "stop() joined the body, so it returned";
  EXPECT_FALSE(std::filesystem::exists(parse_address(address).path));
  EXPECT_EQ(read_byte(client), '\0') << "the client sees the connection end";
  EXPECT_THROW((void)Socket::connect_to(parse_address(address)), WireError);
}

TEST(ConnectionServerTest, StopBeforeStartAndASecondStopDoNothing) {
  TempDir dir;
  const Address address = parse_address(dir.socket_address(0));
  std::atomic<int> bodies{0};
  ConnectionServer server(address, [&](Socket&) { bodies.fetch_add(1); });
  server.stop();
  server.stop();
  server.start();  // a stopped server never starts
  EXPECT_FALSE(std::filesystem::exists(address.path));
  EXPECT_THROW((void)Socket::connect_to(address), WireError);
  EXPECT_EQ(bodies.load(), 0);
}

}  // namespace
}  // namespace pelican::router
