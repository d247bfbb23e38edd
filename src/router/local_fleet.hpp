// LocalFleet: spawn-and-supervise for a same-host fleet of pelican_engined
// processes — the bootstrap used by bench/router_throughput and
// examples/serving_cluster (tests keep their own fork helpers so they can
// exercise crash paths directly).
//
// The fleet lives under one root directory: Unix socket e<i>.sock per
// process plus the fleet-shared filesystem model store in store/. Spawning
// is fork+exec of the pelican_engined binary — resolved from
// $PELICAN_ENGINED or as the ../tools sibling of the calling binary — and
// the constructor blocks until every process accepts connections. The
// destructor SIGKILLs whatever was not drained/reaped, and each engine is
// also SIGKILLed by the kernel when its owner exits without running it
// (PR_SET_PDEATHSIG), so a crashing bench never leaks daemons. That signal
// follows the THREAD that forked, not the process: build a LocalFleet on a
// thread that outlives it.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace pelican::router {

/// "unix:<root>/e<index>.sock" — the fleet's socket naming scheme, shared
/// with the router tests so spawned-by-hand engines and LocalFleet agree.
[[nodiscard]] std::string fleet_socket_address(
    const std::filesystem::path& root, std::size_t index);

struct LocalFleetConfig {
  /// Sockets and the shared store live here; created if absent.
  std::filesystem::path root;
  std::size_t processes = 2;
  /// Store scope the engines resolve deploy/publish keys against.
  std::string scope = "personal";
  /// pelican_engined binary; empty resolves via default_engined_path().
  std::string engined_binary;
  /// Extra argv entries appended to every engine's command line (e.g.
  /// {"--max-batch", "64"}).
  std::vector<std::string> extra_args;
};

class LocalFleet {
 public:
  /// $PELICAN_ENGINED if set, else the ../tools/pelican_engined sibling of
  /// the calling binary (/proc/self/exe), else empty (not found).
  [[nodiscard]] static std::string default_engined_path();

  /// Spawns the fleet and waits until every process accepts connections.
  /// Throws std::runtime_error when the binary cannot be found or a
  /// process does not come up (everything spawned so far is killed).
  explicit LocalFleet(LocalFleetConfig config);

  /// SIGKILLs and reaps every process not already reaped.
  ~LocalFleet();

  LocalFleet(const LocalFleet&) = delete;
  LocalFleet& operator=(const LocalFleet&) = delete;

  /// Wire addresses, one per process, in spawn order.
  [[nodiscard]] const std::vector<std::string>& addresses() const noexcept {
    return addresses_;
  }
  /// Root of the fleet-shared filesystem model store.
  [[nodiscard]] std::filesystem::path store_root() const {
    return config_.root / "store";
  }
  [[nodiscard]] std::size_t size() const noexcept { return pids_.size(); }
  [[nodiscard]] pid_t pid(std::size_t index) const { return pids_.at(index); }

  /// SIGKILL + reap of one process (a crash, from the router's point of
  /// view). No-op when already reaped.
  void kill(std::size_t index);

  /// Blocking reap of one process (after a drain); returns its exit code,
  /// -1 on abnormal exit, or 0 when already reaped.
  int reap(std::size_t index);

 private:
  LocalFleetConfig config_;
  std::vector<std::string> addresses_;
  std::vector<pid_t> pids_;  ///< -1 once reaped
};

}  // namespace pelican::router
