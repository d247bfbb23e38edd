// Shared helpers for router-tier tests: per-test temp directories (socket
// paths + the fleet-shared filesystem model store), reference deployments
// to compare wire-served responses against, in-process EngineWorker fleets,
// spawn/kill of real pelican_engined processes, and reader threads that
// keep a router busy while its membership changes.
#pragma once

#include <signal.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/service.hpp"
#include "router/engine_worker.hpp"
#include "router/local_fleet.hpp"
#include "router/router.hpp"
#include "router/socket.hpp"
#include "serve/serve_support.hpp"
#include "store/model_store.hpp"

namespace pelican::router_testing {

using router::Address;
using router::EngineConfig;
using router::EngineWorker;
using router::parse_address;
using router::Socket;
using router::WireError;

/// Per-test scratch directory under /tmp. Kept SHORT on purpose: it hosts
/// Unix socket paths, and sockaddr_un caps them at ~107 bytes.
class TempDir {
 public:
  TempDir() {
    dir_ = std::filesystem::temp_directory_path() /
           ("plcn_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  [[nodiscard]] const std::filesystem::path& path() const { return dir_; }

  [[nodiscard]] std::string socket_address(std::size_t index) const {
    return router::fleet_socket_address(dir_, index);
  }
  [[nodiscard]] std::filesystem::path store_root() const {
    return dir_ / "store";
  }

 private:
  static inline int counter_ = 0;
  std::filesystem::path dir_;
};

/// Deterministic per-(user, version) model seed, shared by the store
/// contents and the reference deployments responses are compared against.
inline std::uint64_t model_seed(std::uint32_t user, std::uint32_t version) {
  return 1000ULL + 17ULL * user + version;
}

inline double temperature_of(std::uint32_t user) {
  return user % 2 == 0 ? 1.0 : 5.0;
}

/// Populates the fleet-shared filesystem store with `versions` versions for
/// each of `users` users under scope "personal".
inline void fill_store(const std::filesystem::path& root, std::uint32_t users,
                       std::uint32_t versions) {
  store::ModelStore store(std::make_unique<store::FilesystemBackend>(root));
  for (std::uint32_t user = 0; user < users; ++user) {
    for (std::uint32_t version = 1; version <= versions; ++version) {
      store.put({"personal", user, version},
                serve_testing::tiny_model(model_seed(user, version)));
    }
  }
}

/// Adds one (user, version) model to the fleet-shared store — for users
/// outside a fill_store range (the filesystem backend reads on demand, so
/// this works even after engines have started).
inline void put_model(const std::filesystem::path& root, std::uint32_t user,
                      std::uint32_t version) {
  store::ModelStore store(std::make_unique<store::FilesystemBackend>(root));
  store.put({"personal", user, version},
            serve_testing::tiny_model(model_seed(user, version)));
}

/// The ground truth a routed response must match bit for bit: a standalone
/// deployment built from the same store seed.
inline core::DeployedModel reference_deployment(std::uint32_t user,
                                                std::uint32_t version) {
  return {serve_testing::tiny_model(model_seed(user, version)),
          serve_testing::tiny_spec(), core::PrivacyLayer(temperature_of(user)),
          core::DeploymentSite::kInCloud, version};
}

inline EngineConfig engine_config(const TempDir& dir, std::size_t index) {
  EngineConfig config;
  config.listen = dir.socket_address(index);
  config.store_root = dir.store_root();
  config.scope = "personal";
  config.registry_shards = 4;
  config.scheduler.max_batch = 8;
  config.scheduler.max_delay = std::chrono::microseconds(200);
  return config;
}

/// An in-process fleet of EngineWorkers, for tests that exercise the wire
/// path without fork/exec.
inline std::vector<std::unique_ptr<EngineWorker>> start_fleet(
    const TempDir& dir, std::size_t processes) {
  std::vector<std::unique_ptr<EngineWorker>> fleet;
  fleet.reserve(processes);
  for (std::size_t i = 0; i < processes; ++i) {
    fleet.push_back(std::make_unique<EngineWorker>(engine_config(dir, i)));
    fleet.back()->start();
  }
  return fleet;
}

/// Path of the pelican_engined binary: $PELICAN_ENGINED, or resolved
/// relative to this test binary (build/tests/x -> build/tools/...).
inline std::string engined_path() {
  if (const char* env = std::getenv("PELICAN_ENGINED")) return env;
  std::error_code ec;
  const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (!ec) {
    const auto candidate =
        self.parent_path().parent_path() / "tools" / "pelican_engined";
    if (std::filesystem::exists(candidate)) return candidate.string();
  }
  return "pelican_engined";  // last resort: $PATH
}

/// fork+exec of one engine process. Returns the child pid (-1 on failure).
/// `env` entries are setenv'd in the CHILD only (between fork and exec) —
/// how chaos tests hand one specific engine a PELICAN_FAULT spec without
/// faulting the test harness or its siblings.
inline pid_t spawn_engined(
    const TempDir& dir, std::size_t index,
    const std::vector<std::pair<std::string, std::string>>& env = {}) {
  const std::string binary = engined_path();
  const std::string listen = dir.socket_address(index);
  const std::string store = dir.store_root().string();
  std::vector<std::string> args = {binary,       "--listen",       listen,
                                   "--store",    store,            "--scope",
                                   "personal",   "--max-delay-us", "200",
                                   "--max-batch", "8"};
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (auto& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Die with the harness no matter how it exits. EngineProcesses covers
    // ASSERT early-returns, but a sanitizer abort calls _exit and skips
    // destructors — an orphaned engine would hold the test's stdout pipe
    // open and hang ctest on pipe EOF.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);  // parent already gone
    for (const auto& [key, value] : env) {
      ::setenv(key.c_str(), value.c_str(), /*overwrite=*/1);
    }
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);  // exec failed; the parent's connect wait will time out
  }
  return pid;
}

/// Waits until `address` accepts a connection (the engine is up).
inline bool wait_connectable(const std::string& address) {
  return router::wait_connectable(parse_address(address));
}

/// SIGKILLs and reaps an engine process — the crash failover covers.
inline void kill_engined(pid_t pid) {
  if (pid <= 0) return;
  ::kill(pid, SIGKILL);
  int status = 0;
  (void)::waitpid(pid, &status, 0);
}

/// Reaps a child expected to exit cleanly (drained). Returns its exit code,
/// or -1 when it did not exit normally within the blocking wait.
inline int reap_engined(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Owns the engine processes a test spawns; whatever is still running at
/// destruction is SIGKILLed and reaped. Tests MUST spawn through this
/// rather than raw spawn_engined: a failing ASSERT_* returns from the test
/// mid-flight, and an orphaned engine both leaks and holds the test's
/// output pipe open — ctest then waits for pipe EOF and the whole suite
/// hangs (the failure mode that motivated this guard).
class EngineProcesses {
 public:
  EngineProcesses() = default;
  ~EngineProcesses() {
    for (pid_t& pid : pids_) {
      if (pid > 0) kill_engined(pid);
      pid = -1;
    }
  }
  EngineProcesses(const EngineProcesses&) = delete;
  EngineProcesses& operator=(const EngineProcesses&) = delete;

  /// Spawns engine `index` of `dir`'s fleet and tracks it. Returns the pid
  /// (<= 0 on failure, untracked). `env` reaches the child only (see
  /// spawn_engined) — e.g. a PELICAN_FAULT spec for chaos tests.
  pid_t spawn(const TempDir& dir, std::size_t index,
              const std::vector<std::pair<std::string, std::string>>& env =
                  {}) {
    const pid_t pid = spawn_engined(dir, index, env);
    if (pid > 0) pids_.push_back(pid);
    return pid;
  }

  [[nodiscard]] std::size_t size() const { return pids_.size(); }

  /// SIGKILL + reap of engine `i` now (crash-injection paths).
  void kill(std::size_t i) {
    kill_engined(pids_.at(i));
    pids_[i] = -1;
  }

  /// Reaps engine `i`, expected to exit cleanly (after a drain). Returns
  /// its exit code, -1 on abnormal exit. The guard stops tracking it.
  int reap(std::size_t i) {
    const pid_t pid = pids_.at(i);
    pids_[i] = -1;
    return reap_engined(pid);
  }

 private:
  std::vector<pid_t> pids_;
};

/// Reader threads looping batch-1 router.serve() over `requests` until
/// stop(), each answer checked against `expected`. A membership change
/// under this load must never produce a read that is not ok and not
/// rejected (the owner lacked the user), nor an ok answer that differs
/// from the reference.
class ReadLoad {
 public:
  ReadLoad(router::Router& router,
           std::vector<serve::PredictRequest> requests,
           std::vector<std::vector<std::uint16_t>> expected,
           std::size_t threads = 2)
      : requests_(std::move(requests)), expected_(std::move(expected)) {
    for (std::size_t t = 0; t < threads; ++t) {
      threads_.emplace_back([this, &router, t] { read(router, t); });
    }
  }
  ~ReadLoad() { stop(); }
  ReadLoad(const ReadLoad&) = delete;
  ReadLoad& operator=(const ReadLoad&) = delete;

  void stop() {
    stop_.store(true);
    for (auto& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
  }

  /// Waits until `more` reads beyond those done so far have completed;
  /// false after 20 s.
  bool await_reads(std::uint64_t more) const {
    const std::uint64_t target = reads_.load() + more;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (reads_.load() < target) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
  }

  [[nodiscard]] std::uint64_t reads() const { return reads_.load(); }
  [[nodiscard]] std::uint64_t failed() const { return failed_.load(); }
  [[nodiscard]] std::uint64_t rejected() const { return rejected_.load(); }
  [[nodiscard]] std::uint64_t wrong() const { return wrong_.load(); }

 private:
  void read(router::Router& router, std::size_t offset) {
    for (std::size_t i = offset % requests_.size(); !stop_.load();
         i = (i + 1) % requests_.size()) {
      const auto responses = router.serve(
          std::span<const serve::PredictRequest>(&requests_[i], 1));
      if (!responses[0].ok) {
        (responses[0].rejected ? rejected_ : failed_).fetch_add(1);
      } else if (responses[0].locations != expected_[i]) {
        wrong_.fetch_add(1);
      }
      reads_.fetch_add(1);
    }
  }

  const std::vector<serve::PredictRequest> requests_;
  const std::vector<std::vector<std::uint16_t>> expected_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> reads_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> wrong_{0};
  std::vector<std::thread> threads_;
};

}  // namespace pelican::router_testing
