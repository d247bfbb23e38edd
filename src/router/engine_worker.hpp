// EngineWorker: one serving-engine PROCESS of a routed fleet.
//
// Wraps the single-process serving engine (DeploymentRegistry +
// BatchScheduler) behind the wire protocol on a Unix/TCP listen socket, so
// N of these processes behind a Router scale the registry past one
// machine. Models never cross the wire: every worker mounts the same
// store::FilesystemBackend root, and deploy/publish commands carry only
// (user, version) keys — the worker pulls the artifact from the shared
// store, exactly as the single-process engine's publish() does. That
// preserves PR 3's stall-free update contract end-to-end: a routed publish
// lands on the owning process as a local DeploymentRegistry::publish,
// which builds the replacement off-lock and installs it by pointer swap.
//
// Concurrency model: the worker serves on a ConnectionServer
// (router/socket), which gives each accepted connection its own thread
// (connections are the Router's pooled, strictly request/reply channels —
// a handful per fleet, not thousands). The worker's body is a framing
// loop: it decodes a frame, executes it against the engine, and replies;
// predict batches run through BatchScheduler::serve, which fans the
// coalesced per-user chunks across ThreadPool::global(). So the parallelism
// that matters stays in the engine.
//
// In-process use: tests (and the serving_cluster example) run EngineWorker
// instances inside one process to exercise the full wire path without
// fork/exec; tools/pelican_engined.cpp is the production entry that runs
// exactly one worker per process.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "router/socket.hpp"
#include "serve/registry.hpp"
#include "serve/scheduler.hpp"
#include "store/model_store.hpp"

namespace pelican::router {

struct EngineConfig {
  /// Listen address ("unix:/path" or "tcp:host:port").
  std::string listen;
  /// Root of the fleet-shared FilesystemBackend model store.
  std::filesystem::path store_root;
  /// Store scope deploy/publish keys resolve against.
  std::string scope = "personal";
  std::size_t registry_shards = 16;
  serve::SchedulerConfig scheduler = {};
};

class EngineWorker {
 public:
  /// Binds the listen socket (throws WireError/invalid_argument on a bad
  /// or busy address) but does not accept yet — call start().
  explicit EngineWorker(EngineConfig config);

  /// Stops and joins everything (as stop()).
  ~EngineWorker();

  EngineWorker(const EngineWorker&) = delete;
  EngineWorker& operator=(const EngineWorker&) = delete;

  /// Starts accepting connections. Idempotent.
  void start();

  /// Blocks until the worker is draining (a kDrain frame arrived or stop()
  /// was called), then tears everything down. The engined main is
  /// `worker.start(); worker.wait();`.
  void wait();

  /// Stops accepting, wakes every connection handler with a socket
  /// shutdown, and joins all threads. Idempotent, callable from any thread
  /// except a connection handler.
  void stop();

  [[nodiscard]] const Address& address() const noexcept {
    return server_.address();
  }
  [[nodiscard]] bool draining() const noexcept {
    return draining_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] serve::DeploymentRegistry& registry() noexcept {
    return registry_;
  }
  [[nodiscard]] serve::BatchScheduler& scheduler() noexcept {
    return *scheduler_;
  }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }

 private:
  /// The connection body: reads frames and answers each until the peer
  /// leaves, a fault drops the request, or a drain is acknowledged.
  void serve_connection(Socket& socket);

  /// Executes one decoded request frame, returning the reply frame. Never
  /// throws: engine-level failures become kAck{ok=false, message}.
  [[nodiscard]] std::vector<std::uint8_t> handle_frame(
      std::span<const std::uint8_t> frame);

  EngineConfig config_;
  std::shared_ptr<store::ModelStore> store_;
  serve::DeploymentRegistry registry_;
  std::unique_ptr<serve::BatchScheduler> scheduler_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};

  /// wait()/stop() handshake only — guards no member (the predicate reads
  /// the atomics above); it exists to close the lost-wakeup window.
  Mutex wait_mutex_;
  std::condition_variable wait_cv_;

  /// Last: it is destroyed (stopped and its bodies joined) before any
  /// state a body reads.
  ConnectionServer server_;
};

}  // namespace pelican::router
