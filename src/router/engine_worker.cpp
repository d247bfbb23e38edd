#include "router/engine_worker.hpp"

#include <exception>
#include <span>
#include <utility>

#include "common/fault.hpp"
#include "core/privacy_layer.hpp"
#include "core/service.hpp"
#include "router/wire.hpp"

namespace pelican::router {

EngineWorker::EngineWorker(EngineConfig config)
    : config_(std::move(config)),
      store_(std::make_shared<store::ModelStore>(
          std::make_unique<store::FilesystemBackend>(config_.store_root))),
      registry_(config_.registry_shards),
      scheduler_(std::make_unique<serve::BatchScheduler>(registry_,
                                                         config_.scheduler)),
      server_(parse_address(config_.listen),
              [this](Socket& socket) { serve_connection(socket); }) {
  registry_.attach_store(store_, config_.scope);
}

EngineWorker::~EngineWorker() { stop(); }

void EngineWorker::start() { server_.start(); }

void EngineWorker::wait() {
  {
    MutexLock lock(wait_mutex_);
    while (!draining_.load(std::memory_order_relaxed) &&
           !stopping_.load(std::memory_order_relaxed)) {
      lock.wait(wait_cv_);
    }
  }
  stop();
}

void EngineWorker::stop() {
  stopping_.store(true, std::memory_order_relaxed);
  {
    // Close the lost-wakeup window: a wait()er between its predicate check
    // and blocking still holds wait_mutex_, so acquiring it here delays
    // the notify until that waiter is actually parked.
    const MutexLock lock(wait_mutex_);
  }
  wait_cv_.notify_all();
  server_.stop();
}

void EngineWorker::serve_connection(Socket& socket) {
  // A WireError (the peer closed, the Router recycled the connection, or
  // stop() severed it) ends the connection in the server.
  for (;;) {
    const std::vector<std::uint8_t> reply = handle_frame(socket.recv_frame());
    if (reply.empty()) {
      return;  // fault injection dropped the request: sever, never answer
    }
    socket.send_frame(reply);
    if (draining()) {
      {
        // Pair with wait()'s predicate check (see stop() on lost wakeups).
        const MutexLock lock(wait_mutex_);
      }
      wait_cv_.notify_all();
      return;  // drain acknowledged; let wait() tear the worker down
    }
  }
}

std::vector<std::uint8_t> EngineWorker::handle_frame(
    std::span<const std::uint8_t> frame) {
  try {
    // Fault-injection hook: lets chaos tests stall or drop THIS engine's
    // handling of a specific verb ("engine.handle.predict_batch", peer
    // matched against our own listen address) while the process — and its
    // accept loop — stays alive. Distinct from killing the process: the
    // router must detect this engine as hung, not dead.
    {
      auto& injector = fault::Injector::global();
      if (injector.active()) {
        const std::string site =
            std::string("engine.handle.") + to_string(frame_verb(frame));
        const fault::Decision decision =
            injector.decide(site, config_.listen);
        if (decision.action == fault::Action::kDrop) {
          return {};  // serve_connection severs the connection on empty
        }
        injector.sleep_for(decision);
      }
    }
    switch (frame_verb(frame)) {
      case Verb::kPredictBatch: {
        const auto requests = decode_predict_batch(frame);
        const auto responses = scheduler_->serve(requests);
        return encode_predict_replies(responses);
      }
      case Verb::kDeploy: {
        const DeployCommand command = decode_deploy(frame);
        // Pull the artifact from the fleet-shared store; the wire carries
        // only the key. get() verifies the checkpoint checksum, so a torn
        // or corrupt artifact is an Ack failure, never a bad deployment.
        auto model = store_->get(
            {config_.scope, command.user_id, command.version});
        (void)registry_.deploy(
            command.user_id,
            core::DeployedModel(std::move(model), command.spec,
                                core::PrivacyLayer(command.temperature),
                                core::DeploymentSite::kInCloud,
                                command.version));
        return encode_ack({true, ""});
      }
      case Verb::kPublish: {
        const PublishCommand command = decode_publish(frame);
        registry_.publish(command.user_id, command.version);
        scheduler_->events().emit(
            obs::EventType::kPublish,
            "user " + std::to_string(command.user_id),
            "v" + std::to_string(command.version) + " installed");
        return encode_ack({true, ""});
      }
      case Verb::kHealth: {
        return encode_health_reply({registry_.size(), draining()});
      }
      case Verb::kMetrics: {
        EngineMetricsReport report;
        report.registry = scheduler_->metrics().state();
        report.traces = scheduler_->traces().journal();
        report.events = scheduler_->events().snapshot();
        return encode_metrics_reply(report);
      }
      case Verb::kDrain: {
        draining_.store(true, std::memory_order_relaxed);
        return encode_ack({true, ""});
      }
      default:
        return encode_ack({false, "engine received a reply verb"});
    }
  } catch (const std::exception& error) {
    // Engine-level failure (unknown store key, corrupt checkpoint, bad
    // frame): answer it rather than tearing down the connection — the
    // router must be able to distinguish "that deploy failed" from "that
    // engine died".
    return encode_ack({false, error.what()});
  }
}

}  // namespace pelican::router
