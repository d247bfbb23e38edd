// Wire protocol of the router tier: compact length-prefixed binary frames
// between the Router front door and EngineWorker processes.
//
// A frame is [verb: u8][body], built with common/serialize's BufferWriter
// and decoded with BufferReader; the transport (router/socket.hpp) adds a
// u32 length prefix on the stream. Every request verb has exactly one reply
// verb, and every connection is strictly request/reply — no pipelining, no
// out-of-order replies — so a connection's state is trivial and a pool of
// them gives concurrency.
//
// Verbs:
//   kPredictBatch → kPredictReplies   the data plane: a coalesced batch of
//                                     PredictRequests; reply i answers
//                                     request i (bit-identical to a direct
//                                     ServingEngine call — the protocol
//                                     carries discretized features and
//                                     location ids, never floats, so there
//                                     is nothing to round)
//   kDeploy       → kAck              admin: read (user, version) from the
//                                     engine's shared model store and
//                                     register the deployment
//   kPublish      → kAck              admin: stall-free model update via
//                                     DeploymentRegistry::publish
//   kHealth       → kHealthReply      liveness + deployment count
//   kMetrics      → kMetricsReply     full observability snapshot: the
//                                     obs::Registry (serving counters +
//                                     stage histograms), the slow-request
//                                     trace journal, and the event journal
//   kDrain        → kAck              graceful shutdown: the engine stops
//                                     accepting and exits its run loop.
//                                     CONTRACT: drain is idempotent, the
//                                     ack must arrive within the caller's
//                                     drain deadline (the Router bounds the
//                                     exchange with RouterConfig::
//                                     drain_timeout_ms), and a wedged
//                                     engine that cannot ack in time is
//                                     ABANDONED, not waited on — the caller
//                                     proceeds with teardown and the
//                                     process supervisor owns the rest
//
// Versioning: the predict-batch and metrics-reply frames carry an explicit
// version byte right after the verb (kPredictFrameVersion /
// kMetricsFrameVersion). Both sides of this protocol are built from one
// tree, so layout changes are legal — but they must be DELIBERATE: bumping
// the constant makes a stale peer fail with a clear SerializeError naming
// the mismatch instead of silently misparsing bytes. Version 2 of the
// predict frame added the per-request trace id; version 3 the per-request
// deadline budget (engines shed already-expired work at admission). Version
// 4 of the metrics reply dropped its separate serving-stats block: those
// counters live in the registry it already carries. Verb bytes 5 and 68
// belonged to the retired stats request/reply and stay unassigned, so a
// stale peer's stats frame is refused as an unknown verb.
//
// Malformed frames (bad verb, truncated body, trailing bytes) throw
// SerializeError; the engine answers with a kAck{ok=false} rather than
// dying, and the router treats transport-level failures as backend death.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mobility/dataset.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/scheduler.hpp"
#include "serve/stats.hpp"

namespace pelican::router {

enum class Verb : std::uint8_t {
  kPredictBatch = 1,
  kDeploy = 2,
  kPublish = 3,
  kHealth = 4,
  kDrain = 6,
  kMetrics = 7,
  // Replies live in a disjoint range so a misrouted frame can never be
  // mistaken for a request.
  kPredictReplies = 65,
  kAck = 66,
  kHealthReply = 67,
  kMetricsReply = 69,
};

/// Layout version of the kPredictBatch frame (v2: + per-request trace id;
/// v3: + per-request deadline budget in ms).
inline constexpr std::uint8_t kPredictFrameVersion = 3;
/// Layout version of kMetricsReply (v2: histogram latency state instead of
/// raw samples; v3: per-histogram invalid-observation count and the event
/// journal; v4: no serving-stats block, the registry carries those).
inline constexpr std::uint8_t kMetricsFrameVersion = 4;

[[nodiscard]] constexpr const char* to_string(Verb verb) noexcept {
  switch (verb) {
    case Verb::kPredictBatch: return "predict_batch";
    case Verb::kDeploy: return "deploy";
    case Verb::kPublish: return "publish";
    case Verb::kHealth: return "health";
    case Verb::kDrain: return "drain";
    case Verb::kMetrics: return "metrics";
    case Verb::kPredictReplies: return "predict_replies";
    case Verb::kAck: return "ack";
    case Verb::kHealthReply: return "health_reply";
    case Verb::kMetricsReply: return "metrics_reply";
  }
  return "?";
}

/// Instructs an engine to deploy `user_id` serving `version` from its
/// attached model store scope, wrapped with this encoding spec and privacy
/// temperature. The model itself never crosses the wire — engines pull it
/// from the shared FilesystemBackend store.
struct DeployCommand {
  std::uint32_t user_id = 0;
  std::uint32_t version = 0;
  double temperature = 1.0;
  mobility::EncodingSpec spec;
};

struct PublishCommand {
  std::uint32_t user_id = 0;
  std::uint32_t version = 0;
};

/// Generic admin reply. `message` is empty on success and names the failure
/// (e.g. the missing store key) otherwise.
struct Ack {
  bool ok = false;
  std::string message;
};

struct HealthReply {
  std::uint64_t deployments = 0;
  bool draining = false;
};

/// Full observability snapshot of one engine: the metrics registry (serving
/// counters + stage histograms), the worst-N trace journal, and the
/// engine's structured event journal (publish, deadline-shed bursts). What
/// kMetricsReply carries and what Router::fleet_metrics merges. `stats` is
/// not serialized: decode_metrics_reply derives it from `registry`.
struct EngineMetricsReport {
  serve::ServerStats::State stats;
  obs::RegistryState registry;
  std::vector<obs::TraceRecord> traces;
  std::vector<obs::Event> events;
};

/// First byte of a frame. Throws SerializeError on an empty frame or a
/// byte outside the Verb enumeration.
[[nodiscard]] Verb frame_verb(std::span<const std::uint8_t> frame);

// -- request encoders --------------------------------------------------------
[[nodiscard]] std::vector<std::uint8_t> encode_predict_batch(
    std::span<const serve::PredictRequest> requests);
[[nodiscard]] std::vector<std::uint8_t> encode_deploy(
    const DeployCommand& command);
[[nodiscard]] std::vector<std::uint8_t> encode_publish(
    const PublishCommand& command);
[[nodiscard]] std::vector<std::uint8_t> encode_health();
[[nodiscard]] std::vector<std::uint8_t> encode_metrics();
[[nodiscard]] std::vector<std::uint8_t> encode_drain();

// -- reply encoders ----------------------------------------------------------
[[nodiscard]] std::vector<std::uint8_t> encode_predict_replies(
    std::span<const serve::PredictResponse> responses);
[[nodiscard]] std::vector<std::uint8_t> encode_ack(const Ack& ack);
[[nodiscard]] std::vector<std::uint8_t> encode_health_reply(
    const HealthReply& reply);
[[nodiscard]] std::vector<std::uint8_t> encode_metrics_reply(
    const EngineMetricsReport& report);

// -- decoders (each validates the verb byte and full-body consumption) -------
[[nodiscard]] std::vector<serve::PredictRequest> decode_predict_batch(
    std::span<const std::uint8_t> frame);
[[nodiscard]] DeployCommand decode_deploy(std::span<const std::uint8_t> frame);
[[nodiscard]] PublishCommand decode_publish(
    std::span<const std::uint8_t> frame);
[[nodiscard]] std::vector<serve::PredictResponse> decode_predict_replies(
    std::span<const std::uint8_t> frame);
[[nodiscard]] Ack decode_ack(std::span<const std::uint8_t> frame);
[[nodiscard]] HealthReply decode_health_reply(
    std::span<const std::uint8_t> frame);
[[nodiscard]] EngineMetricsReport decode_metrics_reply(
    std::span<const std::uint8_t> frame);

}  // namespace pelican::router
