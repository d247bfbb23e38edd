#include "router/wire.hpp"

#include "common/serialize.hpp"

namespace pelican::router {

namespace {

/// A window's bytes on the wire: five per step, then the label and start.
constexpr std::size_t kWindowBytes = mobility::kWindowSteps * 5 + 2 + 8;

void write_window(BufferWriter& writer, const mobility::Window& window) {
  for (const auto& step : window.steps) {
    writer.write_u8(step.entry_bin);
    writer.write_u8(step.duration_bin);
    writer.write_u8(step.day_of_week);
    writer.write_u16(step.location);
  }
  writer.write_u16(window.next_location);
  writer.write_i64(window.start_minute);
}

mobility::Window read_window(BufferReader& reader) {
  mobility::Window window;
  for (auto& step : window.steps) {
    step.entry_bin = reader.read_u8();
    step.duration_bin = reader.read_u8();
    step.day_of_week = reader.read_u8();
    step.location = reader.read_u16();
  }
  window.next_location = reader.read_u16();
  window.start_minute = reader.read_i64();
  return window;
}

/// A writer holding `verb`'s byte, sized for `bytes` in all when the
/// frame's size is known ahead.
BufferWriter begin_frame(Verb verb, std::size_t bytes = 1) {
  BufferWriter writer;
  writer.reserve(bytes);
  writer.write_u8(static_cast<std::uint8_t>(verb));
  return writer;
}

/// Validates the verb byte and returns a reader positioned at the body.
BufferReader begin_decode(std::span<const std::uint8_t> frame,
                          Verb expected) {
  const Verb verb = frame_verb(frame);
  if (verb != expected) {
    throw SerializeError(std::string("wire: expected ") + to_string(expected) +
                         " frame, got " + to_string(verb));
  }
  BufferReader reader(frame);
  (void)reader.read_u8();  // consume the verb byte
  return reader;
}

/// A decoded frame must consume its body exactly: trailing bytes mean the
/// peers disagree about the message layout, which must never pass silently.
void finish_decode(const BufferReader& reader, Verb verb) {
  if (reader.remaining() != 0) {
    throw SerializeError(std::string("wire: ") + to_string(verb) + " frame has " +
                         std::to_string(reader.remaining()) +
                         " trailing bytes");
  }
}

/// Versioned frames fail loudly on a layout mismatch (see wire.hpp).
void check_frame_version(BufferReader& reader, Verb verb,
                         std::uint8_t expected) {
  const std::uint8_t got = reader.read_u8();
  if (got != expected) {
    throw SerializeError(std::string("wire: ") + to_string(verb) +
                         " frame version " + std::to_string(got) +
                         ", this build speaks " + std::to_string(expected));
  }
}

void write_histogram_state(BufferWriter& writer,
                           const obs::HistogramState& state) {
  writer.write_u64(state.count);
  writer.write_u64(state.invalid);
  writer.write_f64(state.sum);
  writer.write_f64(state.max);
  writer.write_u64_span(state.buckets);
}

obs::HistogramState read_histogram_state(BufferReader& reader) {
  obs::HistogramState state;
  state.count = reader.read_u64();
  state.invalid = reader.read_u64();
  state.sum = reader.read_f64();
  state.max = reader.read_f64();
  state.buckets = reader.read_u64_vector();
  if (!state.buckets.empty() &&
      state.buckets.size() != obs::Histogram::kNumBuckets) {
    throw SerializeError("wire: histogram bucket count " +
                         std::to_string(state.buckets.size()) +
                         " does not match this build's layout");
  }
  return state;
}

void write_registry_state(BufferWriter& writer,
                          const obs::RegistryState& state) {
  writer.write_u64(state.counters.size());
  for (const auto& [name, value] : state.counters) {
    writer.write_string(name);
    writer.write_u64(value);
  }
  writer.write_u64(state.histograms.size());
  for (const auto& [name, hist] : state.histograms) {
    writer.write_string(name);
    write_histogram_state(writer, hist);
  }
}

obs::RegistryState read_registry_state(BufferReader& reader) {
  obs::RegistryState state;
  const std::uint64_t counters = reader.read_u64();
  if (counters > reader.remaining()) {
    throw SerializeError("wire: registry counter count exceeds frame size");
  }
  state.counters.reserve(static_cast<std::size_t>(counters));
  for (std::uint64_t i = 0; i < counters; ++i) {
    std::string name = reader.read_string();
    const std::uint64_t value = reader.read_u64();
    state.counters.emplace_back(std::move(name), value);
  }
  const std::uint64_t histograms = reader.read_u64();
  if (histograms > reader.remaining()) {
    throw SerializeError("wire: registry histogram count exceeds frame size");
  }
  state.histograms.reserve(static_cast<std::size_t>(histograms));
  for (std::uint64_t i = 0; i < histograms; ++i) {
    std::string name = reader.read_string();
    obs::HistogramState hist = read_histogram_state(reader);
    state.histograms.emplace_back(std::move(name), std::move(hist));
  }
  return state;
}

void write_event(BufferWriter& writer, const obs::Event& event) {
  writer.write_u64(event.seq);
  writer.write_u64(event.unix_ms);
  writer.write_u8(static_cast<std::uint8_t>(event.type));
  writer.write_u64(event.trace_id);
  writer.write_string(event.subject);
  writer.write_string(event.detail);
  writer.write_string(event.source);
}

obs::Event read_event(BufferReader& reader) {
  obs::Event event;
  event.seq = reader.read_u64();
  event.unix_ms = reader.read_u64();
  const std::uint8_t type = reader.read_u8();
  if (type >= obs::kEventTypeCount) {
    throw SerializeError("wire: event type " + std::to_string(type) +
                         " outside this build's taxonomy");
  }
  event.type = static_cast<obs::EventType>(type);
  event.trace_id = reader.read_u64();
  event.subject = reader.read_string();
  event.detail = reader.read_string();
  event.source = reader.read_string();
  return event;
}

void write_trace_record(BufferWriter& writer, const obs::TraceRecord& rec) {
  writer.write_u64(rec.trace_id);
  writer.write_f64(rec.total_ms);
  writer.write_string(rec.source);
  writer.write_u64(rec.spans.size());
  for (const obs::Span& span : rec.spans) {
    writer.write_u8(static_cast<std::uint8_t>(span.stage));
    writer.write_u64(span.start_ns);
    writer.write_u64(span.duration_ns);
  }
}

obs::TraceRecord read_trace_record(BufferReader& reader) {
  obs::TraceRecord rec;
  rec.trace_id = reader.read_u64();
  rec.total_ms = reader.read_f64();
  rec.source = reader.read_string();
  const std::uint64_t spans = reader.read_u64();
  if (spans > reader.remaining()) {
    throw SerializeError("wire: trace span count exceeds frame size");
  }
  rec.spans.reserve(static_cast<std::size_t>(spans));
  for (std::uint64_t i = 0; i < spans; ++i) {
    obs::Span span;
    const std::uint8_t stage = reader.read_u8();
    if (stage >= obs::kStageCount) {
      throw SerializeError("wire: bad trace stage byte " +
                           std::to_string(stage));
    }
    span.stage = static_cast<obs::Stage>(stage);
    span.start_ns = reader.read_u64();
    span.duration_ns = reader.read_u64();
    rec.spans.push_back(span);
  }
  return rec;
}

}  // namespace

Verb frame_verb(std::span<const std::uint8_t> frame) {
  if (frame.empty()) throw SerializeError("wire: empty frame");
  const std::uint8_t byte = frame.front();
  switch (static_cast<Verb>(byte)) {
    case Verb::kPredictBatch:
    case Verb::kDeploy:
    case Verb::kPublish:
    case Verb::kHealth:
    case Verb::kDrain:
    case Verb::kMetrics:
    case Verb::kPredictReplies:
    case Verb::kAck:
    case Verb::kHealthReply:
    case Verb::kMetricsReply:
      return static_cast<Verb>(byte);
  }
  throw SerializeError("wire: unknown verb byte " + std::to_string(byte));
}

std::vector<std::uint8_t> encode_predict_batch(
    std::span<const serve::PredictRequest> requests) {
  // Verb, version and count, then a fixed-size record per request.
  BufferWriter writer = begin_frame(
      Verb::kPredictBatch,
      1 + 1 + 8 + requests.size() * (4 + 8 + 8 + 8 + kWindowBytes));
  writer.write_u8(kPredictFrameVersion);
  writer.write_u64(requests.size());
  for (const auto& request : requests) {
    writer.write_u32(request.user_id);
    writer.write_u64(request.k);
    writer.write_u64(request.trace_id);
    writer.write_f64(request.deadline_ms);
    write_window(writer, request.window);
  }
  return writer.take();
}

std::vector<serve::PredictRequest> decode_predict_batch(
    std::span<const std::uint8_t> frame) {
  BufferReader reader = begin_decode(frame, Verb::kPredictBatch);
  check_frame_version(reader, Verb::kPredictBatch, kPredictFrameVersion);
  const std::uint64_t count = reader.read_u64();
  if (count > reader.remaining()) {  // every item is > 1 byte
    throw SerializeError("wire: predict batch count exceeds frame size");
  }
  std::vector<serve::PredictRequest> requests;
  requests.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    serve::PredictRequest request;
    request.user_id = reader.read_u32();
    request.k = static_cast<std::size_t>(reader.read_u64());
    request.trace_id = reader.read_u64();
    request.deadline_ms = reader.read_f64();
    request.window = read_window(reader);
    requests.push_back(request);
  }
  finish_decode(reader, Verb::kPredictBatch);
  return requests;
}

std::vector<std::uint8_t> encode_predict_replies(
    std::span<const serve::PredictResponse> responses) {
  BufferWriter writer = begin_frame(Verb::kPredictReplies);
  writer.write_u64(responses.size());
  for (const auto& response : responses) {
    writer.write_u32(response.user_id);
    writer.write_u8(response.ok ? 1 : 0);
    writer.write_u8(response.rejected ? 1 : 0);
    writer.write_u32(response.model_version);
    writer.write_u16_span(response.locations);
    writer.write_f64(response.latency_ms);
  }
  return writer.take();
}

std::vector<serve::PredictResponse> decode_predict_replies(
    std::span<const std::uint8_t> frame) {
  BufferReader reader = begin_decode(frame, Verb::kPredictReplies);
  const std::uint64_t count = reader.read_u64();
  if (count > reader.remaining()) {  // every item is > 1 byte
    throw SerializeError("wire: predict reply count exceeds frame size");
  }
  std::vector<serve::PredictResponse> responses;
  responses.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    serve::PredictResponse response;
    response.user_id = reader.read_u32();
    response.ok = reader.read_u8() != 0;
    response.rejected = reader.read_u8() != 0;
    response.model_version = reader.read_u32();
    response.locations = reader.read_u16_vector();
    response.latency_ms = reader.read_f64();
    responses.push_back(std::move(response));
  }
  finish_decode(reader, Verb::kPredictReplies);
  return responses;
}

std::vector<std::uint8_t> encode_deploy(const DeployCommand& command) {
  BufferWriter writer = begin_frame(Verb::kDeploy);
  writer.write_u32(command.user_id);
  writer.write_u32(command.version);
  writer.write_f64(command.temperature);
  writer.write_u8(static_cast<std::uint8_t>(command.spec.level));
  writer.write_u64(command.spec.num_locations);
  return writer.take();
}

DeployCommand decode_deploy(std::span<const std::uint8_t> frame) {
  BufferReader reader = begin_decode(frame, Verb::kDeploy);
  DeployCommand command;
  command.user_id = reader.read_u32();
  command.version = reader.read_u32();
  command.temperature = reader.read_f64();
  const std::uint8_t level = reader.read_u8();
  if (level > static_cast<std::uint8_t>(mobility::SpatialLevel::kAp)) {
    throw SerializeError("wire: bad spatial level " + std::to_string(level));
  }
  command.spec.level = static_cast<mobility::SpatialLevel>(level);
  command.spec.num_locations =
      static_cast<std::size_t>(reader.read_u64());
  finish_decode(reader, Verb::kDeploy);
  return command;
}

std::vector<std::uint8_t> encode_publish(const PublishCommand& command) {
  BufferWriter writer = begin_frame(Verb::kPublish);
  writer.write_u32(command.user_id);
  writer.write_u32(command.version);
  return writer.take();
}

PublishCommand decode_publish(std::span<const std::uint8_t> frame) {
  BufferReader reader = begin_decode(frame, Verb::kPublish);
  PublishCommand command;
  command.user_id = reader.read_u32();
  command.version = reader.read_u32();
  finish_decode(reader, Verb::kPublish);
  return command;
}

std::vector<std::uint8_t> encode_health() {
  return begin_frame(Verb::kHealth).take();
}

std::vector<std::uint8_t> encode_metrics() {
  return begin_frame(Verb::kMetrics).take();
}

std::vector<std::uint8_t> encode_drain() {
  return begin_frame(Verb::kDrain).take();
}

std::vector<std::uint8_t> encode_ack(const Ack& ack) {
  BufferWriter writer = begin_frame(Verb::kAck);
  writer.write_u8(ack.ok ? 1 : 0);
  writer.write_string(ack.message);
  return writer.take();
}

Ack decode_ack(std::span<const std::uint8_t> frame) {
  BufferReader reader = begin_decode(frame, Verb::kAck);
  Ack ack;
  ack.ok = reader.read_u8() != 0;
  ack.message = reader.read_string();
  finish_decode(reader, Verb::kAck);
  return ack;
}

std::vector<std::uint8_t> encode_health_reply(const HealthReply& reply) {
  BufferWriter writer = begin_frame(Verb::kHealthReply);
  writer.write_u64(reply.deployments);
  writer.write_u8(reply.draining ? 1 : 0);
  return writer.take();
}

HealthReply decode_health_reply(std::span<const std::uint8_t> frame) {
  BufferReader reader = begin_decode(frame, Verb::kHealthReply);
  HealthReply reply;
  reply.deployments = reader.read_u64();
  reply.draining = reader.read_u8() != 0;
  finish_decode(reader, Verb::kHealthReply);
  return reply;
}

std::vector<std::uint8_t> encode_metrics_reply(
    const EngineMetricsReport& report) {
  BufferWriter writer = begin_frame(Verb::kMetricsReply);
  writer.write_u8(kMetricsFrameVersion);
  write_registry_state(writer, report.registry);
  writer.write_u64(report.traces.size());
  for (const obs::TraceRecord& rec : report.traces) {
    write_trace_record(writer, rec);
  }
  writer.write_u64(report.events.size());
  for (const obs::Event& event : report.events) {
    write_event(writer, event);
  }
  return writer.take();
}

EngineMetricsReport decode_metrics_reply(
    std::span<const std::uint8_t> frame) {
  BufferReader reader = begin_decode(frame, Verb::kMetricsReply);
  check_frame_version(reader, Verb::kMetricsReply, kMetricsFrameVersion);
  EngineMetricsReport report;
  report.registry = read_registry_state(reader);
  report.stats = serve::ServerStats(report.registry).state();
  const std::uint64_t traces = reader.read_u64();
  if (traces > reader.remaining()) {
    throw SerializeError("wire: trace count exceeds frame size");
  }
  report.traces.reserve(static_cast<std::size_t>(traces));
  for (std::uint64_t i = 0; i < traces; ++i) {
    report.traces.push_back(read_trace_record(reader));
  }
  const std::uint64_t events = reader.read_u64();
  if (events > reader.remaining()) {
    throw SerializeError("wire: event count exceeds frame size");
  }
  report.events.reserve(static_cast<std::size_t>(events));
  for (std::uint64_t i = 0; i < events; ++i) {
    report.events.push_back(read_event(reader));
  }
  finish_decode(reader, Verb::kMetricsReply);
  return report;
}

}  // namespace pelican::router
