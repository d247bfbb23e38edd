// Wire protocol: every message round-trips bit-exactly, and malformed
// frames (wrong verb, trailing bytes, truncation, hostile length prefixes)
// throw SerializeError instead of decoding garbage.
#include "router/wire.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "serve/serve_support.hpp"

namespace pelican::router {
namespace {

using pelican::serve_testing::random_window;

TEST(WireTest, PredictBatchRoundTrips) {
  Rng rng(11);
  std::vector<serve::PredictRequest> requests;
  for (std::uint32_t i = 0; i < 5; ++i) {
    requests.push_back({1000 + i, random_window(rng), 3 + i});
    requests.back().trace_id = i == 0 ? 0 : 0xABCD000000000000ULL + i;
  }
  const auto frame = encode_predict_batch(requests);
  EXPECT_EQ(frame_verb(frame), Verb::kPredictBatch);

  const auto decoded = decode_predict_batch(frame);
  ASSERT_EQ(decoded.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(decoded[i].user_id, requests[i].user_id);
    EXPECT_EQ(decoded[i].k, requests[i].k);
    EXPECT_EQ(decoded[i].trace_id, requests[i].trace_id)
        << "the trace id must ride the frame so one trace spans processes";
    EXPECT_EQ(decoded[i].window, requests[i].window)
        << "windows carry discretized features; the wire must not touch them";
  }
}

TEST(WireTest, PredictFrameVersionMismatchThrows) {
  // Frame versioning is deliberate: a peer speaking an older predict or
  // metrics-reply layout must fail loudly, not decode garbage.
  Rng rng(12);
  auto frame = encode_predict_batch(
      std::vector<serve::PredictRequest>{{1, random_window(rng), 3}});
  frame[1] = kPredictFrameVersion - 1;  // version byte follows the verb
  EXPECT_THROW((void)decode_predict_batch(frame), SerializeError);

  auto metrics_frame = encode_metrics_reply({});
  metrics_frame[1] = kMetricsFrameVersion - 1;
  EXPECT_THROW((void)decode_metrics_reply(metrics_frame), SerializeError);
}

TEST(WireTest, PredictRepliesRoundTrip) {
  std::vector<serve::PredictResponse> responses(3);
  responses[0] = {7, true, false, 2, {3, 1, 4}, 0.125};
  responses[1] = {8, false, true, 0, {}, 99.5};
  responses[2] = {9, false, false, 1, {}, 0.0};

  const auto decoded = decode_predict_replies(encode_predict_replies(responses));
  ASSERT_EQ(decoded.size(), responses.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(decoded[i].user_id, responses[i].user_id);
    EXPECT_EQ(decoded[i].ok, responses[i].ok);
    EXPECT_EQ(decoded[i].rejected, responses[i].rejected);
    EXPECT_EQ(decoded[i].model_version, responses[i].model_version);
    EXPECT_EQ(decoded[i].locations, responses[i].locations);
    EXPECT_DOUBLE_EQ(decoded[i].latency_ms, responses[i].latency_ms);
  }
}

TEST(WireTest, AdminMessagesRoundTrip) {
  const DeployCommand deploy{42, 3, 5.0,
                             {mobility::SpatialLevel::kAp, 150}};
  const auto d = decode_deploy(encode_deploy(deploy));
  EXPECT_EQ(d.user_id, deploy.user_id);
  EXPECT_EQ(d.version, deploy.version);
  EXPECT_DOUBLE_EQ(d.temperature, deploy.temperature);
  EXPECT_EQ(d.spec, deploy.spec);

  const auto p = decode_publish(encode_publish({7, 9}));
  EXPECT_EQ(p.user_id, 7u);
  EXPECT_EQ(p.version, 9u);

  const auto ack = decode_ack(encode_ack({false, "no such version"}));
  EXPECT_FALSE(ack.ok);
  EXPECT_EQ(ack.message, "no such version");

  const auto health = decode_health_reply(encode_health_reply({12, true}));
  EXPECT_EQ(health.deployments, 12u);
  EXPECT_TRUE(health.draining);

  EXPECT_EQ(frame_verb(encode_health()), Verb::kHealth);
  EXPECT_EQ(frame_verb(encode_drain()), Verb::kDrain);
}

TEST(WireTest, MetricsReplyRoundTrips) {
  EngineMetricsReport report;
  obs::Registry registry;
  registry.counter(serve::kShedMetric).add(17);
  registry.histogram(serve::kLatencyMetric).observe(1.5);
  registry.histogram(serve::kBatchRowsMetric).observe(8);
  auto& hist = registry.histogram("stage_forward_ms");
  hist.observe(0.25);
  hist.observe(3.5);
  hist.observe(1e-9);  // underflow bucket
  report.registry = registry.state();

  obs::TraceRecord rec;
  rec.trace_id = 0xDEADBEEFULL;
  rec.total_ms = 7.5;
  rec.source = "unix:/tmp/e0.sock";
  rec.spans.push_back({obs::Stage::kForward, 100, 250});
  rec.spans.push_back({obs::Stage::kQueueWait, 10, 90});
  report.traces.push_back(rec);

  const auto decoded = decode_metrics_reply(encode_metrics_reply(report));
  EXPECT_EQ(decoded.registry, report.registry)
      << "histogram buckets cross the wire bit-exactly so fleet merges "
         "equal bucket-wise sums";
  // The serving stats are not a block of their own: the decoder derives
  // them from the registry that carries them.
  EXPECT_EQ(decoded.stats, serve::ServerStats(decoded.registry).state());
  EXPECT_EQ(decoded.stats.requests, 1u);
  EXPECT_EQ(decoded.stats.shed, 17u);
  EXPECT_EQ(decoded.stats.batch_rows, 8u);
  ASSERT_EQ(decoded.traces.size(), 1u);
  EXPECT_EQ(decoded.traces[0].trace_id, rec.trace_id);
  EXPECT_DOUBLE_EQ(decoded.traces[0].total_ms, rec.total_ms);
  EXPECT_EQ(decoded.traces[0].source, rec.source);
  ASSERT_EQ(decoded.traces[0].spans.size(), 2u);
  EXPECT_EQ(decoded.traces[0].spans[0].stage, obs::Stage::kForward);
  EXPECT_EQ(decoded.traces[0].spans[0].start_ns, 100u);
  EXPECT_EQ(decoded.traces[0].spans[0].duration_ns, 250u);

  EXPECT_EQ(frame_verb(encode_metrics()), Verb::kMetrics);
}

TEST(WireTest, RejectsMalformedFrames) {
  EXPECT_THROW((void)frame_verb({}), SerializeError);

  const std::vector<std::uint8_t> bad_verb = {0xEE};
  EXPECT_THROW((void)frame_verb(bad_verb), SerializeError);

  // Wrong verb for the decoder.
  EXPECT_THROW((void)decode_ack(encode_health()), SerializeError);
  EXPECT_THROW((void)decode_predict_batch(encode_drain()), SerializeError);

  // Trailing bytes: peers disagree about the layout.
  auto frame = encode_publish({1, 2});
  frame.push_back(0);
  EXPECT_THROW((void)decode_publish(frame), SerializeError);

  // Truncated body.
  auto short_frame = encode_publish({1, 2});
  short_frame.pop_back();
  EXPECT_THROW((void)decode_publish(short_frame), SerializeError);

  // Hostile batch count (larger than the frame itself).
  BufferWriter writer;
  writer.write_u8(static_cast<std::uint8_t>(Verb::kPredictBatch));
  writer.write_u8(kPredictFrameVersion);
  writer.write_u64(std::uint64_t{1} << 40);
  EXPECT_THROW((void)decode_predict_batch(writer.buffer()), SerializeError);

  // Out-of-domain spatial level in a deploy.
  auto deploy = encode_deploy({1, 1, 1.0, {mobility::SpatialLevel::kAp, 9}});
  deploy[deploy.size() - 9] = 7;  // the level byte sits before num_locations
  EXPECT_THROW((void)decode_deploy(deploy), SerializeError);
}

}  // namespace
}  // namespace pelican::router
