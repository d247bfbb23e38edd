// BatchScheduler tracing: sampled local traces, caller-stamped ids, the
// stage histograms behind pelican_statsz, and the instrumentation kill
// switch. The engine-side half of the PR 7 end-to-end tracing contract
// (the cross-process half lives in tests/router/fleet_process_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/rng.hpp"
#include "obs/trace.hpp"
#include "serve/registry.hpp"
#include "serve/scheduler.hpp"
#include "serve/serve_support.hpp"

namespace pelican::serve {
namespace {

using serve_testing::random_window;
using serve_testing::tiny_deployment;

std::vector<PredictRequest> make_requests(std::size_t n, Rng& rng) {
  std::vector<PredictRequest> requests;
  requests.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    requests.push_back({1, random_window(rng), 3});
  }
  return requests;
}

TEST(SchedulerTraceTest, StampedIdRecordsEngineStageSpans) {
  DeploymentRegistry registry;
  registry.deploy(1, tiny_deployment(3));
  BatchScheduler scheduler(registry, {.max_batch = 4});

  Rng rng(31);
  auto requests = make_requests(4, rng);
  const std::uint64_t id = obs::new_trace_id();
  for (auto& request : requests) request.trace_id = id;

  const auto responses = scheduler.serve(requests);
  for (const auto& response : responses) ASSERT_TRUE(response.ok);

  const auto journal = scheduler.traces().journal();
  ASSERT_FALSE(journal.empty());
  const auto it = std::find_if(
      journal.begin(), journal.end(),
      [&](const obs::TraceRecord& rec) { return rec.trace_id == id; });
  ASSERT_NE(it, journal.end()) << "the caller-stamped id must be preserved";
  EXPECT_GE(it->spans.size(), 6u)
      << "admission, queue wait, batch assembly, encode, forward, rank";
  for (const obs::Stage stage :
       {obs::Stage::kQueueWait, obs::Stage::kBatchAssembly,
        obs::Stage::kEncode, obs::Stage::kForward, obs::Stage::kRankTopK}) {
    EXPECT_TRUE(std::any_of(it->spans.begin(), it->spans.end(),
                            [&](const obs::Span& span) {
                              return span.stage == stage;
                            }))
        << "missing stage " << obs::to_string(stage);
  }
  EXPECT_GT(it->total_ms, 0.0);

  // The same traffic fed the stage histograms the kMetrics verb exports.
  const auto state = scheduler.metrics().state();
  const auto hist = std::find_if(
      state.histograms.begin(), state.histograms.end(), [](const auto& entry) {
        return entry.first == obs::stage_metric_name(obs::Stage::kForward);
      });
  ASSERT_NE(hist, state.histograms.end());
  EXPECT_GT(hist->second.count, 0u);
}

TEST(SchedulerTraceTest, SamplingTracesEveryNthLocalRequest) {
  DeploymentRegistry registry;
  registry.deploy(1, tiny_deployment(4));
  BatchScheduler scheduler(registry,
                           {.max_batch = 1, .trace_sample_every = 4});

  Rng rng(32);
  const auto responses = scheduler.serve(make_requests(16, rng));
  for (const auto& response : responses) ASSERT_TRUE(response.ok);

  // 16 untraced requests at 1-in-4 sampling: exactly 4 sampled traces.
  EXPECT_EQ(scheduler.traces().journal().size(), 4u);
}

TEST(SchedulerTraceTest, DisabledInstrumentationRecordsNoTraces) {
  DeploymentRegistry registry;
  registry.deploy(1, tiny_deployment(5));
  BatchScheduler scheduler(registry,
                           {.max_batch = 2, .trace_sample_every = 1});
  scheduler.set_instrumentation(false);
  EXPECT_FALSE(scheduler.instrumentation_enabled());

  Rng rng(33);
  auto requests = make_requests(8, rng);
  requests.front().trace_id = obs::new_trace_id();  // even a stamped id
  const auto responses = scheduler.serve(requests);
  for (const auto& response : responses) ASSERT_TRUE(response.ok);

  EXPECT_TRUE(scheduler.traces().journal().empty());
  const auto state = scheduler.metrics().state();
  for (const auto& [name, hist] : state.histograms) {
    if (name.starts_with("stage_")) {
      EXPECT_EQ(hist.count, 0u) << name << " observed while disabled";
    }
  }
  EXPECT_EQ(scheduler.stats().snapshot().requests_served, 8u)
      << "the serving counters are not gated by the switch";
}

TEST(SchedulerTraceTest, SubmitPathTracesQueueWait) {
  DeploymentRegistry registry;
  registry.deploy(1, tiny_deployment(6));
  BatchScheduler scheduler(
      registry, {.max_batch = 4,
                 .max_delay = std::chrono::microseconds(2000),
                 .trace_sample_every = 1});

  Rng rng(34);
  PredictRequest request{1, random_window(rng), 3};
  auto future = scheduler.submit(request);
  ASSERT_TRUE(future.get().ok);

  const auto journal = scheduler.traces().journal();
  ASSERT_EQ(journal.size(), 1u);
  const auto& spans = journal[0].spans;
  const auto wait = std::find_if(
      spans.begin(), spans.end(), [](const obs::Span& span) {
        return span.stage == obs::Stage::kQueueWait;
      });
  ASSERT_NE(wait, spans.end());
  EXPECT_GT(wait->start_ns, 0u)
      << "submit-path queue wait starts at the admission timestamp";
}

}  // namespace
}  // namespace pelican::serve
