// Fleet-merge semantics of the serving counters. An engine records them in
// its obs::Registry (serve/stats.hpp names them); the router folds one
// RegistryState per engine process with obs::merge_state, and ServerStats
// reads the result. An engine that has served nothing must read as all
// zeros, and merging it must be a no-op.
#include "serve/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "serve/registry.hpp"
#include "serve/scheduler.hpp"
#include "serve/serve_support.hpp"

namespace pelican::serve {
namespace {

/// One engine's registry, recorded under the scheduler's metric names.
struct Engine {
  obs::Registry metrics;

  void request(double latency_ms) {
    metrics.histogram(kLatencyMetric).observe(latency_ms);
  }
  void batch(std::size_t rows) {
    metrics.histogram(kBatchRowsMetric).observe(static_cast<double>(rows));
  }
  void queue_depth(std::size_t depth) {
    metrics.histogram(kQueueDepthMetric).observe(static_cast<double>(depth));
  }
  [[nodiscard]] obs::RegistryState state() const { return metrics.state(); }
};

TEST(StatsMergeTest, PercentileOfEmptyInputIsExplicitlyZero) {
  // The contract the empty-histogram snapshot path relies on.
  const std::vector<double> empty;
  EXPECT_EQ(stats::percentile(empty, 50.0), 0.0);
  EXPECT_EQ(stats::percentile(empty, 99.0), 0.0);
  EXPECT_EQ(stats::percentile(empty, 0.0), 0.0);
  EXPECT_EQ(stats::percentile(empty, 100.0), 0.0);
}

TEST(StatsMergeTest, EmptyStateIsAllZero) {
  for (const obs::RegistryState& state :
       {obs::RegistryState{}, Engine{}.state()}) {
    EXPECT_EQ(ServerStats(state).state(), ServerStats::State{});
    const auto snap = ServerStats(state).snapshot();
    EXPECT_EQ(snap.requests_served, 0u);
    EXPECT_EQ(snap.batches_run, 0u);
    EXPECT_EQ(snap.mean_batch_size, 0.0);
    EXPECT_TRUE(snap.batch_size_log2_histogram.empty());
    EXPECT_EQ(snap.p50_latency_ms, 0.0);
    EXPECT_EQ(snap.p99_latency_ms, 0.0);
    EXPECT_EQ(snap.max_latency_ms, 0.0);
  }
  // A freshly built scheduler registers every serving metric, all zero.
  DeploymentRegistry registry;
  const BatchScheduler scheduler(registry);
  EXPECT_EQ(scheduler.stats().state(), ServerStats::State{});
}

TEST(StatsMergeTest, MergingEmptyStateIsANoOp) {
  Engine engine;
  engine.batch(4);
  engine.request(10.0);
  engine.metrics.counter(kShedMetric).add(2);
  obs::RegistryState state = engine.state();
  const ServerStats::State before = ServerStats(state).state();

  obs::merge_state(state, Engine{}.state());
  obs::merge_state(state, obs::RegistryState{});

  EXPECT_EQ(ServerStats(state).state(), before);
}

TEST(StatsMergeTest, FleetMergeIsTheExactBucketwiseSum) {
  // Three engines with disjoint latency populations. The merged latency
  // histogram must be the element-wise sum of the per-engine buckets: the
  // merge being exact (not approximate) is what makes fleet aggregation
  // trustworthy.
  Engine engines[3];
  std::vector<double> all;
  for (int e = 0; e < 3; ++e) {
    for (int i = 0; i < 50; ++i) {
      const double latency = 1.0 + e * 100.0 + i;  // 1..50, 101..150, 201..250
      engines[e].request(latency);
      all.push_back(latency);
    }
    engines[e].batch(static_cast<std::size_t>(1) << e);
    engines[e].queue_depth(static_cast<std::size_t>(3 - e));
    engines[e].metrics.counter(kRejectedMetric).add(1);
  }

  obs::RegistryState merged;
  for (const auto& engine : engines) obs::merge_state(merged, engine.state());

  const ServerStats fleet(merged);
  const auto snap = fleet.snapshot();
  EXPECT_EQ(snap.requests_served, 150u);
  EXPECT_EQ(snap.requests_rejected, 3u);
  EXPECT_EQ(snap.batches_run, 3u);
  EXPECT_EQ(fleet.state().batch_rows, 7u);
  EXPECT_EQ(snap.max_batch_size, 4u);
  EXPECT_EQ(snap.peak_queue_depth, 3u)
      << "queues are per-process: fleet peak is the max, not the sum";

  // Exact merge: fleet bucket b == sum over engines of bucket b, for all b.
  const obs::HistogramState& fleet_latency = fleet.state().latency;
  ASSERT_EQ(fleet_latency.buckets.size(), obs::Histogram::kNumBuckets);
  std::vector<std::uint64_t> expected(obs::Histogram::kNumBuckets, 0);
  double expected_sum = 0.0;
  for (const auto& engine : engines) {
    const auto state = ServerStats(engine.state()).state().latency;
    ASSERT_EQ(state.buckets.size(), obs::Histogram::kNumBuckets);
    for (std::size_t b = 0; b < state.buckets.size(); ++b) {
      expected[b] += state.buckets[b];
    }
    expected_sum += state.sum;
  }
  EXPECT_EQ(fleet_latency.buckets, expected);
  EXPECT_EQ(fleet_latency.count, 150u);
  EXPECT_DOUBLE_EQ(fleet_latency.sum, expected_sum);
  EXPECT_DOUBLE_EQ(fleet_latency.max, 250.0);

  // Percentiles are bucket estimates: within the documented relative error
  // bound of the exact union percentile (2^(1/8) - 1, ~9.1%).
  const double exact_p50 = stats::percentile(all, 50.0);
  const double exact_p99 = stats::percentile(all, 99.0);
  EXPECT_NEAR(snap.p50_latency_ms, exact_p50,
              exact_p50 * obs::Histogram::kQuantileRelativeError);
  EXPECT_NEAR(snap.p99_latency_ms, exact_p99,
              exact_p99 * obs::Histogram::kQuantileRelativeError);

  // One batch each of size 1, 2, 4.
  EXPECT_EQ(snap.batch_size_log2_histogram,
            (std::vector<std::size_t>{1, 1, 1}));
}

TEST(StatsMergeTest, SchedulerStatesMergeExactly) {
  // The same fold over two live schedulers' registries.
  DeploymentRegistry registry;
  registry.deploy(1, serve_testing::tiny_deployment(1));
  BatchScheduler a(registry, {.max_batch = 4});
  BatchScheduler b(registry, {.max_batch = 8});
  Rng rng(5);
  std::vector<PredictRequest> requests;
  for (int i = 0; i < 12; ++i) {
    requests.push_back({1, serve_testing::random_window(rng), 3});
  }
  (void)a.serve(requests);
  (void)b.serve(requests);
  (void)b.serve(std::vector<PredictRequest>{{99, requests[0].window, 3}});

  obs::RegistryState merged = a.metrics().state();
  obs::merge_state(merged, b.metrics().state());
  const ServerStats::State fleet = ServerStats(merged).state();
  const ServerStats::State sa = a.stats().state();
  const ServerStats::State sb = b.stats().state();
  EXPECT_EQ(fleet.requests, 24u);
  EXPECT_EQ(fleet.rejected, 1u) << "user 99 is not deployed";
  EXPECT_EQ(fleet.batches, 3u + 2u);
  EXPECT_EQ(fleet.batch_rows, 24u);
  EXPECT_EQ(fleet.max_batch, 8u);
  obs::HistogramState latency = sa.latency;
  latency.merge(sb.latency);
  EXPECT_EQ(fleet.latency, latency);
}

TEST(StatsMergeTest, PercentileErrorStaysWithinDocumentedBound) {
  // A spread of magnitudes (0.01ms .. ~1000ms): every estimated quantile
  // must sit within kQuantileRelativeError of the exact sample quantile.
  Engine engine;
  std::vector<double> all;
  double value = 0.01;
  for (int i = 0; i < 400; ++i) {
    engine.request(value);
    all.push_back(value);
    value *= 1.03;
  }
  const auto snap = ServerStats(engine.state()).snapshot();
  const double exact_p50 = stats::percentile(all, 50.0);
  const double exact_p99 = stats::percentile(all, 99.0);
  EXPECT_NEAR(snap.p50_latency_ms, exact_p50,
              exact_p50 * obs::Histogram::kQuantileRelativeError);
  EXPECT_NEAR(snap.p99_latency_ms, exact_p99,
              exact_p99 * obs::Histogram::kQuantileRelativeError);
  EXPECT_LE(snap.p99_latency_ms, snap.max_latency_ms)
      << "estimates must never exceed the exactly-tracked max";
}

TEST(StatsMergeTest, Log2BatchBucketIsFloorLog2OfTheSize) {
  for (std::size_t size = 1; size <= 4096; ++size) {
    Engine engine;
    engine.batch(size);
    const auto hist = ServerStats(engine.state()).state().batch_hist;
    const auto want = static_cast<std::size_t>(std::floor(std::log2(size)));
    ASSERT_EQ(hist.size(), want + 1) << "batch size " << size;
    ASSERT_EQ(hist[want], 1u) << "batch size " << size;
  }
}

}  // namespace
}  // namespace pelican::serve
