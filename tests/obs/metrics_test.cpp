// obs metrics: the fixed-boundary log-bucket histogram behind every stage
// and latency metric. The properties the serving stack depends on:
//
//   - quantile estimates stay within the documented relative error bound;
//   - merges are EXACT (bucket-wise sums over compile-time-shared
//     boundaries), so fleet aggregation loses nothing;
//   - observe() is safe from any number of threads and never drops counts.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/stats.hpp"

namespace pelican::obs {
namespace {

TEST(HistogramTest, CountsSumAndMaxAreExact) {
  Histogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.sum(), 0.0);
  EXPECT_EQ(hist.max(), 0.0);
  EXPECT_EQ(hist.percentile(50.0), 0.0) << "empty histogram reads as zero";

  hist.observe(1.0);
  hist.observe(2.0);
  hist.observe(4.0);
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_DOUBLE_EQ(hist.sum(), 7.0);
  EXPECT_DOUBLE_EQ(hist.max(), 4.0);
}

TEST(HistogramTest, QuantilesStayWithinTheDocumentedErrorBound) {
  // Values spanning the full tracked range [2^kMinExp, 2^kMaxExp): the
  // estimate must track the exact sample quantile to within
  // kQuantileRelativeError at every probe. (Outside that range only the
  // edge buckets apply — covered below.)
  Histogram hist;
  std::vector<double> values;
  double value = 2e-3;
  while (value < 2e5) {
    hist.observe(value);
    values.push_back(value);
    value *= 1.07;
  }
  std::sort(values.begin(), values.end());
  for (const double q : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
    const double exact = stats::percentile(values, q);
    const double estimate = hist.percentile(q);
    EXPECT_NEAR(estimate, exact, exact * Histogram::kQuantileRelativeError)
        << "q=" << q;
  }
}

TEST(HistogramTest, EstimatesNeverExceedTheTrackedMax) {
  Histogram hist;
  hist.observe(3.0);
  hist.observe(3.0);
  EXPECT_LE(hist.percentile(100.0), hist.max());
  EXPECT_LE(hist.percentile(99.0), hist.max());
}

TEST(HistogramTest, OutOfRangeAndGarbageValuesLandInEdgeBuckets) {
  Histogram hist;
  hist.observe(0.0);    // below the lowest boundary -> underflow bucket
  hist.observe(-5.0);   // negative -> underflow bucket
  hist.observe(1e30);   // beyond the top boundary -> overflow bucket
  const auto state = hist.state();
  EXPECT_EQ(state.count, 3u);
  EXPECT_EQ(state.buckets.front(), 2u);
  EXPECT_EQ(state.buckets.back(), 1u);
  // The overflow quantile falls back to the exactly-tracked max.
  EXPECT_DOUBLE_EQ(hist.percentile(100.0), 1e30);
}

TEST(HistogramTest, GarbageObservationsAreClampedAndCounted) {
  // Regression: a NaN latency (e.g. a 0/0 in a derived duration) used to
  // poison sum/max forever. Non-finite and negative inputs now clamp to
  // the underflow bucket and are tallied separately.
  Histogram hist;
  hist.observe(std::numeric_limits<double>::quiet_NaN());
  hist.observe(-3.0);
  hist.observe(-std::numeric_limits<double>::infinity());
  hist.observe(std::numeric_limits<double>::infinity());
  hist.observe(2.0);

  const auto state = hist.state();
  EXPECT_EQ(state.count, 5u) << "clamped observations still count";
  EXPECT_EQ(state.invalid, 4u);
  EXPECT_EQ(hist.invalid(), 4u);
  EXPECT_EQ(state.buckets.front(), 4u) << "all four in the underflow bucket";
  EXPECT_DOUBLE_EQ(state.sum, 2.0) << "garbage never reaches the sum";
  EXPECT_DOUBLE_EQ(state.max, 2.0) << "no more max=inf/NaN";
  EXPECT_TRUE(std::isfinite(hist.percentile(99.0)));

  // invalid survives state merges (fleet aggregation) like every other
  // histogram field.
  Histogram other;
  other.observe(-1.0);
  HistogramState merged = state;
  merged.merge(other.state());
  EXPECT_EQ(merged.invalid, 5u);
}

TEST(HistogramTest, MergeIsTheExactBucketwiseSum) {
  Histogram a;
  Histogram b;
  for (int i = 1; i <= 100; ++i) a.observe(static_cast<double>(i));
  for (int i = 1; i <= 100; ++i) b.observe(i * 1000.0);

  const auto sa = a.state();
  const auto sb = b.state();
  HistogramState sm;
  sm.merge(sa);
  sm.merge(sb);
  ASSERT_EQ(sm.buckets.size(), Histogram::kNumBuckets);
  for (std::size_t i = 0; i < sm.buckets.size(); ++i) {
    EXPECT_EQ(sm.buckets[i], sa.buckets[i] + sb.buckets[i]) << "bucket " << i;
  }
  EXPECT_EQ(sm.count, 200u);
  EXPECT_DOUBLE_EQ(sm.sum, sa.sum + sb.sum);
  EXPECT_DOUBLE_EQ(sm.max, 100000.0);
}

TEST(HistogramTest, MergeRejectsForeignBucketLayouts) {
  HistogramState target;
  target.buckets.assign(Histogram::kNumBuckets, 0);
  HistogramState foreign;
  foreign.buckets.assign(7, 0);  // some other build's layout
  foreign.count = 1;
  EXPECT_THROW(target.merge(foreign), std::invalid_argument);
}

TEST(HistogramTest, ConcurrentObservesNeverDropCounts) {
  Histogram hist;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.observe(0.5 + t);  // different buckets per thread
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(hist.max(), 7.5);
}

TEST(RegistryTest, NamesResolveToStableReferences) {
  Registry registry;
  Counter& counter = registry.counter("requests_total");
  Histogram& hist = registry.histogram("stage_forward_ms");
  counter.add(2);
  registry.counter("requests_total").add(3);
  hist.observe(1.0);
  EXPECT_EQ(&registry.counter("requests_total"), &counter)
      << "hot paths resolve names once; the reference must stay valid";
  EXPECT_EQ(&registry.histogram("stage_forward_ms"), &hist);
  EXPECT_EQ(counter.value(), 5u);
}

TEST(RegistryTest, StateIsSortedAndMergeStateIsExact) {
  Registry a;
  a.counter("zeta").add(1);
  a.counter("alpha").add(2);
  a.histogram("lat_ms").observe(1.0);

  Registry b;
  b.counter("alpha").add(10);
  b.histogram("lat_ms").observe(1.0);
  b.histogram("other_ms").observe(4.0);

  RegistryState merged;
  merge_state(merged, a.state());
  merge_state(merged, b.state());

  ASSERT_EQ(merged.counters.size(), 2u);
  EXPECT_EQ(merged.counters[0].first, "alpha");
  EXPECT_EQ(merged.counters[0].second, 12u);
  EXPECT_EQ(merged.counters[1].first, "zeta");
  EXPECT_EQ(merged.counters[1].second, 1u);

  ASSERT_EQ(merged.histograms.size(), 2u);
  EXPECT_EQ(merged.histograms[0].first, "lat_ms");
  EXPECT_EQ(merged.histograms[0].second.count, 2u);
  EXPECT_EQ(merged.histograms[1].first, "other_ms");
  EXPECT_EQ(merged.histograms[1].second.count, 1u);
}

}  // namespace
}  // namespace pelican::obs
