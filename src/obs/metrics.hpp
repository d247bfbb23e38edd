// Low-overhead metrics primitives: named counters and fixed-boundary
// log-bucket histograms with lock-free hot paths and EXACT merge.
//
// Why not keep raw samples? Holding every per-request latency in a vector
// makes fleet-merged percentiles exact but memory unbounded under
// open-ended traffic. A histogram over FIXED bucket
// boundaries is the standard fix: bounded memory (one u64 per bucket), a
// wait-free observe() (two relaxed atomic adds), and — because every
// instance shares the same boundaries — merging two histograms is an exact
// bucket-wise sum. Fleet aggregation therefore loses nothing: the merged
// histogram is byte-for-byte the histogram a single engine would have
// recorded had it seen all the traffic.
//
// What IS approximate is the percentile read out of a histogram. Buckets
// grow geometrically, kBucketsPerOctave per power of two, so a value in
// [2^-10, 2^18) ms lands in a bucket whose upper/lower ratio is
// 2^(1/kBucketsPerOctave) ~= 1.0905. percentile() interpolates inside the
// bucket, so the estimate is off from the true sample quantile by at most
// one bucket width: RELATIVE error <= 2^(1/8) - 1 ~= 9.05% for in-range
// values (values outside the range clamp into the underflow/overflow
// buckets; the overflow estimate clamps to the exact tracked max).
// tests/obs/metrics_test.cpp asserts this bound against the exact-sample
// baseline.
//
// Thread model: observe()/add() are safe from any thread and never take a
// lock. state() is a consistent-enough snapshot for monitoring (counts may
// trail sums by in-flight observes, never by more). Merging happens on
// snapshots only (HistogramState::merge, merge_state), never into a live
// metric.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"

namespace pelican::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Transportable raw state of a Histogram. `buckets` is either empty
/// (nothing recorded) or exactly Histogram::kNumBuckets long; boundaries are
/// compile-time shared, which is what makes merge exact.
struct HistogramState {
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  double sum = 0.0;
  double max = 0.0;
  /// Observations rejected as NaN/inf/negative and clamped to bucket 0
  /// (still counted in `count`); exposed as
  /// `histogram_invalid_observations_total` so poisoned instrumentation is
  /// visible instead of silently corrupting sums.
  std::uint64_t invalid = 0;

  /// Exact bucket-wise fold of `other` into this state.
  void merge(const HistogramState& other);

  bool operator==(const HistogramState&) const = default;
};

/// Fixed-boundary log-bucket histogram (header comment for the contract).
/// Units are whatever the caller records — the serving tier records
/// milliseconds — and the bucket range [2^kMinExp, 2^kMaxExp) is chosen to
/// cover ~1us to ~4.4 minutes in ms.
class Histogram {
 public:
  static constexpr int kBucketsPerOctave = 8;
  static constexpr int kMinExp = -10;  ///< lowest boundary: 2^-10 (~1e-3)
  static constexpr int kMaxExp = 18;   ///< highest boundary: 2^18 (~2.6e5)
  /// Index 0 is the underflow bucket (< 2^kMinExp, including zeros and
  /// negatives); the last index is the overflow bucket (>= 2^kMaxExp).
  static constexpr std::size_t kNumBuckets =
      static_cast<std::size_t>((kMaxExp - kMinExp) * kBucketsPerOctave) + 2;
  /// Documented worst-case relative quantile error for in-range values.
  static constexpr double kQuantileRelativeError = 0.0906;  // 2^(1/8) - 1

  /// Bucket index of `value` (total function; never throws).
  [[nodiscard]] static std::size_t bucket_index(double value) noexcept;
  /// Lower/upper boundary of bucket `i` (underflow lower is 0; overflow
  /// upper is +inf).
  [[nodiscard]] static double bucket_lower(std::size_t i) noexcept;
  [[nodiscard]] static double bucket_upper(std::size_t i) noexcept;

  /// Wait-free record of one observation. NaN, infinite, and negative
  /// values are invalid: they clamp to 0 (the underflow bucket) so counts
  /// stay consistent, never touch the tracked max, and are tallied in
  /// invalid() — one NaN must not poison the running sum forever.
  void observe(double value) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t invalid() const noexcept {
    return invalid_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }

  /// Estimated q-th percentile (q in [0, 100]) — see the header comment for
  /// the error bound. Returns 0 when nothing has been recorded.
  [[nodiscard]] double percentile(double q) const;
  /// Same estimator over a transportable state (used on merged fleet
  /// states; shares the exact code path with the live read).
  [[nodiscard]] static double percentile_of(const HistogramState& state,
                                            double q);

  [[nodiscard]] HistogramState state() const;

 private:
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> invalid_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

/// Transportable snapshot of a Registry: everything named, sorted by name
/// so fleet merges and expositions are deterministic.
struct RegistryState {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, HistogramState>> histograms;

  bool operator==(const RegistryState&) const = default;
};

/// Exact fold of `from` into `into`: counters add, histograms add
/// bucket-wise, maxes take the max, names union. This is how engine
/// registries (serving counters included, see serve/stats.hpp) become one
/// fleet view.
void merge_state(RegistryState& into, const RegistryState& from);

/// Named metrics, registration under a lock, recording lock-free.
///
/// counter()/histogram() return references that stay valid for the
/// registry's lifetime — hot paths resolve a name ONCE (at construction)
/// and hold the reference; per-record cost is then the atomic ops above.
class Registry {
 public:
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Histogram& histogram(const std::string& name);

  [[nodiscard]] RegistryState state() const;

 private:
  mutable Mutex mutex_;
  /// The maps are guarded; the Counter/Histogram objects they point at are
  /// NOT (their hot paths are lock-free atomics) — unique_ptr keeps the
  /// returned references stable across rehashes.
  std::map<std::string, std::unique_ptr<Counter>> counters_
      PELICAN_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      PELICAN_GUARDED_BY(mutex_);
};

}  // namespace pelican::obs
