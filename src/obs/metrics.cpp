#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace pelican::obs {
namespace {

// CAS loops because std::atomic<double>::fetch_add is C++20
// floating-point-atomics territory that not every libstdc++ ships lock-free;
// the contended case here is a handful of serving threads, so the loop
// converges immediately in practice.
void atomic_add(std::atomic<double>& target, double delta) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double value) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (cur < value && !target.compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

constexpr double lowest_boundary() noexcept {
  return 1.0 / static_cast<double>(1 << -Histogram::kMinExp);
}

}  // namespace

std::size_t Histogram::bucket_index(double value) noexcept {
  const double lo = lowest_boundary();
  if (!(value >= lo)) return 0;  // underflow; also catches NaN and negatives
  // log2(value / lo) * kBucketsPerOctave, floored, is the offset past the
  // underflow bucket. Guard against float edge cases landing exactly on a
  // boundary from below by re-deriving against the actual boundary.
  const double octaves = std::log2(value / lo);
  auto idx = static_cast<std::ptrdiff_t>(octaves * kBucketsPerOctave);
  idx = std::clamp<std::ptrdiff_t>(idx, 0,
                                   (kMaxExp - kMinExp) * kBucketsPerOctave);
  std::size_t bucket = static_cast<std::size_t>(idx) + 1;
  if (bucket < kNumBuckets - 1 && value >= bucket_upper(bucket)) ++bucket;
  if (bucket > 1 && value < bucket_lower(bucket)) --bucket;
  return bucket;
}

double Histogram::bucket_lower(std::size_t i) noexcept {
  if (i == 0) return 0.0;
  return lowest_boundary() *
         std::exp2(static_cast<double>(i - 1) / kBucketsPerOctave);
}

double Histogram::bucket_upper(std::size_t i) noexcept {
  if (i + 1 >= kNumBuckets) {
    return std::numeric_limits<double>::infinity();
  }
  return lowest_boundary() *
         std::exp2(static_cast<double>(i) / kBucketsPerOctave);
}

void Histogram::observe(double value) noexcept {
  if (!std::isfinite(value) || value < 0.0) {
    // bucket_index would already route these to the underflow bucket, but
    // the sum/max updates below would not survive them (one NaN makes sum_
    // NaN forever). Clamp to an explicit 0.0 observation and tally it.
    invalid_.fetch_add(1, std::memory_order_relaxed);
    value = 0.0;
  }
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, value);
  atomic_max(max_, value);
}

double Histogram::percentile_of(const HistogramState& state, double q) {
  if (state.count == 0) return 0.0;
  q = std::clamp(q, 0.0, 100.0);
  // Target the same rank convention as stats::percentile (inclusive linear
  // interpolation over sorted samples): rank in [0, count-1].
  const double rank = q / 100.0 * static_cast<double>(state.count - 1);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < state.buckets.size(); ++i) {
    const std::uint64_t in_bucket = state.buckets[i];
    if (in_bucket == 0) continue;
    if (rank < static_cast<double>(seen + in_bucket)) {
      // Interpolate within the bucket, treating its mass as uniform.
      const double frac =
          (rank - static_cast<double>(seen) + 0.5) /
          static_cast<double>(in_bucket);
      double lo = bucket_lower(i);
      double hi = bucket_upper(i);
      if (std::isinf(hi)) return state.max;  // overflow: exact tracked max
      double value = lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
      return std::min(value, state.max);
    }
    seen += in_bucket;
  }
  return state.max;
}

double Histogram::percentile(double q) const { return percentile_of(state(), q); }

HistogramState Histogram::state() const {
  HistogramState out;
  out.count = count_.load(std::memory_order_relaxed);
  if (out.count == 0) return out;
  out.sum = sum_.load(std::memory_order_relaxed);
  out.max = max_.load(std::memory_order_relaxed);
  out.invalid = invalid_.load(std::memory_order_relaxed);
  out.buckets.resize(kNumBuckets);
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    out.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void HistogramState::merge(const HistogramState& other) {
  if (other.count == 0) return;
  if (!other.buckets.empty() &&
      other.buckets.size() != Histogram::kNumBuckets) {
    throw std::invalid_argument("HistogramState::merge: bucket layout mismatch");
  }
  if (buckets.empty()) buckets.resize(Histogram::kNumBuckets);
  for (std::size_t i = 0; i < other.buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
  invalid += other.invalid;
}

void merge_state(RegistryState& into, const RegistryState& from) {
  for (const auto& [name, value] : from.counters) {
    auto it = std::find_if(into.counters.begin(), into.counters.end(),
                           [&](const auto& c) { return c.first == name; });
    if (it == into.counters.end()) {
      into.counters.emplace_back(name, value);
    } else {
      it->second += value;
    }
  }
  for (const auto& [name, state] : from.histograms) {
    auto it = std::find_if(into.histograms.begin(), into.histograms.end(),
                           [&](const auto& h) { return h.first == name; });
    if (it == into.histograms.end()) {
      into.histograms.emplace_back(name, state);
    } else {
      it->second.merge(state);
    }
  }
  std::sort(into.counters.begin(), into.counters.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::sort(into.histograms.begin(), into.histograms.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

Counter& Registry::counter(const std::string& name) {
  const MutexLock lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  const MutexLock lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

RegistryState Registry::state() const {
  const MutexLock lock(mutex_);
  RegistryState out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.counters.emplace_back(name, counter->value());
  }
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    out.histograms.emplace_back(name, histogram->state());
  }
  return out;  // std::map iteration order is already name-sorted
}

}  // namespace pelican::obs
