#include "serve/stats.hpp"

#include <string>

namespace pelican::serve {

namespace {

template <typename Value>
const Value* find(const std::vector<std::pair<std::string, Value>>& metrics,
                  const std::string& name) {
  for (const auto& [key, value] : metrics) {
    if (key == name) return &value;
  }
  return nullptr;
}

/// Folds the 8-per-octave buckets of a batch_rows histogram into log2
/// buckets: bucket i >= 1 starts at 2^(kMinExp + (i-1)/kBucketsPerOctave).
/// Batch sizes are integers >= 1; anything lower in a registry read off
/// the wire folds into log2 bucket 0.
std::vector<std::size_t> log2_histogram(const obs::HistogramState& rows) {
  using obs::Histogram;
  std::vector<std::size_t> out;
  for (std::size_t i = 1; i < rows.buckets.size(); ++i) {
    if (rows.buckets[i] == 0) continue;
    const auto octave = static_cast<int>(i - 1) / Histogram::kBucketsPerOctave +
                        Histogram::kMinExp;
    const auto b = static_cast<std::size_t>(octave < 0 ? 0 : octave);
    if (out.size() <= b) out.resize(b + 1, 0);
    out[b] += rows.buckets[i];
  }
  return out;
}

}  // namespace

ServerStats::ServerStats(const obs::RegistryState& registry,
                         std::string_view prefix) {
  const std::string p(prefix);
  const auto counter = [&](const char* name) -> std::size_t {
    const auto* value = find(registry.counters, p + name);
    return value == nullptr ? 0 : static_cast<std::size_t>(*value);
  };
  const auto histogram = [&](const char* name) {
    const auto* state = find(registry.histograms, p + name);
    return state == nullptr ? obs::HistogramState{} : *state;
  };
  const obs::HistogramState rows = histogram(kBatchRowsMetric);
  state_.rejected = counter(kRejectedMetric);
  state_.shed = counter(kShedMetric);
  state_.latency = histogram(kLatencyMetric);
  state_.requests = static_cast<std::size_t>(state_.latency.count);
  state_.peak_queue_depth =
      static_cast<std::size_t>(histogram(kQueueDepthMetric).max);
  state_.batches = static_cast<std::size_t>(rows.count);
  state_.batch_rows = static_cast<std::size_t>(rows.sum);
  state_.max_batch = static_cast<std::size_t>(rows.max);
  state_.batch_hist = log2_histogram(rows);
}

ServerStats::Snapshot ServerStats::snapshot() const {
  Snapshot snap;
  snap.requests_served = state_.requests;
  snap.requests_rejected = state_.rejected;
  snap.requests_shed = state_.shed;
  snap.peak_queue_depth = state_.peak_queue_depth;
  snap.batches_run = state_.batches;
  snap.mean_batch_size = state_.batches == 0
                             ? 0.0
                             : static_cast<double>(state_.batch_rows) /
                                   static_cast<double>(state_.batches);
  snap.max_batch_size = state_.max_batch;
  snap.batch_size_log2_histogram = state_.batch_hist;
  snap.p50_latency_ms = obs::Histogram::percentile_of(state_.latency, 50.0);
  snap.p99_latency_ms = obs::Histogram::percentile_of(state_.latency, 99.0);
  snap.max_latency_ms = state_.latency.max;
  return snap;
}

}  // namespace pelican::serve
