// ServerStats: the serving counters, read back out of an obs registry.
//
// The serving tier keeps its request accounting in the same wait-free
// obs::Registry as its stage histograms: one metrics system, one exact
// merge, one wire format. BatchScheduler records these names, and nothing
// here is gated by set_instrumentation (they cost a few relaxed atomics per
// row). The Router records the first three under kRouterMetricPrefix: its
// end-to-end view of the same traffic, wire and failover time included.
//
//   requests_rejected_total  counter: rows answered ok = false by a model
//                            (user not deployed, undecodable batch)
//   requests_shed_total      counter: rows refused before reaching a model
//                            (admission control, expired deadlines)
//   request_latency_ms       histogram, one observation per served row,
//                            submission to response; count = rows served
//   batch_rows               histogram, one observation per executed
//                            forward, valued at its row count: count =
//                            batches, sum = rows, exact max = largest batch;
//                            its 8-per-octave buckets sum to the log2
//                            batch-size histogram
//   queue_depth              histogram of the submit-queue depth at each
//                            enqueue; its exact max is the peak depth
//
// Fleet aggregation is obs::merge_state: counters add, histograms add
// bucket-wise over shared fixed boundaries (exact, so fleet percentiles keep
// the single-engine error bound kQuantileRelativeError), and a histogram's
// max merges as the max, so the fleet's peak queue depth is the worst any
// one engine's queue got, not the sum.
//
// ServerStats is a read-only view over one RegistryState: it derives the raw
// State and the printed Snapshot, holds no lock, and records nothing.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace pelican::serve {

inline constexpr const char* kRejectedMetric = "requests_rejected_total";
inline constexpr const char* kShedMetric = "requests_shed_total";
inline constexpr const char* kLatencyMetric = "request_latency_ms";
inline constexpr const char* kBatchRowsMetric = "batch_rows";
inline constexpr const char* kQueueDepthMetric = "queue_depth";
/// Prefix of the Router's copies of the serving metrics.
inline constexpr const char* kRouterMetricPrefix = "router_";

class ServerStats {
 public:
  /// The serving counters, decoded from their registry metrics.
  struct State {
    std::size_t requests = 0;
    std::size_t rejected = 0;
    std::size_t shed = 0;
    std::size_t peak_queue_depth = 0;
    std::size_t batches = 0;
    std::size_t batch_rows = 0;
    std::size_t max_batch = 0;
    /// bucket b counts batches with size in [2^b, 2^(b+1)).
    std::vector<std::size_t> batch_hist;
    obs::HistogramState latency;

    bool operator==(const State&) const = default;
  };

  struct Snapshot {
    std::size_t requests_served = 0;
    std::size_t requests_rejected = 0;
    std::size_t requests_shed = 0;
    std::size_t peak_queue_depth = 0;
    std::size_t batches_run = 0;
    double mean_batch_size = 0.0;
    std::size_t max_batch_size = 0;
    std::vector<std::size_t> batch_size_log2_histogram;
    double p50_latency_ms = 0.0;
    double p99_latency_ms = 0.0;
    double max_latency_ms = 0.0;
  };

  /// Reads the metrics named `prefix` + the names above; a metric absent
  /// from `registry` reads as zero.
  explicit ServerStats(const obs::RegistryState& registry,
                       std::string_view prefix = {});

  [[nodiscard]] const State& state() const noexcept { return state_; }
  [[nodiscard]] Snapshot snapshot() const;

 private:
  State state_;
};

}  // namespace pelican::serve
