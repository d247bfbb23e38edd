// BatchScheduler: turns a stream of single-window prediction requests into
// batched, parallel forwards over the DeploymentRegistry.
//
// Requests enter a bounded queue (submit) or arrive as a ready-made span
// (serve). The scheduler coalesces requests that target the same deployment
// into one multi-row predict_top_k_batch call — one LSTM forward serves B
// queries — under a max-batch / max-delay policy: a drain fires as soon as a
// full batch is queued, or when the oldest request has waited max_delay,
// whichever comes first. Drains execute across ThreadPool::global() workers,
// one coalesced batch per task, so batches run on distinct cores — those of
// one user too, since inference is const and takes no lock. A call that
// coalesces into a single batch runs it on the calling thread, where
// predict_top_k_batch splits its rows across the pool itself.
//
// Answers: serve() writes each response in place, into its slot of the
// returned vector, from whichever thread served its batch; it creates no
// promise or future. Only submit() hands out a future, fulfilled by the
// drain thread's batches.
//
// Responses are deterministic: batching never reorders or changes results
// (predict_top_k_batch is bit-identical per row to single queries), so
// service quality is independent of load, batch size, and shard count.
// Coalesced batches also ride the kernel fast paths for free:
// predict_top_k_batch encodes the batch as nn::SparseRows, so each drain's
// forward is nnz row gathers plus the packed GEMM recurrence (README
// "Performance architecture") — with the same bits as the dense path.
//
// Admission control. The submit queue is bounded (SchedulerConfig::
// max_queue); what happens at the bound is the QueuePolicy:
//
//   kBlock      — submit() blocks until the drain frees space. Applies
//       backpressure to the caller: nothing is ever dropped, total order is
//       preserved, but a slow engine propagates its slowness upstream and a
//       caller on a latency budget may miss it while parked. The right
//       default for closed-loop clients (benches, batch jobs) that would
//       only re-submit anyway.
//   kReject     — submit() answers the NEW request immediately with
//       ok = false / rejected = true. Bounds both queue memory and caller
//       wait time, and under sustained overload sheds exactly the overload
//       fraction — but fresh requests (most likely still wanted) pay, while
//       stale queued ones keep their seats. Right for open-loop traffic
//       where the caller has a fallback (e.g. serve the general model).
//   kShedOldest — the OLDEST queued request is answered rejected and the
//       new one takes its seat. Freshness-optimal: under overload the queue
//       holds the newest max_queue requests, matching mobile serving where
//       a stale prediction is worthless once the user has moved on — at the
//       cost of wasting the queue time already invested in the shed victim.
//
// Rejected-by-admission responses have ok = false and rejected = true
// (requests for unknown users keep rejected = false: they were admitted,
// there is just nothing to serve them with). The requests_shed_total
// counter and the queue_depth histogram (serve/stats.hpp) make overload
// observable.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <span>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "obs/events.hpp"
#include "obs/trace.hpp"
#include "serve/registry.hpp"
#include "serve/stats.hpp"

namespace pelican::serve {

struct PredictRequest {
  std::uint32_t user_id = 0;
  mobility::Window window;
  std::size_t k = 3;  ///< how many next-location candidates to return
  /// Trace id this request's stage spans are recorded under. 0 (the
  /// default) means untraced — the scheduler may then assign one itself via
  /// sampling (SchedulerConfig::trace_sample_every). A router in front of
  /// the engine stamps its own id here so one trace spans both processes.
  std::uint64_t trace_id = 0;
  /// Remaining latency budget in milliseconds, measured from submit()/
  /// serve() entry. 0 (the default) means no deadline. A request whose
  /// budget has expired by the time a drain picks it up is SHED (ok =
  /// false, rejected = true) instead of forwarded — nobody reads an answer
  /// that arrives after its deadline. The Router decrements the budget by
  /// its own elapsed time before putting it on the wire, so the engine-side
  /// check composes with wire + queueing delay.
  double deadline_ms = 0.0;
};

struct PredictResponse {
  std::uint32_t user_id = 0;
  /// false when the user has no deployment, when the deployment rejected
  /// the batch (e.g. a window outside the model's encoding domain), or when
  /// admission control shed the request (then rejected is also true).
  bool ok = false;
  /// true iff admission control (QueuePolicy kReject / kShedOldest, or a
  /// shutdown race) refused the request before it reached a model.
  bool rejected = false;
  /// store::ModelKey version of the model that served this response
  /// (DeployedModel::model_version; 0 = unversioned deployment). Lets
  /// clients observe live model updates mid-traffic.
  std::uint32_t model_version = 0;
  std::vector<std::uint16_t> locations;  ///< top-k, empty when !ok
  double latency_ms = 0.0;  ///< submission (or serve() entry) to response
};

/// Admission policy at the submit-queue bound — see the header comment for
/// the trade-offs.
enum class QueuePolicy : std::uint8_t { kBlock = 0, kReject, kShedOldest };

[[nodiscard]] constexpr const char* to_string(QueuePolicy policy) noexcept {
  switch (policy) {
    case QueuePolicy::kBlock: return "block";
    case QueuePolicy::kReject: return "reject";
    case QueuePolicy::kShedOldest: return "shed_oldest";
  }
  return "?";
}

struct SchedulerConfig {
  /// Most rows coalesced into one forward. 1 degenerates to single-query
  /// serving (useful as a baseline).
  std::size_t max_batch = 32;
  /// Longest a queued request may wait for co-batchable requests before a
  /// drain fires anyway (the latency side of the batching trade-off).
  std::chrono::microseconds max_delay{2000};
  /// Submit-queue bound; admission control engages at this depth.
  /// Must be > 0 — an unbounded queue turns overload into unbounded memory
  /// growth and unbounded tail latency, which is exactly what this config
  /// exists to prevent.
  std::size_t max_queue = 4096;
  QueuePolicy policy = QueuePolicy::kBlock;
  /// Locally-originated requests (trace_id == 0) get a sampled trace: every
  /// N-th request is assigned a fresh id and records full stage spans.
  /// 0 disables local sampling entirely. Requests arriving with a non-zero
  /// trace_id (router-stamped) are ALWAYS traced regardless of this knob —
  /// sampling upstream must not be silently re-sampled downstream.
  ///
  /// Stage histograms are recorded at the same granularity (traced requests
  /// only), so for local traffic they are a 1-in-N sample; routed traffic
  /// records every request. That is the deal behind the <= 2% tracing
  /// overhead bound on the batch-1 path (bench/serve_throughput).
  std::size_t trace_sample_every = 32;
};

class BatchScheduler {
 public:
  BatchScheduler(DeploymentRegistry& registry, SchedulerConfig config = {});

  /// Stops the drain thread after answering everything still queued.
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Enqueues one request; the future resolves once a drain has served it
  /// (or immediately, rejected, when admission control refuses it — see
  /// QueuePolicy). Never throws through the future: an unknown user yields
  /// ok = false.
  [[nodiscard]] std::future<PredictResponse> submit(PredictRequest request);

  /// Synchronous batch entry point: coalesces and serves `requests`
  /// immediately on the calling thread + pool workers, bypassing the queue
  /// (and therefore admission control — the caller already holds all the
  /// memory). Response i answers requests[i], written in place by whichever
  /// thread served its chunk; no promise or future is involved (only
  /// submit() uses them).
  [[nodiscard]] std::vector<PredictResponse> serve(
      std::span<const PredictRequest> requests);

  [[nodiscard]] const SchedulerConfig& config() const noexcept {
    return config_;
  }
  /// The serving counters (serve/stats.hpp), read out of metrics().
  [[nodiscard]] ServerStats stats() const {
    return ServerStats(metrics_.state());
  }

  /// The serving counters plus the stage-latency histograms (one per
  /// obs::Stage this engine executes, named by obs::stage_metric_name).
  [[nodiscard]] obs::Registry& metrics() noexcept { return metrics_; }
  /// Span sink + slow-request journal for this engine.
  [[nodiscard]] obs::TraceCollector& traces() noexcept { return traces_; }
  /// Structured event journal (deadline-shed bursts; the engine worker
  /// adds publishes). Ships to the router inside the kMetrics reply.
  [[nodiscard]] obs::EventJournal& events() noexcept { return events_; }

  /// Master switch for the per-request instrumentation (stage histograms,
  /// span recording, trace sampling). The serving counters are NOT gated:
  /// they cost a few relaxed atomics per row and the benches read them
  /// unconditionally. The serve_throughput bench asserts the
  /// enabled-vs-disabled delta on the batch-1 path stays <= 2%.
  void set_instrumentation(bool on) noexcept {
    instrument_.store(on, std::memory_order_relaxed);
    traces_.set_enabled(on);
  }
  [[nodiscard]] bool instrumentation_enabled() const noexcept {
    return instrument_.load(std::memory_order_relaxed);
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// One request as a drain or a serve() call sees it.
  struct Pending {
    PredictRequest request;
    Clock::time_point enqueued;
    std::uint64_t submit_ns = 0;    ///< obs::now_ns at submit/serve entry
    std::uint64_t admitted_ns = 0;  ///< obs::now_ns once past admission
  };

  /// A submit()ted request and the promise its answer fulfils.
  struct Queued {
    Pending pending;
    std::promise<PredictResponse> promise;
  };

  void drain_loop();

  /// Sheds expired deadlines, groups the rest by (user id, k), chunks groups
  /// to max_batch, and runs the chunks across the thread pool. Every item
  /// is answered exactly once through answer(i, response), on whichever
  /// thread finished it.
  template <typename Answer>
  void execute(std::span<const Pending> items, Answer&& answer);

  /// The answer to a request shed by admission control (counts it shed).
  [[nodiscard]] PredictResponse rejected(const Pending& pending);

  /// Assigns a sampled trace id to an untraced request when instrumentation
  /// is on and the sampling counter fires.
  void maybe_sample_trace(PredictRequest& request) noexcept;

  DeploymentRegistry& registry_;
  SchedulerConfig config_;

  obs::Registry metrics_;
  obs::TraceCollector traces_;
  obs::EventJournal events_;
  std::atomic<bool> instrument_{true};
  std::atomic<std::uint64_t> sample_counter_{0};
  /// Stage histograms resolved once at construction so the hot path never
  /// touches the registry lock (obs::Registry reference stability).
  std::array<obs::Histogram*, obs::kStageCount> stage_hist_{};
  /// Requests shed because their deadline budget expired before a drain
  /// reached them (registered eagerly so it exports as 0, not absent).
  obs::Counter* deadline_shed_counter_ = nullptr;
  /// The serving counters (serve/stats.hpp), resolved once like the above.
  obs::Counter* rejected_counter_ = nullptr;
  obs::Counter* shed_counter_ = nullptr;
  obs::Histogram* latency_hist_ = nullptr;
  obs::Histogram* batch_rows_hist_ = nullptr;
  obs::Histogram* queue_depth_hist_ = nullptr;

  Mutex mutex_;
  std::condition_variable queue_cv_;  ///< drainer waits: work available
  std::condition_variable space_cv_;  ///< blocked submitters wait: space
  std::deque<Queued> queue_ PELICAN_GUARDED_BY(mutex_);
  bool stop_ PELICAN_GUARDED_BY(mutex_) = false;
  std::thread drainer_;
};

}  // namespace pelican::serve
