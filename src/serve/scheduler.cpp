#include "serve/scheduler.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.hpp"

namespace pelican::serve {

BatchScheduler::BatchScheduler(DeploymentRegistry& registry,
                               SchedulerConfig config)
    : registry_(registry), config_(config) {
  if (config_.max_batch == 0) {
    throw std::invalid_argument("BatchScheduler: max_batch must be > 0");
  }
  if (config_.max_queue == 0) {
    throw std::invalid_argument("BatchScheduler: max_queue must be > 0");
  }
  // Resolve every stage histogram once: per-request recording then never
  // touches the registry map/lock (the references are lifetime-stable).
  for (std::size_t s = 0; s < obs::kStageCount; ++s) {
    stage_hist_[s] = &metrics_.histogram(
        obs::stage_metric_name(static_cast<obs::Stage>(s)));
  }
  deadline_shed_counter_ = &metrics_.counter("requests_deadline_shed_total");
  rejected_counter_ = &metrics_.counter(kRejectedMetric);
  shed_counter_ = &metrics_.counter(kShedMetric);
  latency_hist_ = &metrics_.histogram(kLatencyMetric);
  batch_rows_hist_ = &metrics_.histogram(kBatchRowsMetric);
  queue_depth_hist_ = &metrics_.histogram(kQueueDepthMetric);
  drainer_ = std::thread([this] { drain_loop(); });
}

void BatchScheduler::maybe_sample_trace(PredictRequest& request) noexcept {
  if (request.trace_id != 0 || config_.trace_sample_every == 0 ||
      !instrumentation_enabled()) {
    return;
  }
  if (sample_counter_.fetch_add(1, std::memory_order_relaxed) %
          config_.trace_sample_every ==
      0) {
    request.trace_id = obs::new_trace_id();
  }
}

BatchScheduler::~BatchScheduler() {
  {
    const MutexLock lock(mutex_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  space_cv_.notify_all();  // unblock kBlock submitters parked at the bound
  drainer_.join();
}

PredictResponse BatchScheduler::rejected(const Pending& pending) {
  PredictResponse response;
  response.user_id = pending.request.user_id;
  response.ok = false;
  response.rejected = true;
  response.latency_ms = std::chrono::duration<double, std::milli>(
                            Clock::now() - pending.enqueued)
                            .count();
  shed_counter_->add();
  return response;
}

std::future<PredictResponse> BatchScheduler::submit(PredictRequest request) {
  Queued queued;
  Pending& pending = queued.pending;
  pending.request = std::move(request);
  pending.enqueued = Clock::now();
  maybe_sample_trace(pending.request);
  // Stage timestamps only for traced requests: the untraced fast path pays
  // a counter bump and this branch, nothing else (see the <= 2% overhead
  // row in bench/serve_throughput).
  if (pending.request.trace_id != 0) pending.submit_ns = obs::now_ns();
  std::future<PredictResponse> future = queued.promise.get_future();
  const auto refuse = [this](Queued& victim) {
    victim.promise.set_value(rejected(victim.pending));
  };

  std::vector<Queued> shed;  // answered after the lock is released
  {
    MutexLock lock(mutex_);
    if (queue_.size() >= config_.max_queue && !stop_) {
      switch (config_.policy) {
        case QueuePolicy::kBlock:
          while (!stop_ && queue_.size() >= config_.max_queue) {
            lock.wait(space_cv_);
          }
          break;
        case QueuePolicy::kReject:
          lock.unlock();
          refuse(queued);
          return future;
        case QueuePolicy::kShedOldest:
          shed.push_back(std::move(queue_.front()));
          queue_.pop_front();
          break;
      }
    }
    if (stop_) {
      // Shutdown raced the submit: the drainer only answers what was queued
      // before stop, so refuse rather than enqueue into a dying engine.
      lock.unlock();
      refuse(queued);
      return future;
    }
    if (pending.request.trace_id != 0) pending.admitted_ns = obs::now_ns();
    queue_.push_back(std::move(queued));
    // Observe the depth WHILE holding the queue lock: observing the size
    // after unlocking raced concurrent drains, so a momentary peak (e.g.
    // "did the queue ever reach its bound?") could be under-reported.
    // Histogram::observe is wait-free, so no second lock is taken inside
    // this critical section.
    queue_depth_hist_->observe(static_cast<double>(queue_.size()));
  }
  queue_cv_.notify_all();
  for (Queued& victim : shed) refuse(victim);
  return future;
}

std::vector<PredictResponse> BatchScheduler::serve(
    std::span<const PredictRequest> requests) {
  const Clock::time_point entered = Clock::now();
  const std::uint64_t entered_ns = obs::now_ns();
  std::vector<Pending> items;
  items.reserve(requests.size());
  for (const PredictRequest& request : requests) {
    // The sync path has no queue: "queue wait" degenerates to serve-entry ->
    // chunk pickup, which still captures scheduling delay under load.
    items.push_back({request, entered, entered_ns, entered_ns});
    maybe_sample_trace(items.back().request);
  }
  std::vector<PredictResponse> responses(items.size());
  execute(items, [&](std::size_t i, PredictResponse response) {
    responses[i] = std::move(response);
  });
  return responses;
}

void BatchScheduler::drain_loop() {
  for (;;) {
    std::vector<Pending> items;
    std::vector<std::promise<PredictResponse>> promises;
    {
      MutexLock lock(mutex_);
      while (!stop_ && queue_.empty()) lock.wait(queue_cv_);
      if (queue_.empty()) return;  // stopped with nothing left to answer

      // Hold for stragglers that could join a batch — but never past the
      // oldest request's max_delay deadline, and not at all once a full
      // batch is already queued or we are shutting down.
      const Clock::time_point deadline =
          queue_.front().pending.enqueued + config_.max_delay;
      while (!stop_ && queue_.size() < config_.max_batch) {
        if (!lock.wait_until(queue_cv_, deadline)) break;  // deadline hit
      }

      items.reserve(queue_.size());
      promises.reserve(queue_.size());
      for (Queued& queued : queue_) {
        items.push_back(std::move(queued.pending));
        promises.push_back(std::move(queued.promise));
      }
      queue_.clear();
    }
    space_cv_.notify_all();  // the queue just emptied: admit blocked callers
    execute(items, [&](std::size_t i, PredictResponse response) {
      promises[i].set_value(std::move(response));
    });
  }
}

template <typename Answer>
void BatchScheduler::execute(std::span<const Pending> items, Answer&& answer) {
  // Deadline admission: a request whose budget expired while it sat in the
  // queue is answered shed right here — the forward it would have joined
  // computes an answer nobody reads. Deadline-free traffic (the common
  // case) pays one branch per item and no clock read.
  std::vector<std::size_t> live(items.size());
  std::iota(live.begin(), live.end(), std::size_t{0});
  if (std::any_of(items.begin(), items.end(), [](const Pending& pending) {
        return pending.request.deadline_ms > 0.0;
      })) {
    const Clock::time_point now = Clock::now();
    std::uint64_t shed = 0;
    std::uint64_t shed_trace = 0;
    std::erase_if(live, [&](std::size_t i) {
      const Pending& pending = items[i];
      const double budget = pending.request.deadline_ms;
      const double waited_ms = std::chrono::duration<double, std::milli>(
                                   now - pending.enqueued)
                                   .count();
      if (budget <= 0.0 || waited_ms < budget) return false;
      deadline_shed_counter_->add();
      ++shed;
      if (shed_trace == 0) shed_trace = pending.request.trace_id;
      answer(i, rejected(pending));
      return true;
    });
    if (shed > 0 && instrumentation_enabled()) {
      // One burst event per drain, behind the instrumentation flag — the
      // uninstrumented hot path must not pay a journal lock (the
      // serve_throughput bench asserts the flight-recorder overhead bound).
      events_.emit(obs::EventType::kDeadlineShed, "engine",
                   std::to_string(shed) + " requests expired in queue",
                   shed_trace);
    }
  }
  if (live.empty()) return;
  // Stage-breakdown work (clock reads, histogram observes, span commits)
  // runs only for traced requests: router-stamped ids are always traced,
  // local requests 1-in-trace_sample_every. An untraced drain costs a
  // handful of branches — that is what keeps the batch-1 tracing overhead
  // within the bench's 2% bound.
  const bool instrument =
      instrumentation_enabled() &&
      std::any_of(live.begin(), live.end(), [&](std::size_t i) {
        return items[i].request.trace_id != 0;
      });
  const std::uint64_t pickup_ns = instrument ? obs::now_ns() : 0;

  // Coalesce: group request indices by (user, k) in arrival order, then cut
  // each group into max_batch chunks. std::map keeps chunk construction
  // deterministic given the same input order.
  std::map<std::pair<std::uint32_t, std::size_t>, std::vector<std::size_t>>
      groups;
  for (const std::size_t i : live) {
    groups[{items[i].request.user_id, items[i].request.k}].push_back(i);
  }
  struct Chunk {
    std::uint32_t user_id = 0;
    std::size_t k = 0;
    std::span<const std::size_t> indices;
  };
  std::vector<Chunk> chunks;
  for (const auto& [key, indices] : groups) {
    for (std::size_t start = 0; start < indices.size();
         start += config_.max_batch) {
      const std::size_t count =
          std::min(config_.max_batch, indices.size() - start);
      chunks.push_back({key.first, key.second,
                        std::span<const std::size_t>(indices).subspan(start,
                                                                      count)});
    }
  }
  const std::uint64_t assembled_ns = instrument ? obs::now_ns() : 0;

  // One pool task per coalesced batch. Chunks run concurrently, those of
  // one user included: inference is const and takes no lock (the registry
  // takes one only for the pointer snapshot).
  parallel_for(chunks.size(), [&](std::size_t c) {
    const Chunk& chunk = chunks[c];
    std::vector<mobility::Window> windows;
    windows.reserve(chunk.indices.size());
    for (const std::size_t i : chunk.indices) {
      windows.push_back(items[i].request.window);
    }

    // A chunk is measured iff it carries a traced row; its stage costs are
    // then attributed to every traced row (they shared that one forward).
    const bool measured =
        instrument &&
        std::any_of(chunk.indices.begin(), chunk.indices.end(),
                    [&](std::size_t i) {
                      return items[i].request.trace_id != 0;
                    });

    std::vector<std::vector<std::uint16_t>> results;
    std::uint32_t model_version = 0;
    bool ok = true;
    core::PredictStageSeconds stage_seconds;
    const std::uint64_t chunk_start_ns = measured ? obs::now_ns() : 0;
    try {
      registry_.with_model(chunk.user_id, [&](core::DeployedModel& model) {
        model_version = model.model_version();
        results = model.predict_top_k_batch(
            windows, chunk.k, measured ? &stage_seconds : nullptr);
      });
    } catch (...) {
      // Not deployed (registry's out_of_range) or the deployment rejected
      // the batch (e.g. a window outside the model's encoding domain).
      // Swallowing everything here is deliberate: an exception escaping a
      // drain would otherwise tear down the drainer thread (std::terminate)
      // and leave every outstanding future hanging. The requests in this
      // chunk are answered ok = false instead.
      ok = false;
    }
    if (ok) {
      batch_rows_hist_->observe(static_cast<double>(windows.size()));
    } else {
      rejected_counter_->add(windows.size());
    }

    if (measured && ok) {
      // Chunk-level stage costs recorded once per forward, not per row: the
      // histogram then answers "what does a forward cost at this stage",
      // which is the number a batching engine can act on.
      using obs::Stage;
      const auto idx = [](Stage s) { return static_cast<std::size_t>(s); };
      stage_hist_[idx(Stage::kBatchAssembly)]->observe(
          static_cast<double>(assembled_ns - pickup_ns) / 1e6);
      stage_hist_[idx(Stage::kEncode)]->observe(stage_seconds.encode * 1e3);
      stage_hist_[idx(Stage::kForward)]->observe(stage_seconds.forward * 1e3);
      stage_hist_[idx(Stage::kRankTopK)]->observe(stage_seconds.rank * 1e3);
    }

    const Clock::time_point now = Clock::now();
    for (std::size_t j = 0; j < chunk.indices.size(); ++j) {
      const std::size_t i = chunk.indices[j];
      const Pending& pending = items[i];
      PredictResponse response;
      response.user_id = chunk.user_id;
      response.ok = ok;
      response.model_version = model_version;
      if (ok) response.locations = std::move(results[j]);
      response.latency_ms =
          std::chrono::duration<double, std::milli>(now - pending.enqueued)
              .count();
      if (ok) latency_hist_->observe(response.latency_ms);
      if (measured && pending.request.trace_id != 0) {
        const double queue_wait_ms =
            static_cast<double>(pickup_ns - pending.admitted_ns) / 1e6;
        const double admission_ms =
            static_cast<double>(pending.admitted_ns - pending.submit_ns) /
            1e6;
        using obs::Stage;
        const auto idx = [](Stage s) { return static_cast<std::size_t>(s); };
        stage_hist_[idx(Stage::kQueueWait)]->observe(queue_wait_ms);
        stage_hist_[idx(Stage::kAdmission)]->observe(admission_ms);
        {
          // One batched commit per traced request: stack-local spans, a
          // single collector lock. Chunk-level stages are attributed to
          // every row of the chunk (its rows shared that one forward).
          const auto ns = [](double seconds) {
            return static_cast<std::uint64_t>(seconds * 1e9);
          };
          std::array<obs::Span, 6> spans;
          std::size_t n = 0;
          spans[n++] = {Stage::kAdmission, pending.submit_ns,
                        pending.admitted_ns - pending.submit_ns};
          spans[n++] = {Stage::kQueueWait, pending.admitted_ns,
                        pickup_ns - pending.admitted_ns};
          spans[n++] = {Stage::kBatchAssembly, pickup_ns,
                        assembled_ns - pickup_ns};
          std::uint64_t at = chunk_start_ns;
          spans[n++] = {Stage::kEncode, at, ns(stage_seconds.encode)};
          at += ns(stage_seconds.encode);
          spans[n++] = {Stage::kForward, at, ns(stage_seconds.forward)};
          at += ns(stage_seconds.forward);
          spans[n++] = {Stage::kRankTopK, at, ns(stage_seconds.rank)};
          traces_.record(pending.request.trace_id,
                         std::span<const obs::Span>(spans.data(), n));
          traces_.finish(pending.request.trace_id, response.latency_ms);
        }
      }
      answer(i, std::move(response));
    }
  });
}

}  // namespace pelican::serve
