#include "serve/scheduler.hpp"

#include <gtest/gtest.h>

#include <future>
#include <thread>
#include <vector>

#include "serve_support.hpp"

namespace pelican::serve {
namespace {

using pelican::serve_testing::random_window;
using pelican::serve_testing::tiny_deployment;

class SchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_ = std::make_unique<DeploymentRegistry>(4);
    for (std::uint32_t user = 0; user < 5; ++user) {
      registry_->deploy(user, tiny_deployment(user));
    }
  }

  /// Ground truth: direct single queries against the registry.
  std::vector<std::uint16_t> direct(const PredictRequest& request) {
    return registry_->with_model(
        request.user_id, [&](core::DeployedModel& model) {
          return model.predict_top_k(request.window, request.k);
        });
  }

  std::unique_ptr<DeploymentRegistry> registry_;
};

TEST_F(SchedulerTest, RejectsZeroMaxBatch) {
  EXPECT_THROW(BatchScheduler(*registry_, {.max_batch = 0}),
               std::invalid_argument);
}

TEST_F(SchedulerTest, SyncServeAnswersInRequestOrder) {
  Rng rng(42);
  std::vector<PredictRequest> requests;
  for (std::size_t i = 0; i < 40; ++i) {
    requests.push_back({static_cast<std::uint32_t>(rng.below(5)),
                        random_window(rng), 3});
  }

  BatchScheduler scheduler(*registry_, {.max_batch = 8});
  const auto responses = scheduler.serve(requests);

  ASSERT_EQ(responses.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(responses[i].user_id, requests[i].user_id);
    EXPECT_TRUE(responses[i].ok);
    EXPECT_EQ(responses[i].locations, direct(requests[i]))
        << "coalesced response " << i
        << " must equal the direct single query";
    EXPECT_GE(responses[i].latency_ms, 0.0);
  }

  const auto snap = scheduler.stats().snapshot();
  EXPECT_EQ(snap.requests_served, requests.size());
  EXPECT_GT(snap.mean_batch_size, 1.0)
      << "40 requests over 5 users must coalesce";
  EXPECT_GE(snap.p99_latency_ms, snap.p50_latency_ms);
}

TEST_F(SchedulerTest, UnknownUserYieldsNotOkInsteadOfThrowing) {
  Rng rng(7);
  const std::vector<PredictRequest> requests = {
      {0, random_window(rng), 3},
      {999, random_window(rng), 3},  // not deployed
      {1, random_window(rng), 3},
  };
  BatchScheduler scheduler(*registry_, {});
  const auto responses = scheduler.serve(requests);

  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].ok);
  EXPECT_FALSE(responses[1].ok);
  EXPECT_TRUE(responses[1].locations.empty());
  EXPECT_TRUE(responses[2].ok);

  const auto snap = scheduler.stats().snapshot();
  EXPECT_EQ(snap.requests_served, 2u);
  EXPECT_EQ(snap.requests_rejected, 1u);
}

TEST_F(SchedulerTest, RejectedBatchAnswersNotOkAndEngineSurvives) {
  // A window outside the model's encoding domain makes the deployment throw
  // during the batched forward; the chunk must come back ok = false (not
  // crash the drainer or hang the futures), and the engine must keep
  // serving afterwards.
  Rng rng(13);
  mobility::Window poisoned = random_window(rng);
  poisoned.steps[0].location = 5000;  // >> tiny_spec().num_locations

  BatchScheduler scheduler(*registry_, {});
  const std::vector<PredictRequest> bad = {{0, poisoned, 3}};
  const auto rejected = scheduler.serve(bad);
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_FALSE(rejected[0].ok);

  auto future = scheduler.submit({0, random_window(rng), 3});
  EXPECT_EQ(future.wait_for(std::chrono::seconds(5)),
            std::future_status::ready)
      << "the drain thread must survive a rejected batch";
  EXPECT_TRUE(future.get().ok);
  EXPECT_EQ(scheduler.stats().snapshot().requests_rejected, 1u);
}

TEST_F(SchedulerTest, RespectsPerRequestK) {
  Rng rng(11);
  const std::vector<PredictRequest> requests = {
      {0, random_window(rng), 1},
      {0, random_window(rng), 5},
  };
  BatchScheduler scheduler(*registry_, {});
  const auto responses = scheduler.serve(requests);
  EXPECT_EQ(responses[0].locations.size(), 1u);
  EXPECT_EQ(responses[1].locations.size(), 5u);
}

TEST_F(SchedulerTest, AsyncSubmitResolvesAllFutures) {
  Rng rng(99);
  std::vector<PredictRequest> requests;
  for (std::size_t i = 0; i < 30; ++i) {
    requests.push_back({static_cast<std::uint32_t>(rng.below(5)),
                        random_window(rng), 3});
  }

  BatchScheduler scheduler(
      *registry_,
      {.max_batch = 8, .max_delay = std::chrono::microseconds(500)});
  std::vector<std::future<PredictResponse>> futures;
  futures.reserve(requests.size());
  for (const auto& request : requests) {
    futures.push_back(scheduler.submit(request));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const PredictResponse response = futures[i].get();
    EXPECT_TRUE(response.ok);
    EXPECT_EQ(response.locations, direct(requests[i]));
  }
}

TEST_F(SchedulerTest, MaxDelayDrainsPartialBatches) {
  // Far fewer requests than max_batch: only the delay policy can drain.
  Rng rng(5);
  BatchScheduler scheduler(
      *registry_,
      {.max_batch = 64, .max_delay = std::chrono::microseconds(200)});
  auto future = scheduler.submit({2, random_window(rng), 3});
  EXPECT_EQ(future.wait_for(std::chrono::seconds(5)),
            std::future_status::ready)
      << "a lone request must not wait for a full batch";
  EXPECT_TRUE(future.get().ok);
}

TEST_F(SchedulerTest, ConcurrentSubmittersAllGetAnswers) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 50;
  BatchScheduler scheduler(
      *registry_,
      {.max_batch = 16, .max_delay = std::chrono::microseconds(500)});

  std::vector<std::thread> threads;
  std::vector<std::size_t> answered(kThreads, 0);
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      std::vector<std::future<PredictResponse>> futures;
      futures.reserve(kPerThread);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        futures.push_back(scheduler.submit(
            {static_cast<std::uint32_t>(rng.below(5)), random_window(rng),
             3}));
      }
      for (auto& future : futures) {
        if (future.get().ok) ++answered[t];
      }
    });
  }
  for (auto& thread : threads) thread.join();

  std::size_t total = 0;
  for (const std::size_t a : answered) total += a;
  EXPECT_EQ(total, kThreads * kPerThread);
  EXPECT_EQ(scheduler.stats().snapshot().requests_served,
            kThreads * kPerThread);
}

TEST_F(SchedulerTest, DestructorAnswersQueuedRequests) {
  Rng rng(3);
  std::future<PredictResponse> future;
  {
    BatchScheduler scheduler(
        *registry_,
        {.max_batch = 64, .max_delay = std::chrono::seconds(10)});
    future = scheduler.submit({0, random_window(rng), 3});
    // Scheduler destroyed while the request is (very likely) still queued —
    // shutdown must flush, not abandon, the queue.
  }
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_TRUE(future.get().ok);
}

TEST_F(SchedulerTest, StatsHistogramAccountsEveryBatch) {
  Rng rng(21);
  std::vector<PredictRequest> requests;
  for (std::size_t i = 0; i < 23; ++i) {
    requests.push_back({0, random_window(rng), 3});
  }
  BatchScheduler scheduler(*registry_, {.max_batch = 8});
  (void)scheduler.serve(requests);

  const auto snap = scheduler.stats().snapshot();
  std::size_t histogram_total = 0;
  for (const std::size_t count : snap.batch_size_log2_histogram) {
    histogram_total += count;
  }
  EXPECT_EQ(histogram_total, snap.batches_run);
  EXPECT_EQ(snap.batches_run, 3u) << "23 same-user requests at max_batch 8";
  EXPECT_EQ(snap.max_batch_size, 8u);
}

TEST_F(SchedulerTest, MixedServeAnswersEveryRequestInPlace) {
  // Mixed users and ks, one request whose deadline has expired by the time
  // the call groups it, and one undeployed user: every response lands at
  // its request's index with the fields a lone request would get, and
  // submit() answers the same requests with the same responses.
  Rng rng(31);
  std::vector<PredictRequest> requests;
  for (std::size_t i = 0; i < 24; ++i) {
    requests.push_back({static_cast<std::uint32_t>(rng.below(5)),
                        random_window(rng), 1 + 2 * rng.below(3)});
  }
  constexpr std::size_t kExpired = 5;
  constexpr std::size_t kUndeployed = 17;
  requests[kExpired].deadline_ms = 1e-9;
  requests[kUndeployed].user_id = 999;

  const auto check = [&](const std::vector<PredictResponse>& responses) {
    ASSERT_EQ(responses.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const PredictResponse& response = responses[i];
      EXPECT_EQ(response.user_id, requests[i].user_id) << i;
      EXPECT_EQ(response.model_version, 0u) << i;
      EXPECT_GE(response.latency_ms, 0.0) << i;
      if (i == kExpired || i == kUndeployed) {
        EXPECT_FALSE(response.ok) << i;
        EXPECT_EQ(response.rejected, i == kExpired) << i;
        EXPECT_TRUE(response.locations.empty()) << i;
      } else {
        EXPECT_TRUE(response.ok) << i;
        EXPECT_FALSE(response.rejected) << i;
        EXPECT_EQ(response.locations, direct(requests[i])) << i;
      }
    }
  };

  BatchScheduler sync(*registry_, {.max_batch = 4});
  check(sync.serve(requests));
  auto snap = sync.stats().snapshot();
  EXPECT_EQ(snap.requests_served, requests.size() - 2);
  EXPECT_EQ(snap.requests_rejected, 1u);
  EXPECT_EQ(snap.requests_shed, 1u);
  EXPECT_EQ(sync.metrics().counter("requests_deadline_shed_total").value(),
            1u);

  BatchScheduler async(*registry_, {.max_batch = 4});
  std::vector<std::future<PredictResponse>> futures;
  for (const PredictRequest& request : requests) {
    futures.push_back(async.submit(request));
  }
  std::vector<PredictResponse> answered;
  for (auto& future : futures) answered.push_back(future.get());
  check(answered);
  snap = async.stats().snapshot();
  EXPECT_EQ(snap.requests_served, requests.size() - 2);
  EXPECT_EQ(snap.requests_rejected, 1u);
  EXPECT_EQ(snap.requests_shed, 1u);
}

}  // namespace
}  // namespace pelican::serve
