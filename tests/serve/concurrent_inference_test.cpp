// Many threads on one deployment (nn/layer.hpp's const inference path):
// client threads call predict_top_k_batch and query on one user's model
// while a BatchScheduler drain serves that same user in several chunks on
// the pool. Every answer must equal the serial answer bit for bit, the
// per-row query budget must stay exact, and the whole run must finish.
//
// The models are hidden 128, so a 64-row forward splits its rows across the
// pool: a client's forward then waits for the pool while the drain holds
// it, and the drain's chunks split nothing (nested loops run inline). With
// a lock held across a forward, that shape deadlocks.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "models/window_dataset.hpp"
#include "serve/scheduler.hpp"
#include "serve_support.hpp"

namespace pelican::serve {
namespace {

using serve_testing::kLocations;
using serve_testing::random_window;
using serve_testing::tiny_spec;

constexpr std::size_t kHidden = 128;
constexpr std::size_t kRows = 64;
constexpr std::size_t kK = 5;
constexpr std::size_t kClients = 4;
constexpr std::size_t kRounds = 3;
constexpr std::size_t kChunks = 3;
constexpr std::uint32_t kUser = 7;

bool same_bits(const nn::Matrix& a, const nn::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

core::DeployedModel hidden128_deployment(bool int8) {
  Rng rng(2026);
  nn::SequenceClassifier model = nn::make_one_layer_lstm(
      tiny_spec().input_dim(), kHidden, kLocations, 0.0, rng);
  if (int8) model = nn::quantize_for_serving(model);
  return {std::move(model), tiny_spec(), core::PrivacyLayer(0.5),
          core::DeploymentSite::kInCloud};
}

/// Runs fn on its own thread and aborts if it has not returned after
/// `limit`: a deadlock must fail the test, not hang the suite.
template <typename Fn>
void run_with_deadline(std::chrono::seconds limit, Fn&& fn) {
  std::packaged_task<void()> task(std::forward<Fn>(fn));
  std::future<void> done = task.get_future();
  std::thread runner(std::move(task));
  if (done.wait_for(limit) != std::future_status::ready) {
    std::fprintf(stderr, "concurrent serving did not finish in %llds\n",
                 static_cast<long long>(limit.count()));
    std::abort();
  }
  runner.join();
  done.get();
}

void expect_concurrent_equals_serial(bool int8) {
  Rng rng(int8 ? 11 : 12);
  std::vector<mobility::Window> windows;
  for (std::size_t i = 0; i < kRows; ++i) {
    windows.push_back(random_window(rng));
  }
  const nn::SparseSequence sparse =
      models::encode_windows_sparse(windows, tiny_spec());
  const nn::Sequence dense = nn::to_dense(sparse);

  DeploymentRegistry registry(4);
  const DeploymentHandle handle =
      registry.deploy(kUser, hidden128_deployment(int8));
  ASSERT_EQ(handle.snapshot()->quantized(), int8);

  // Serial answers first, on the same deployment.
  std::vector<std::vector<std::uint16_t>> top_serial;
  nn::Matrix sparse_serial;
  nn::Matrix dense_serial;
  handle.with_model([&](core::DeployedModel& model) {
    top_serial = model.predict_top_k_batch(windows, kK);
    sparse_serial = model.query(sparse);
    dense_serial = model.query(dense);
  });
  ASSERT_TRUE(same_bits(sparse_serial, dense_serial));

  // One drain: kChunks chunks of one user, each a kRows-row forward.
  SchedulerConfig config;
  config.max_batch = kRows;
  BatchScheduler scheduler(registry, config);
  std::vector<PredictRequest> requests;
  for (std::size_t c = 0; c < kChunks; ++c) {
    for (const mobility::Window& window : windows) {
      requests.push_back({kUser, window, kK});
    }
  }

  const std::size_t before = handle.snapshot()->query_count();
  run_with_deadline(std::chrono::seconds(120), [&] {
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < kClients; ++t) {
      clients.emplace_back([&] {
        for (std::size_t round = 0; round < kRounds; ++round) {
          handle.with_model([&](core::DeployedModel& model) {
            EXPECT_EQ(model.predict_top_k_batch(windows, kK), top_serial);
            EXPECT_TRUE(same_bits(model.query(sparse), sparse_serial));
            EXPECT_TRUE(same_bits(model.query(dense), dense_serial));
          });
        }
      });
    }
    const std::vector<PredictResponse> responses = scheduler.serve(requests);
    for (auto& client : clients) client.join();

    ASSERT_EQ(responses.size(), requests.size());
    for (std::size_t i = 0; i < responses.size(); ++i) {
      ASSERT_TRUE(responses[i].ok) << "request " << i;
      EXPECT_EQ(responses[i].locations, top_serial[i % kRows])
          << "request " << i;
    }
  });

  // Every row served spent one unit of the user's budget, exactly.
  EXPECT_EQ(handle.snapshot()->query_count() - before,
            kClients * kRounds * 3 * kRows + kChunks * kRows);
}

TEST(ConcurrentInference, Int8DeploymentServesManyThreadsBitIdentically) {
  expect_concurrent_equals_serial(/*int8=*/true);
}

TEST(ConcurrentInference, Fp32DeploymentServesManyThreadsBitIdentically) {
  expect_concurrent_equals_serial(/*int8=*/false);
}

}  // namespace
}  // namespace pelican::serve
