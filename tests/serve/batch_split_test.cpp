// DeployedModel::predict_top_k_batch splits its rows once into contiguous
// ranges across the pool (nn/parallel.hpp row_tasks), and each range
// encodes, infers and ranks its own rows on the thread that runs it. These
// tests pin what the split must not move: every row's ids equal the row
// served alone, the query budget rises by exactly the batch size, and a bad
// window in any range fails the whole call and charges nothing.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "nn/parallel.hpp"
#include "serve/scheduler.hpp"
#include "serve_support.hpp"

namespace pelican::serve {
namespace {

// Big enough that the rule splits a batch of 16 or more rows, small enough
// for the sanitizer lanes.
constexpr std::size_t kLocations = 40;
constexpr std::size_t kHidden = 32;
constexpr std::size_t kK = 3;

mobility::EncodingSpec split_spec() {
  return {mobility::SpatialLevel::kBuilding, kLocations};
}

nn::SequenceClassifier split_model(bool int8) {
  Rng rng(4242);
  nn::SequenceClassifier model = nn::make_one_layer_lstm(
      split_spec().input_dim(), kHidden, kLocations, /*dropout_rate=*/0.0,
      rng);
  return int8 ? nn::quantize_for_serving(model) : std::move(model);
}

core::DeployedModel split_deployment(bool int8) {
  return {split_model(int8), split_spec(), core::PrivacyLayer(1.0),
          core::DeploymentSite::kInCloud};
}

std::vector<mobility::Window> split_windows(std::size_t count,
                                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<mobility::Window> windows(count);
  for (mobility::Window& window : windows) {
    window = serve_testing::random_window(rng);
    for (auto& step : window.steps) {
      step.location = static_cast<std::uint16_t>(rng.below(kLocations));
    }
  }
  return windows;
}

std::size_t tasks_for(std::size_t rows, bool int8) {
  return nn::row_tasks(rows,
                       split_model(int8).macs_per_row(mobility::kWindowSteps));
}

class BatchSplitTest : public ::testing::TestWithParam<bool> {};

TEST_P(BatchSplitTest, RuleSplitsLargeBatchesOnly) {
  const bool int8 = GetParam();
  for (std::size_t rows = 1; rows < 16; ++rows) {
    EXPECT_EQ(tasks_for(rows, int8), 1u) << rows << " rows";
  }
  for (const std::size_t rows : {16, 17, 31, 32, 33, 64, 257}) {
    EXPECT_GT(tasks_for(rows, int8), 1u) << rows << " rows";
  }
  EXPECT_EQ(tasks_for(257, int8), nn::kMaxRowTasks);
}

TEST_P(BatchSplitTest, EveryRowEqualsTheRowServedAlone) {
  const bool int8 = GetParam();
  const core::DeployedModel batched = split_deployment(int8);
  const core::DeployedModel single = split_deployment(int8);
  for (const std::size_t rows :
       {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 257}) {
    const auto windows = split_windows(rows, 100 + rows);
    const std::size_t before = batched.query_count();
    core::PredictStageSeconds stages;
    const auto top = batched.predict_top_k_batch(windows, kK, &stages);
    EXPECT_EQ(batched.query_count() - before, rows)
        << "each row is charged exactly once";
    EXPECT_GT(stages.forward, 0.0) << "one range's split is reported";
    ASSERT_EQ(top.size(), rows);
    for (std::size_t r = 0; r < rows; ++r) {
      ASSERT_EQ(top[r], single.predict_top_k(windows[r], kK))
          << "row " << r << " of " << rows << (int8 ? " (int8)" : " (fp32)");
    }
  }
}

TEST_P(BatchSplitTest, BadWindowInLastRangeFailsTheCallAndChargesNothing) {
  const bool int8 = GetParam();
  constexpr std::size_t kRows = 64;
  ASSERT_GT(tasks_for(kRows, int8), 1u);
  auto windows = split_windows(kRows, 7);
  windows.back().steps[1].location = 5000;  // outside the encoding domain

  const core::DeployedModel model = split_deployment(int8);
  EXPECT_THROW((void)model.predict_top_k_batch(windows, kK),
               std::out_of_range);
  EXPECT_EQ(model.query_count(), 0u);

  DeploymentRegistry registry(2);
  registry.deploy(0, split_deployment(int8));
  BatchScheduler scheduler(registry, {.max_batch = kRows});
  std::vector<PredictRequest> requests;
  for (const mobility::Window& window : windows) {
    requests.push_back({0, window, kK});
  }
  const auto responses = scheduler.serve(requests);
  ASSERT_EQ(responses.size(), kRows);
  for (const PredictResponse& response : responses) {
    EXPECT_FALSE(response.ok);
    EXPECT_FALSE(response.rejected);
    EXPECT_TRUE(response.locations.empty());
  }
  EXPECT_EQ(scheduler.stats().snapshot().requests_rejected, kRows);
  EXPECT_EQ(registry.with_model(
                0, [](core::DeployedModel& m) { return m.query_count(); }),
            0u);
}

INSTANTIATE_TEST_SUITE_P(Formats, BatchSplitTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "int8" : "fp32";
                         });

}  // namespace
}  // namespace pelican::serve
