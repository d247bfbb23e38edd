// Parallel candidate scoring (ISSUE 4 tentpole, ROADMAP "Attack
// parallelism, phase 2"): scoring across per-worker replicas must equal the
// serial reference exactly — same per-location scores for every worker
// count, same inversion accuracy, and the replicas' queries must charge the
// original deployment's budget. Workers pull batches from one counter, so a
// slow handle must answer fewer of them. Untrained weights (equivalence, not
// attack quality), so smoke tier.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "attack/inversion.hpp"
#include "serve/serve_support.hpp"

namespace pelican::core {
namespace {

using pelican::serve_testing::kLocations;
using pelican::serve_testing::random_window;
using pelican::serve_testing::tiny_deployment;

std::vector<attack::Candidate> brute_force_candidates(
    const mobility::Window& window) {
  std::vector<std::uint16_t> guesses(kLocations);
  for (std::size_t i = 0; i < guesses.size(); ++i) {
    guesses[i] = static_cast<std::uint16_t>(i);
  }
  return attack::enumerate_candidates(attack::AttackMethod::kBruteForce,
                                      attack::Adversary::kA1, window, guesses,
                                      {});
}

TEST(ParallelScoring, BitIdenticalAcrossReplicaCounts) {
  auto deployment = tiny_deployment(17, 1.0);
  Rng rng(18);
  const auto window = random_window(rng);
  const auto candidates = brute_force_candidates(window);
  const std::vector<double> prior(kLocations, 1.0 / kLocations);
  constexpr std::size_t kQueryBatch = 256;

  const auto serial =
      attack::score_candidates(deployment, candidates, window.next_location,
                               prior, kQueryBatch);

  for (const std::size_t replica_count : {std::size_t{1}, std::size_t{2},
                                          std::size_t{5}}) {
    auto replicas = attack::make_scoring_replicas(deployment, replica_count);
    ASSERT_EQ(replicas.size(), replica_count)
        << "DeployedModel must support replication";
    const auto parallel = attack::score_candidates_parallel(
        deployment, candidates, window.next_location, prior, kQueryBatch,
        replicas);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t l = 0; l < serial.size(); ++l) {
      EXPECT_EQ(parallel[l], serial[l])
          << "location " << l << " diverged with " << replica_count
          << " replicas";
    }
  }
}

TEST(ParallelScoring, ReplicasChargeTheOriginalBudget) {
  auto deployment = tiny_deployment(19, 1.0);
  Rng rng(20);
  const auto window = random_window(rng);
  const auto candidates = brute_force_candidates(window);
  const std::vector<double> prior(kLocations, 1.0 / kLocations);

  auto replicas = attack::make_scoring_replicas(deployment, 3);
  (void)attack::score_candidates_parallel(deployment, candidates,
                                          window.next_location, prior, 256,
                                          replicas);
  EXPECT_EQ(deployment.query_count(), candidates.size())
      << "every scored candidate must spend the original's budget, "
         "regardless of which replica served it";
}

/// A scoring handle that forwards every query to `model` and counts the
/// query batches it answered. A nonzero `delay` sleeps before each query,
/// as a worker on a busy core would take longer.
class CountingHandle final : public attack::BlackBoxModel {
 public:
  CountingHandle(attack::BlackBoxModel& model,
                 std::chrono::milliseconds delay)
      : model_(&model), delay_(delay) {}

  [[nodiscard]] nn::Matrix query(const nn::Sequence& input) override {
    count_and_wait();
    return model_->query(input);
  }
  [[nodiscard]] nn::Matrix query(const nn::SparseSequence& input) override {
    count_and_wait();
    return model_->query(input);
  }
  [[nodiscard]] std::size_t num_classes() const override {
    return model_->num_classes();
  }
  [[nodiscard]] const mobility::EncodingSpec& spec() const override {
    return model_->spec();
  }

  [[nodiscard]] std::size_t batches() const { return batches_.load(); }

 private:
  void count_and_wait() {
    ++batches_;
    std::this_thread::sleep_for(delay_);
  }

  attack::BlackBoxModel* model_;
  std::chrono::milliseconds delay_;
  std::atomic<std::size_t> batches_{0};
};

TEST(ParallelScoring, SlowWorkerTakesFewerBatches) {
  auto deployment = tiny_deployment(23, 1.0);
  Rng rng(24);
  const auto window = random_window(rng);
  const auto candidates = brute_force_candidates(window);
  const std::vector<double> prior(kLocations, 1.0 / kLocations);
  constexpr std::size_t kQueryBatch = 256;
  const std::size_t batches =
      (candidates.size() + kQueryBatch - 1) / kQueryBatch;

  const auto serial =
      attack::score_candidates(deployment, candidates, window.next_location,
                               prior, kQueryBatch);
  const std::size_t spent_before = deployment.query_count();

  // Worker 0 queries through `first`, workers 1-3 through the replicas;
  // the last replica answers every query a few milliseconds late.
  CountingHandle first(deployment, std::chrono::milliseconds(0));
  std::vector<std::unique_ptr<attack::BlackBoxModel>> replicas;
  replicas.push_back(std::make_unique<CountingHandle>(
      deployment, std::chrono::milliseconds(0)));
  replicas.push_back(std::make_unique<CountingHandle>(
      deployment, std::chrono::milliseconds(0)));
  replicas.push_back(std::make_unique<CountingHandle>(
      deployment, std::chrono::milliseconds(4)));
  const auto parallel = attack::score_candidates_parallel(
      first, candidates, window.next_location, prior, kQueryBatch, replicas);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t l = 0; l < serial.size(); ++l) {
    EXPECT_EQ(parallel[l], serial[l]) << "location " << l;
  }
  EXPECT_EQ(deployment.query_count() - spent_before, candidates.size())
      << "every candidate is queried exactly once";

  std::size_t answered = first.batches();
  for (const auto& replica : replicas) {
    answered += static_cast<const CountingHandle&>(*replica).batches();
  }
  EXPECT_EQ(answered, batches);
  const std::size_t slow =
      static_cast<const CountingHandle&>(*replicas.back()).batches();
  EXPECT_LT(slow, batches / (replicas.size() + 1))
      << "the slow worker answered " << slow << " of " << batches
      << " batches, no fewer than an even split gives it";
}

TEST(ParallelScoring, RunInversionMatchesSerialReference) {
  Rng rng(21);
  std::vector<mobility::Window> targets;
  for (int i = 0; i < 3; ++i) targets.push_back(random_window(rng));
  const std::vector<double> prior(kLocations, 1.0 / kLocations);

  attack::InversionConfig config;
  config.method = attack::AttackMethod::kBruteForce;
  config.adversary = attack::Adversary::kA1;
  config.ks = {1, 3};

  auto serial_model = tiny_deployment(22, 1.0);
  config.parallel_scoring = false;
  const auto serial =
      attack::run_inversion(serial_model, targets, targets, prior, config);

  auto parallel_model = tiny_deployment(22, 1.0);
  config.parallel_scoring = true;
  const auto parallel =
      attack::run_inversion(parallel_model, targets, targets, prior, config);

  EXPECT_EQ(serial.topk_accuracy, parallel.topk_accuracy);
  EXPECT_EQ(serial.model_queries, parallel.model_queries);
  EXPECT_EQ(serial.windows_attacked, parallel.windows_attacked);
  EXPECT_EQ(serial_model.query_count(), parallel_model.query_count());
}

}  // namespace
}  // namespace pelican::core
