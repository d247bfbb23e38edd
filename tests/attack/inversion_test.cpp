#include "attack/inversion.hpp"

#include <gtest/gtest.h>

#include "fake_blackbox.hpp"
#include "support/world.hpp"

namespace pelican::attack {
namespace {

using pelican::testing::trained_world;
using testing::PlantedBlackBox;

mobility::EncodingSpec small_spec() {
  return {mobility::SpatialLevel::kBuilding, 8};
}

std::vector<mobility::Window> planted_windows(std::uint16_t secret_location,
                                              std::uint16_t next,
                                              std::size_t n) {
  std::vector<mobility::Window> windows(n);
  for (std::size_t i = 0; i < n; ++i) {
    windows[i].steps[0] = {10, 6, 1, 3};
    windows[i].steps[1] = {12, static_cast<std::uint8_t>(i % 24), 1,
                           secret_location};
    windows[i].next_location = next;
  }
  return windows;
}

InversionConfig base_config() {
  InversionConfig config;
  config.adversary = Adversary::kA1;
  config.method = AttackMethod::kTimeBased;
  config.ks = {1, 3};
  return config;
}

TEST(Inversion, RecoversPlantedSecretLocation) {
  PlantedBlackBox model(small_spec(), /*sensitive_step=*/1,
                        /*secret_location=*/6, /*secret_output=*/2);
  const auto targets = planted_windows(6, 2, 10);
  const std::vector<double> uniform(8, 1.0 / 8.0);

  auto config = base_config();
  config.loi_threshold = 1e-6;  // keep all 8 locations in the guess set
  const auto result =
      run_inversion(model, targets, targets, uniform, config);

  ASSERT_EQ(result.windows_attacked, 10u);
  EXPECT_DOUBLE_EQ(result.at_k(1), 1.0)
      << "the planted location maximizes confidence x prior and must win";
  EXPECT_DOUBLE_EQ(result.at_k(3), 1.0);
}

TEST(Inversion, PriorBreaksConfidenceTies) {
  // A model whose confidence is flat: only the prior can rank guesses.
  PlantedBlackBox model(small_spec(), 1, /*secret_location=*/6,
                        /*secret_output=*/2, /*hot=*/0.3f, /*cold=*/0.3f);
  const auto targets = planted_windows(4, 2, 6);  // true location is 4
  std::vector<double> prior(8, 0.01);
  prior[4] = 0.93;  // adversary's prior points at the truth

  auto config = base_config();
  config.loi_threshold = 1e-9;
  const auto result =
      run_inversion(model, targets, targets, prior, config);
  EXPECT_DOUBLE_EQ(result.at_k(1), 1.0);
}

TEST(Inversion, BruteForceMatchesTimeBasedOnPlantedModel) {
  PlantedBlackBox model(small_spec(), 1, 5, 3);
  const auto targets = planted_windows(5, 3, 4);
  const std::vector<double> uniform(8, 1.0 / 8.0);

  auto tb = base_config();
  tb.loi_threshold = 1e-9;
  const auto time_based =
      run_inversion(model, targets, targets, uniform, tb);

  auto bf = base_config();
  bf.method = AttackMethod::kBruteForce;
  const auto brute = run_inversion(model, targets, targets, uniform, bf);

  EXPECT_DOUBLE_EQ(time_based.at_k(1), brute.at_k(1));
  EXPECT_GT(brute.model_queries, time_based.model_queries * 50)
      << "brute force must enumerate a much larger space";
}

TEST(Inversion, MaxWindowsLimitsWork) {
  PlantedBlackBox model(small_spec(), 1, 5, 3);
  const auto targets = planted_windows(5, 3, 20);
  const std::vector<double> uniform(8, 1.0 / 8.0);
  auto config = base_config();
  config.max_windows = 7;
  const auto result =
      run_inversion(model, targets, targets, uniform, config);
  EXPECT_EQ(result.windows_attacked, 7u);
}

TEST(Inversion, ResultAccessorsAndValidation) {
  PlantedBlackBox model(small_spec(), 1, 5, 3);
  const auto targets = planted_windows(5, 3, 2);
  const std::vector<double> uniform(8, 1.0 / 8.0);
  const auto result =
      run_inversion(model, targets, targets, uniform, base_config());
  EXPECT_NO_THROW((void)result.at_k(1));
  EXPECT_THROW((void)result.at_k(99), std::invalid_argument);
  EXPECT_GT(result.attack_seconds, 0.0);
  EXPECT_GT(result.model_queries, 0u);

  const std::vector<double> bad_prior(3, 1.0 / 3.0);
  EXPECT_THROW((void)run_inversion(model, targets, targets, bad_prior,
                                   base_config()),
               std::invalid_argument);

  auto no_ks = base_config();
  no_ks.ks.clear();
  EXPECT_THROW((void)run_inversion(model, targets, targets, uniform, no_ks),
               std::invalid_argument);

  // A zero batch is rejected before the parallel scorer divides by it.
  for (const bool parallel : {false, true}) {
    auto no_batch = base_config();
    no_batch.query_batch = 0;
    no_batch.parallel_scoring = parallel;
    EXPECT_THROW(
        (void)run_inversion(model, targets, targets, uniform, no_batch),
        std::invalid_argument)
        << "parallel_scoring=" << parallel;
  }
}

TEST(Inversion, ScoreCandidatesExposesPerLocationScores) {
  PlantedBlackBox model(small_spec(), 1, 6, 2);
  const auto targets = planted_windows(6, 2, 1);
  const std::vector<double> uniform(8, 1.0 / 8.0);
  std::vector<std::uint16_t> guesses = {0, 1, 2, 3, 4, 5, 6, 7};
  const auto candidates =
      enumerate_candidates(AttackMethod::kTimeBased, Adversary::kA1,
                           targets[0], guesses, uniform);
  const auto scores =
      score_candidates(model, candidates, targets[0].next_location, uniform,
                       /*query_batch=*/16);
  ASSERT_EQ(scores.size(), 8u);
  for (std::size_t l = 0; l < 8; ++l) {
    if (l != 6) { EXPECT_GT(scores[6], scores[l]); }
  }
}

TEST(Inversion, AdversaryA2RecoversOlderStep) {
  PlantedBlackBox model(small_spec(), /*sensitive_step=*/0,
                        /*secret_location=*/3, /*secret_output=*/1);
  std::vector<mobility::Window> targets(6);
  for (auto& w : targets) {
    w.steps[0] = {10, 6, 1, 3};  // secret older step
    w.steps[1] = {12, 4, 1, 5};
    w.next_location = 1;
  }
  const std::vector<double> uniform(8, 1.0 / 8.0);
  auto config = base_config();
  config.adversary = Adversary::kA2;
  config.loi_threshold = 1e-9;
  const auto result =
      run_inversion(model, targets, targets, uniform, config);
  EXPECT_DOUBLE_EQ(result.at_k(1), 1.0);
}

TEST(Inversion, AdversaryA3RecoversWithNoKnownFeatures) {
  PlantedBlackBox model(small_spec(), /*sensitive_step=*/1,
                        /*secret_location=*/2, /*secret_output=*/7);
  const auto targets = planted_windows(2, 7, 5);
  std::vector<double> prior(8, 1.0 / 8.0);
  auto config = base_config();
  config.adversary = Adversary::kA3;
  config.loi_threshold = 1e-9;
  const auto result =
      run_inversion(model, targets, targets, prior, config);
  EXPECT_DOUBLE_EQ(result.at_k(1), 1.0);
}

TEST(Inversion, EndToEndOnTrainedPersonalModel) {
  // Attack the real personalized model from the shared world: top-3 attack
  // accuracy must beat blind guessing by a clear margin (C3's core claim).
  const auto& world = trained_world();
  auto& model = const_cast<nn::SequenceClassifier&>(world.personal_model);
  PlainBlackBox box(model, world.spec);

  const auto prior = make_prior(PriorKind::kTrue, world.user0_train, box,
                                world.user0_test);
  InversionConfig config;
  config.adversary = Adversary::kA1;
  config.method = AttackMethod::kTimeBased;
  config.ks = {1, 3};
  config.max_windows = 40;
  const auto result =
      run_inversion(box, world.user0_train, world.user0_test, prior, config);

  const double chance_top3 =
      3.0 / static_cast<double>(world.spec.num_locations);
  EXPECT_GT(result.at_k(3), chance_top3 + 0.15)
      << "inversion attack failed to leak historical locations";
}

}  // namespace
}  // namespace pelican::attack
