#include "nn/loss.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/rng.hpp"

namespace pelican::nn {
namespace {

TEST(Softmax, RowsSumToOne) {
  Rng rng(1);
  const Matrix logits = Matrix::randn(4, 7, 3.0f, rng);
  const Matrix probs = softmax(logits);
  for (std::size_t r = 0; r < probs.rows(); ++r) {
    double total = 0.0;
    for (const float p : probs.row(r)) {
      EXPECT_GE(p, 0.0f);
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-5);
  }
}

TEST(Softmax, KnownValues) {
  Matrix logits(1, 2);
  logits(0, 0) = 0.0f;
  logits(0, 1) = std::log(3.0f);
  const Matrix probs = softmax(logits);
  EXPECT_NEAR(probs(0, 0), 0.25f, 1e-6);
  EXPECT_NEAR(probs(0, 1), 0.75f, 1e-6);
}

TEST(Softmax, StableUnderLargeLogits) {
  Matrix logits(1, 3);
  logits(0, 0) = 10000.0f;
  logits(0, 1) = 9999.0f;
  logits(0, 2) = -10000.0f;
  const Matrix probs = softmax(logits);
  EXPECT_TRUE(std::isfinite(probs(0, 0)));
  EXPECT_GT(probs(0, 0), probs(0, 1));
  EXPECT_NEAR(probs(0, 2), 0.0f, 1e-12);
}

TEST(Softmax, TemperatureSharpens) {
  Matrix logits(1, 3);
  logits(0, 0) = 1.0f;
  logits(0, 1) = 0.5f;
  logits(0, 2) = 0.0f;
  const Matrix warm = softmax(logits, 1.0);
  const Matrix cold = softmax(logits, 0.1);
  EXPECT_GT(cold(0, 0), warm(0, 0));
  EXPECT_LT(cold(0, 2), warm(0, 2));
}

TEST(Softmax, ExtremeTemperatureSaturates) {
  Matrix logits(1, 4);
  logits(0, 0) = 0.3f;
  logits(0, 1) = 0.2f;
  logits(0, 2) = 0.1f;
  logits(0, 3) = 0.0f;
  const Matrix probs = softmax(logits, 1e-5);
  EXPECT_NEAR(probs(0, 0), 1.0f, 1e-6);
  EXPECT_NEAR(probs(0, 1), 0.0f, 1e-6);
}

TEST(Softmax, TemperaturePreservesOrdering) {
  Rng rng(2);
  const Matrix logits = Matrix::randn(8, 10, 2.0f, rng);
  for (const double t : {10.0, 1.0, 0.1, 1e-3}) {
    const Matrix probs = softmax(logits, t);
    for (std::size_t r = 0; r < logits.rows(); ++r) {
      for (std::size_t a = 0; a < logits.cols(); ++a) {
        for (std::size_t b = a + 1; b < logits.cols(); ++b) {
          if (logits(r, a) > logits(r, b)) {
            EXPECT_GE(probs(r, a), probs(r, b))
                << "ordering violated at T=" << t;
          }
        }
      }
    }
  }
}

TEST(Softmax, RejectsNonPositiveTemperature) {
  const Matrix logits(1, 2);
  EXPECT_THROW((void)softmax(logits, 0.0), std::invalid_argument);
  EXPECT_THROW((void)softmax(logits, -1.0), std::invalid_argument);
}

TEST(LogSoftmax, MatchesLogOfSoftmax) {
  Rng rng(3);
  const Matrix logits = Matrix::randn(3, 5, 2.0f, rng);
  const Matrix lp = log_softmax(logits);
  const Matrix p = softmax(logits);
  for (std::size_t i = 0; i < lp.size(); ++i) {
    EXPECT_NEAR(std::exp(lp.flat()[i]), p.flat()[i], 1e-5);
  }
}

TEST(CrossEntropy, KnownValue) {
  Matrix logits(1, 2, 0.0f);  // uniform -> loss = ln 2
  const std::vector<std::int32_t> labels = {0};
  const auto result = softmax_cross_entropy(logits, labels);
  EXPECT_NEAR(result.loss, std::log(2.0), 1e-6);
}

TEST(CrossEntropy, PerfectPredictionNearZeroLoss) {
  Matrix logits(1, 3, 0.0f);
  logits(0, 1) = 50.0f;
  const std::vector<std::int32_t> labels = {1};
  EXPECT_NEAR(softmax_cross_entropy(logits, labels).loss, 0.0, 1e-6);
}

TEST(CrossEntropy, GradientIsProbMinusOneHotOverBatch) {
  Rng rng(4);
  const Matrix logits = Matrix::randn(4, 5, 1.0f, rng);
  const std::vector<std::int32_t> labels = {1, 0, 4, 2};
  const auto result = softmax_cross_entropy(logits, labels);
  const Matrix probs = softmax(logits);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      const float expected =
          (probs(r, c) -
           (static_cast<std::int32_t>(c) == labels[r] ? 1.0f : 0.0f)) /
          4.0f;
      EXPECT_NEAR(result.grad_logits(r, c), expected, 1e-5f);
    }
  }
}

TEST(CrossEntropy, GradientSumsToZeroPerRow) {
  Rng rng(5);
  const Matrix logits = Matrix::randn(3, 6, 1.0f, rng);
  const std::vector<std::int32_t> labels = {0, 3, 5};
  const auto result = softmax_cross_entropy(logits, labels);
  for (std::size_t r = 0; r < 3; ++r) {
    double total = 0.0;
    for (const float g : result.grad_logits.row(r)) total += g;
    EXPECT_NEAR(total, 0.0, 1e-6);
  }
}

TEST(CrossEntropy, RejectsBadLabels) {
  const Matrix logits(2, 3, 0.0f);
  const std::vector<std::int32_t> wrong_count = {0};
  EXPECT_THROW((void)softmax_cross_entropy(logits, wrong_count),
               std::invalid_argument);
  const std::vector<std::int32_t> out_of_range = {0, 3};
  EXPECT_THROW((void)softmax_cross_entropy(logits, out_of_range),
               std::invalid_argument);
  const std::vector<std::int32_t> negative = {0, -1};
  EXPECT_THROW((void)softmax_cross_entropy(logits, negative),
               std::invalid_argument);
}

TEST(TopK, ReturnsDescendingIndices) {
  const std::vector<float> scores = {0.1f, 0.9f, 0.5f, 0.7f};
  const auto top = topk_indices(std::span<const float>(scores), 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1u);
  EXPECT_EQ(top[1], 3u);
  EXPECT_EQ(top[2], 2u);
}

TEST(TopK, TieBreaksByLowerIndex) {
  const std::vector<float> scores = {0.5f, 0.5f, 0.5f};
  const auto top = topk_indices(std::span<const float>(scores), 2);
  EXPECT_EQ(top[0], 0u);
  EXPECT_EQ(top[1], 1u);
}

TEST(TopK, KLargerThanSizeClamps) {
  const std::vector<double> scores = {1.0, 2.0};
  const auto top = topk_indices(std::span<const double>(scores), 10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 1u);
}

// The ranking contract on both score types: higher score first, lower
// index on ties (-0 ties +0), NaN below every number, k clamped to the row.
template <typename Float>
class TopKOrder : public ::testing::Test {
 protected:
  static std::vector<std::size_t> top(const std::vector<Float>& scores,
                                      std::size_t k) {
    return topk_indices(std::span<const Float>(scores), k);
  }
};
using ScoreTypes = ::testing::Types<float, double>;
TYPED_TEST_SUITE(TopKOrder, ScoreTypes);

TYPED_TEST(TopKOrder, TiesGoToTheLowerIndex) {
  const std::vector<TypeParam> scores = {1, 3, 2, 3, 1, 3};
  EXPECT_EQ(this->top(scores, 4), (std::vector<std::size_t>{1, 3, 5, 2}));
  EXPECT_EQ(this->top(scores, 6),
            (std::vector<std::size_t>{1, 3, 5, 2, 0, 4}));
}

TYPED_TEST(TopKOrder, NegativeZeroTiesPositiveZero) {
  const TypeParam neg = -TypeParam{0};
  const std::vector<TypeParam> scores = {-1, neg, TypeParam{0}, neg};
  EXPECT_EQ(this->top(scores, 3), (std::vector<std::size_t>{1, 2, 3}));
  const std::vector<TypeParam> flipped = {TypeParam{0}, neg, -1};
  EXPECT_EQ(this->top(flipped, 2), (std::vector<std::size_t>{0, 1}));
}

TYPED_TEST(TopKOrder, KAtLeastTheRowRanksEveryScore) {
  const std::vector<TypeParam> scores = {3, 1, 2};
  EXPECT_EQ(this->top(scores, 3), (std::vector<std::size_t>{0, 2, 1}));
  EXPECT_EQ(this->top(scores, 100), (std::vector<std::size_t>{0, 2, 1}));
}

TYPED_TEST(TopKOrder, KZeroRanksNothing) {
  const std::vector<TypeParam> scores = {3, 1, 2};
  EXPECT_TRUE(this->top(scores, 0).empty());
  EXPECT_TRUE(this->top({}, 3).empty());
  std::vector<std::size_t> slots;
  EXPECT_EQ(topk_into(std::span<const TypeParam>(scores),
                      std::span<std::size_t>(slots)),
            0u);
}

TYPED_TEST(TopKOrder, NanRanksBelowEveryNumber) {
  const TypeParam nan = std::numeric_limits<TypeParam>::quiet_NaN();
  const TypeParam inf = std::numeric_limits<TypeParam>::infinity();
  const std::vector<TypeParam> scores = {nan, -inf, 1, nan, 0};
  EXPECT_EQ(this->top(scores, 5),
            (std::vector<std::size_t>{2, 4, 1, 0, 3}));
  EXPECT_EQ(this->top(scores, 2), (std::vector<std::size_t>{2, 4}));
  EXPECT_EQ(this->top(scores, 4), (std::vector<std::size_t>{2, 4, 1, 0}));
  const std::vector<TypeParam> all_nan = {nan, nan, nan};
  EXPECT_EQ(this->top(all_nan, 2), (std::vector<std::size_t>{0, 1}));
}

// 10^4 NaN-free rows drawn from a few values (with -0, +0 and both
// infinities), so most rows tie somewhere, against the comparator sort.
TYPED_TEST(TopKOrder, MatchesPartialSortOnRowsWithRepeats) {
  const TypeParam inf = std::numeric_limits<TypeParam>::infinity();
  const std::vector<TypeParam> values = {-inf, -2, -1, -TypeParam{0},
                                         TypeParam{0}, TypeParam{0.5}, 1,
                                         2, inf};
  Rng rng(2029);
  std::vector<std::size_t> slots(7);
  for (int row = 0; row < 10000; ++row) {
    std::vector<TypeParam> scores(1 + rng.below(40));
    const std::size_t spread = 2 + rng.below(values.size() - 1);
    for (TypeParam& score : scores) score = values[rng.below(spread)];
    std::vector<std::size_t> order(scores.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t k = 1; k <= 7; ++k) {
      const std::size_t m = std::min(k, scores.size());
      std::partial_sort(order.begin(),
                        order.begin() + static_cast<std::ptrdiff_t>(m),
                        order.end(), [&](std::size_t a, std::size_t b) {
                          if (scores[a] != scores[b]) {
                            return scores[a] > scores[b];
                          }
                          return a < b;
                        });
      const std::vector<std::size_t> want(
          order.begin(), order.begin() + static_cast<std::ptrdiff_t>(m));
      ASSERT_EQ(this->top(scores, k), want) << "row " << row << " k " << k;
      ASSERT_EQ(topk_into(std::span<const TypeParam>(scores),
                          std::span<std::size_t>(slots.data(), k)),
                m);
      ASSERT_TRUE(std::equal(want.begin(), want.end(), slots.begin()))
          << "row " << row << " k " << k;
    }
  }
}

TEST(TopK, RowsEqualTheirIndices) {
  Rng rng(5);
  const Matrix scores = Matrix::randn(6, 11, 1.0f, rng);
  const auto rows = topk_rows(scores, 4);
  ASSERT_EQ(rows.size(), 6u);
  for (std::size_t r = 0; r < 6; ++r) {
    EXPECT_EQ(rows[r], topk_indices(scores.row(r), 4));
  }
}

}  // namespace
}  // namespace pelican::nn
