// Property sweep: all three GEMM variants must return the bits of the
// reference triple loop, which sums each element's k terms in ascending-k
// order in one chain (the nn/matrix.hpp contract), across a grid of shapes:
// degenerate (1-sized) ones, every vector tail at 4, 8 and 16 lanes
// (n = 1..33), every register-tile row tail against every column tail
// (m = 1..9), the brute-force attack's layer-2 input product and head, and
// parallel-path (large) ones. A fresh product's chain starts at +0.0f; an
// accumulating matmul or matmul_at continues the existing value's chain,
// and an accumulating matmul_bt adds its +0.0f chain to it once.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "nn/matrix.hpp"

namespace pelican::nn {
namespace {

using Shape = std::tuple<int, int, int>;  // m, k, n

/// The ascending-k chain of a * b, each element's starting at init(i, j).
Matrix naive(const Matrix& a, const Matrix& b, Matrix init) {
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float total = init(i, j);
      for (std::size_t kk = 0; kk < a.cols(); ++kk) {
        total += a(i, kk) * b(kk, j);
      }
      init(i, j) = total;
    }
  }
  return init;
}

Matrix naive(const Matrix& a, const Matrix& b) {
  return naive(a, b, Matrix(a.rows(), b.cols()));
}

void expect_same_bits(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got.flat()[i]),
              std::bit_cast<std::uint32_t>(want.flat()[i]))
        << "index " << i << ": " << got.flat()[i] << " vs "
        << want.flat()[i];
  }
}

Matrix transpose(const Matrix& m) {
  Matrix out(m.cols(), m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) out(c, r) = m(r, c);
  }
  return out;
}

class MatmulShapeSweep : public ::testing::TestWithParam<Shape> {
 protected:
  void SetUp() override {
    const auto [m, k, n] = GetParam();
    Rng rng(static_cast<std::uint64_t>(m * 10007 + k * 101 + n));
    a_ = Matrix::randn(static_cast<std::size_t>(m),
                       static_cast<std::size_t>(k), 1.0f, rng);
    b_ = Matrix::randn(static_cast<std::size_t>(k),
                       static_cast<std::size_t>(n), 1.0f, rng);
    expected_ = naive(a_, b_);
    init_ = Matrix::randn(static_cast<std::size_t>(m),
                          static_cast<std::size_t>(n), 1.0f, rng);
    // Accumulating onto an existing value continues its chain, so that
    // check alone allows rounding; the tolerance grows with k.
    tol_ = 1e-5f * static_cast<float>(k) + 1e-4f;
  }

  Matrix a_, b_, expected_, init_;
  float tol_ = 1e-4f;
};

TEST_P(MatmulShapeSweep, PlainMatchesReference) {
  Matrix out;
  matmul(a_, b_, out);
  expect_same_bits(out, expected_);
}

TEST_P(MatmulShapeSweep, TransposedBMatchesReference) {
  const Matrix bt = transpose(b_);
  Matrix out;
  matmul_bt(a_, bt, out);
  expect_same_bits(out, expected_);
}

TEST_P(MatmulShapeSweep, TransposedAMatchesReference) {
  const Matrix at = transpose(a_);
  Matrix out;
  matmul_at(at, b_, out);
  expect_same_bits(out, expected_);
}

TEST_P(MatmulShapeSweep, AccumulateContinuesTheChain) {
  Matrix out = init_;
  matmul(a_, b_, out, /*accumulate=*/true);
  expect_same_bits(out, naive(a_, b_, init_));
}

TEST_P(MatmulShapeSweep, TransposedAAccumulateContinuesTheChain) {
  const Matrix at = transpose(a_);
  Matrix out = init_;
  matmul_at(at, b_, out, /*accumulate=*/true);
  expect_same_bits(out, naive(a_, b_, init_));
}

TEST_P(MatmulShapeSweep, TransposedBAccumulateAddsTheChainOnce) {
  const Matrix bt = transpose(b_);
  Matrix out = init_;
  matmul_bt(a_, bt, out, /*accumulate=*/true);
  Matrix want = init_;
  want += expected_;
  expect_same_bits(out, want);
}

TEST_P(MatmulShapeSweep, AccumulateEqualsTwoApplications) {
  Matrix out;
  matmul(a_, b_, out);
  matmul(a_, b_, out, /*accumulate=*/true);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_NEAR(out.flat()[i], 2.0f * expected_.flat()[i], 2.0f * tol_);
  }
}

std::vector<Shape> shapes() {
  std::vector<Shape> out{Shape{1, 1, 1},    Shape{1, 7, 3},
                         Shape{5, 1, 4},    Shape{3, 4, 1},
                         Shape{8, 16, 8},   Shape{17, 13, 29},
                         Shape{64, 96, 80}, Shape{130, 150, 128},
                         Shape{1024, 24, 96}, Shape{1024, 24, 12}};
  for (int n = 1; n <= 33; ++n) out.emplace_back(5, 7, n);
  for (int m = 1; m <= 9; ++m) {
    for (const int n : {12, 16, 17, 24, 33, 96}) out.emplace_back(m, 13, n);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulShapeSweep, ::testing::ValuesIn(shapes()),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return "m" + std::to_string(std::get<0>(info.param)) + "k" +
             std::to_string(std::get<1>(info.param)) + "n" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace pelican::nn
