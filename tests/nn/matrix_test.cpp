#include "nn/matrix.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/rng.hpp"

namespace pelican::nn {
namespace {

Matrix make(std::size_t rows, std::size_t cols,
            std::initializer_list<float> values) {
  Matrix m(rows, cols);
  std::size_t i = 0;
  for (const float v : values) m.flat()[i++] = v;
  return m;
}

/// Reference triple-loop product for validating the optimized kernels.
Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float total = 0.0f;
      for (std::size_t k = 0; k < a.cols(); ++k) total += a(i, k) * b(k, j);
      out(i, j) = total;
    }
  }
  return out;
}

Matrix transpose(const Matrix& m) {
  Matrix out(m.cols(), m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) out(c, r) = m(r, c);
  }
  return out;
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_FALSE(m.empty());
  EXPECT_FLOAT_EQ(m(1, 2), 1.5f);
  m(0, 1) = -2.0f;
  EXPECT_FLOAT_EQ(m(0, 1), -2.0f);
  EXPECT_TRUE(Matrix().empty());
}

TEST(Matrix, RowSpanViewsData) {
  Matrix m = make(2, 2, {1, 2, 3, 4});
  const auto row = m.row(1);
  EXPECT_FLOAT_EQ(row[0], 3.0f);
  EXPECT_FLOAT_EQ(row[1], 4.0f);
  m.row(0)[1] = 9.0f;
  EXPECT_FLOAT_EQ(m(0, 1), 9.0f);
}

TEST(Matrix, ArithmeticOperators) {
  Matrix a = make(2, 2, {1, 2, 3, 4});
  const Matrix b = make(2, 2, {10, 20, 30, 40});
  a += b;
  EXPECT_FLOAT_EQ(a(1, 1), 44.0f);
  a -= b;
  EXPECT_FLOAT_EQ(a(1, 1), 4.0f);
  a *= 0.5f;
  EXPECT_FLOAT_EQ(a(0, 0), 0.5f);
}

TEST(Matrix, ArithmeticShapeMismatchThrows) {
  Matrix a(2, 2);
  const Matrix b(2, 3);
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a -= b, std::invalid_argument);
}

TEST(Matrix, SquaredNorm) {
  const Matrix m = make(1, 3, {3, 4, 0});
  EXPECT_DOUBLE_EQ(m.squared_norm(), 25.0);
}

TEST(Matrix, ResizeZeroes) {
  Matrix m = make(1, 2, {5, 6});
  m.resize(2, 2);
  EXPECT_FLOAT_EQ(m(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(m(1, 1), 0.0f);
}

TEST(Matrix, RandomFactoriesDeterministic) {
  Rng r1(3), r2(3);
  EXPECT_EQ(Matrix::randn(3, 4, 1.0f, r1), Matrix::randn(3, 4, 1.0f, r2));
  Rng r3(4), r4(4);
  EXPECT_EQ(Matrix::xavier(5, 6, r3), Matrix::xavier(5, 6, r4));
}

TEST(Matrix, XavierWithinLimit) {
  Rng rng(5);
  const Matrix m = Matrix::xavier(16, 48, rng);
  const float limit = std::sqrt(6.0f / (16 + 48));
  for (const float v : m.flat()) {
    EXPECT_LE(std::abs(v), limit);
  }
}

TEST(Matmul, MatchesNaive) {
  Rng rng(6);
  const Matrix a = Matrix::randn(7, 5, 1.0f, rng);
  const Matrix b = Matrix::randn(5, 9, 1.0f, rng);
  Matrix out;
  matmul(a, b, out);
  const Matrix expected = naive_matmul(a, b);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out.flat()[i], expected.flat()[i], 1e-4f);
  }
}

TEST(Matmul, AccumulateAddsToExisting) {
  Rng rng(7);
  const Matrix a = Matrix::randn(3, 4, 1.0f, rng);
  const Matrix b = Matrix::randn(4, 2, 1.0f, rng);
  Matrix out(3, 2, 1.0f);
  matmul(a, b, out, /*accumulate=*/true);
  const Matrix expected = naive_matmul(a, b);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out.flat()[i], expected.flat()[i] + 1.0f, 1e-4f);
  }
}

TEST(Matmul, NonAccumulateOverwrites) {
  Rng rng(8);
  const Matrix a = Matrix::randn(3, 4, 1.0f, rng);
  const Matrix b = Matrix::randn(4, 2, 1.0f, rng);
  Matrix out(3, 2, 99.0f);
  matmul(a, b, out);
  const Matrix expected = naive_matmul(a, b);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out.flat()[i], expected.flat()[i], 1e-4f);
  }
}

TEST(Matmul, InnerDimensionMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(4, 2);
  Matrix out;
  EXPECT_THROW(matmul(a, b, out), std::invalid_argument);
}

TEST(Matmul, LargeTriggersParallelPathSameResult) {
  Rng rng(9);
  const Matrix a = Matrix::randn(128, 150, 1.0f, rng);
  const Matrix b = Matrix::randn(150, 160, 1.0f, rng);
  Matrix out;
  matmul(a, b, out);  // large enough to take the parallel path
  const Matrix expected = naive_matmul(a, b);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_NEAR(out.flat()[i], expected.flat()[i], 2e-3f);
  }
}

TEST(MatmulBt, MatchesNaiveOnTranspose) {
  Rng rng(10);
  const Matrix a = Matrix::randn(6, 5, 1.0f, rng);
  const Matrix b = Matrix::randn(7, 5, 1.0f, rng);
  Matrix out;
  matmul_bt(a, b, out);
  const Matrix expected = naive_matmul(a, transpose(b));
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out.flat()[i], expected.flat()[i], 1e-4f);
  }
}

TEST(MatmulBt, AccumulateWorks) {
  Rng rng(11);
  const Matrix a = Matrix::randn(2, 3, 1.0f, rng);
  const Matrix b = Matrix::randn(4, 3, 1.0f, rng);
  Matrix out(2, 4, 0.5f);
  matmul_bt(a, b, out, /*accumulate=*/true);
  const Matrix expected = naive_matmul(a, transpose(b));
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out.flat()[i], expected.flat()[i] + 0.5f, 1e-4f);
  }
}

TEST(MatmulAt, MatchesNaiveOnTranspose) {
  Rng rng(12);
  const Matrix a = Matrix::randn(5, 6, 1.0f, rng);
  const Matrix b = Matrix::randn(5, 4, 1.0f, rng);
  Matrix out;
  matmul_at(a, b, out);
  const Matrix expected = naive_matmul(transpose(a), b);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out.flat()[i], expected.flat()[i], 1e-4f);
  }
}

TEST(MatmulAt, AccumulateUsedForGradients) {
  Rng rng(13);
  const Matrix a = Matrix::randn(3, 2, 1.0f, rng);
  const Matrix b = Matrix::randn(3, 4, 1.0f, rng);
  Matrix out(2, 4, 0.0f);
  matmul_at(a, b, out, /*accumulate=*/true);
  matmul_at(a, b, out, /*accumulate=*/true);
  const Matrix once = naive_matmul(transpose(a), b);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out.flat()[i], 2.0f * once.flat()[i], 1e-4f);
  }
}

// The determinism contract of the packed kernels (matrix.hpp): row r of a
// batched product is bit-identical to the same row computed alone, for both
// accumulate modes — this is what makes batched serving, single queries,
// and any thread split interchangeable.
TEST(MatmulBt, RowsInvariantAcrossBatchSizes) {
  Rng rng(20);
  const Matrix a = Matrix::randn(33, 24, 1.0f, rng);   // pack path
  const Matrix b = Matrix::randn(40, 24, 1.0f, rng);
  const Matrix seed_rows = Matrix::randn(33, 40, 1.0f, rng);

  Matrix fresh_batch, acc_batch = seed_rows;
  matmul_bt(a, b, fresh_batch);
  matmul_bt(a, b, acc_batch, /*accumulate=*/true);

  for (std::size_t r = 0; r < a.rows(); ++r) {
    Matrix a_row(1, a.cols());
    std::copy(a.row(r).begin(), a.row(r).end(), a_row.row(0).begin());

    Matrix fresh_single;  // m=1 dot path
    matmul_bt(a_row, b, fresh_single);
    Matrix acc_single(1, b.rows());  // m=1 dot path, accumulating
    std::copy(seed_rows.row(r).begin(), seed_rows.row(r).end(),
              acc_single.row(0).begin());
    matmul_bt(a_row, b, acc_single, /*accumulate=*/true);

    for (std::size_t j = 0; j < b.rows(); ++j) {
      ASSERT_EQ(fresh_single(0, j), fresh_batch(r, j)) << "row " << r;
      ASSERT_EQ(acc_single(0, j), acc_batch(r, j)) << "row " << r;
    }
  }
}

TEST(Matmul, BatchOneWideTakesColumnSplitSameResult) {
  Rng rng(21);
  // m=1 with k*n >= the parallel threshold: exercises the column-threaded
  // split that gives single-query forwards the pool.
  const Matrix a = Matrix::randn(1, 1024, 1.0f, rng);
  const Matrix b = Matrix::randn(1024, 2048, 1.0f, rng);
  Matrix out;
  matmul(a, b, out);
  const Matrix expected = naive_matmul(a, b);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_NEAR(out.flat()[i], expected.flat()[i], 2e-3f);
  }
}

TEST(MatmulAt, LargeOutputChunksOverRowsSameResult) {
  Rng rng(22);
  // m >= 16 and 2M+ flops: the m-chunked (training backprop) path.
  const Matrix a = Matrix::randn(64, 96, 1.0f, rng);
  const Matrix b = Matrix::randn(64, 384, 1.0f, rng);
  Matrix out;
  matmul_at(a, b, out);
  const Matrix expected = naive_matmul(transpose(a), b);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_NEAR(out.flat()[i], expected.flat()[i], 2e-3f);
  }
}

TEST(Transposed, RoundTrips) {
  Rng rng(23);
  const Matrix m = Matrix::randn(5, 9, 1.0f, rng);
  const Matrix t = transposed(m);
  ASSERT_EQ(t.rows(), 9u);
  ASSERT_EQ(t.cols(), 5u);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      EXPECT_EQ(t(c, r), m(r, c));
    }
  }
  EXPECT_EQ(transposed(t), m);
}

TEST(RowBroadcast, AddsBiasToEveryRow) {
  Matrix m = make(2, 3, {0, 0, 0, 1, 1, 1});
  const std::vector<float> bias = {1, 2, 3};
  add_row_broadcast(m, bias);
  EXPECT_FLOAT_EQ(m(0, 2), 3.0f);
  EXPECT_FLOAT_EQ(m(1, 0), 2.0f);
}

TEST(RowBroadcast, WidthMismatchThrows) {
  Matrix m(2, 3);
  const std::vector<float> bias = {1, 2};
  EXPECT_THROW(add_row_broadcast(m, bias), std::invalid_argument);
}

TEST(ColumnSums, AccumulatesIntoOutput) {
  const Matrix m = make(2, 2, {1, 2, 3, 4});
  std::vector<float> sums = {10, 20};
  column_sums(m, sums);
  EXPECT_FLOAT_EQ(sums[0], 14.0f);
  EXPECT_FLOAT_EQ(sums[1], 26.0f);
}

TEST(Hadamard, ElementwiseProduct) {
  const Matrix a = make(2, 2, {1, 2, 3, 4});
  const Matrix b = make(2, 2, {5, 6, 7, 8});
  Matrix out;
  hadamard(a, b, out);
  EXPECT_FLOAT_EQ(out(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(out(1, 1), 32.0f);
}

TEST(Hadamard, ShapeMismatchThrows) {
  const Matrix a(1, 2);
  const Matrix b(2, 1);
  Matrix out;
  EXPECT_THROW(hadamard(a, b, out), std::invalid_argument);
}

}  // namespace
}  // namespace pelican::nn
