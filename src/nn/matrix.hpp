// Dense row-major float matrix plus the handful of BLAS-like kernels the
// library needs (GEMM with optional transposes, bias broadcast, reductions).
//
// This is the numeric core under every model in the repository: the LSTM
// and Linear layers, the optimizer state, and the batched black-box queries
// issued by the inversion attacks. Kernels are written as cache-friendly
// loops and split across the process thread pool when large enough.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace pelican::nn {

class Matrix {
 public:
  Matrix() = default;

  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] float* data() noexcept { return data_.data(); }
  [[nodiscard]] const float* data() const noexcept { return data_.data(); }

  float& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  float operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<float> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const float> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] std::span<float> flat() noexcept { return data_; }
  [[nodiscard]] std::span<const float> flat() const noexcept { return data_; }

  void fill(float v) noexcept {
    for (auto& x : data_) x = v;
  }
  void zero() noexcept { fill(0.0f); }

  /// Resizes without preserving contents; reuses capacity when possible.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0f);
  }

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(float scalar) noexcept;

  /// Frobenius-norm squared. Accumulated in double for stability.
  [[nodiscard]] double squared_norm() const noexcept;

  bool operator==(const Matrix& other) const = default;

  /// Entries ~ N(0, stddev^2). Deterministic given rng state.
  static Matrix randn(std::size_t rows, std::size_t cols, float stddev,
                      Rng& rng);

  /// Entries ~ U(-limit, limit).
  static Matrix uniform(std::size_t rows, std::size_t cols, float limit,
                        Rng& rng);

  /// Xavier/Glorot uniform init for a (fan_out x fan_in) weight.
  static Matrix xavier(std::size_t fan_out, std::size_t fan_in, Rng& rng);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// Dense transpose; also the pack step of the GEMM kernels (a (n x k)
/// operand becomes a contiguous (k x n) panel the register tiles read).
[[nodiscard]] Matrix transposed(const Matrix& m);

/// Transpose into a caller-owned buffer (blocked for cache locality).
/// Callers that re-pack the same weight every forward (the LSTM recurrence)
/// keep one scratch Matrix alive instead of allocating per call.
void transposed(const Matrix& m, Matrix& out);

/// Row count below which matmul_bt's per-call pack cannot amortize (it uses
/// a contiguous dot kernel instead). Exported so callers that sweep one
/// weight across many products (the LSTM timestep loop) can hoist a single
/// pack above this threshold and call matmul against the packed panel.
inline constexpr std::size_t kGemmPackMinRows = 4;

// Determinism contract shared by all three products (regression-tested by
// nn_matrix_param_test, the serve-layer batch invariance and the
// sparse/dense equivalence tests): every output element accumulates its k
// terms in ascending-k order in a single chain, regardless of batch size,
// register tiling, or how the thread pool splits rows/columns. Where the
// chain starts:
//   * a fresh product (accumulate=false): at +0.0f;
//   * matmul and matmul_at with accumulate=true: at the existing value,
//     which the chain continues;
//   * matmul_bt with accumulate=true: at +0.0f, the finished chain added to
//     the existing value once.
// One kernel (nn/matrix.cpp) holds a tile of chains, several rows by a few
// vectors of columns, in registers for the whole k sweep; each lane is one
// element's chain, so the rows of a tile never share a chain. Threads only
// ever own disjoint output ranges, so results are bit-identical across
// thread counts and batch compositions. The kernels are branch-free in the
// dense path — one-hot inputs go through nn/sparse.hpp instead of a
// per-element zero test.

/// out = a * b. Shapes: (m x k)(k x n) -> (m x n). When `accumulate` is
/// true, adds into `out` instead of overwriting. `out` must not alias inputs.
void matmul(const Matrix& a, const Matrix& b, Matrix& out,
            bool accumulate = false);

/// out = a * b^T. Shapes: (m x k)(n x k)^T -> (m x n). From
/// kGemmPackMinRows rows, b is packed into a transposed panel for the
/// register-tile kernel; fewer rows run a contiguous dot kernel.
void matmul_bt(const Matrix& a, const Matrix& b, Matrix& out,
               bool accumulate = false);

/// out = a^T * b. Shapes: (k x m)^T(k x n) -> (m x n). Runs matmul's
/// kernel with a read transposed in place, so training backprop's gradient
/// products split across the pool like the forward products.
void matmul_at(const Matrix& a, const Matrix& b, Matrix& out,
               bool accumulate = false);

/// Adds `bias` (length = m.cols()) to every row of m.
void add_row_broadcast(Matrix& m, std::span<const float> bias);

/// out[c] += sum over rows of m(r, c). out must have length m.cols().
void column_sums(const Matrix& m, std::span<float> out);

/// Elementwise out = a ⊙ b (Hadamard). Shapes must match.
void hadamard(const Matrix& a, const Matrix& b, Matrix& out);

}  // namespace pelican::nn
