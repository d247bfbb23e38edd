#include "nn/matrix.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "nn/parallel.hpp"
#include "nn/simd.hpp"

namespace pelican::nn {

namespace {

/// Below this many multiply-adds the parallel split costs more than it saves.
constexpr std::size_t kParallelFlopThreshold = 1u << 21;


/// Output rows processed per block of the axpy kernel: the block's out rows
/// stay hot while each panel row is streamed once per block.
constexpr std::size_t kRowBlock = 8;

/// Column tile of the axpy kernel (floats); keeps the active out tile and
/// panel segment L1-resident when n is large.
constexpr std::size_t kColBlock = 512;

void check(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

/// The shared inner kernel: out[i0..i1) x [j0..j1) += a * panel, where
/// `panel` is a contiguous (k x n) row-major operand. Branch-free and
/// restrict-qualified so the j loop auto-vectorizes; every out element
/// accumulates its k terms in ascending order in one chain, which is the
/// determinism contract of this file (see matrix.hpp).
void gemm_panel(const float* __restrict a, std::size_t lda,
                const float* __restrict panel, std::size_t ldp,
                float* __restrict out, std::size_t ldo, std::size_t k,
                std::size_t i0, std::size_t i1, std::size_t j0,
                std::size_t j1) {
  for (std::size_t jb = j0; jb < j1; jb += kColBlock) {
    const std::size_t je = std::min(j1, jb + kColBlock);
    const std::size_t width = je - jb;
    for (std::size_t ib = i0; ib < i1; ib += kRowBlock) {
      const std::size_t ie = std::min(i1, ib + kRowBlock);
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float* __restrict panel_row = panel + kk * ldp + jb;
        for (std::size_t i = ib; i < ie; ++i) {
          const float av = a[i * lda + kk];
          float* __restrict out_row = out + i * ldo + jb;
          // Explicit vectors (nn/simd.hpp): the default -O2 cost model
          // leaves this runtime-width loop scalar. Lanes are independent
          // output elements performing the same multiply-add as the scalar
          // tail, so bits are unchanged.
          std::size_t j = 0;
#if PELICAN_SIMD_KERNELS
          const simd::vfloat avv = simd::broadcast(av);
          for (; j + kSimdWidth <= width; j += kSimdWidth) {
            simd::store(out_row + j,
                        simd::load(out_row + j) + avv * simd::load(panel_row + j));
          }
#endif
          for (; j < width; ++j) {
            out_row[j] += av * panel_row[j];
          }
        }
      }
    }
  }
}

/// Runs the panel kernel over the whole output, threading over rows when
/// the batch allows it and over columns otherwise — the batch-1 forwards
/// that used to be entirely serial split their single wide output row.
void gemm_dispatch(const float* a, std::size_t lda, const float* panel,
                   std::size_t ldp, float* out, std::size_t ldo,
                   std::size_t m, std::size_t k, std::size_t n) {
  const bool parallel = m * k * n >= kParallelFlopThreshold;
  if (parallel && m > 1) {
    parallel_ranges(m, 8, [&](std::size_t i0, std::size_t i1) {
      gemm_panel(a, lda, panel, ldp, out, ldo, k, i0, i1, 0, n);
    });
  } else if (parallel && n >= 2 * kColBlock) {
    parallel_ranges(n, 8, [&](std::size_t j0, std::size_t j1) {
      gemm_panel(a, lda, panel, ldp, out, ldo, k, 0, m, j0, j1);
    });
  } else {
    gemm_panel(a, lda, panel, ldp, out, ldo, k, 0, m, 0, n);
  }
}

}  // namespace

Matrix& Matrix::operator+=(const Matrix& other) {
  check(rows_ == other.rows_ && cols_ == other.cols_, "Matrix+=: shape");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  check(rows_ == other.rows_ && cols_ == other.cols_, "Matrix-=: shape");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(float scalar) noexcept {
  for (auto& x : data_) x *= scalar;
  return *this;
}

double Matrix::squared_norm() const noexcept {
  double total = 0.0;
  for (const float x : data_) total += static_cast<double>(x) * x;
  return total;
}

Matrix Matrix::randn(std::size_t rows, std::size_t cols, float stddev,
                     Rng& rng) {
  Matrix m(rows, cols);
  for (auto& x : m.data_) x = static_cast<float>(rng.normal(0.0, stddev));
  return m;
}

Matrix Matrix::uniform(std::size_t rows, std::size_t cols, float limit,
                       Rng& rng) {
  Matrix m(rows, cols);
  for (auto& x : m.data_) x = static_cast<float>(rng.uniform(-limit, limit));
  return m;
}

Matrix Matrix::xavier(std::size_t fan_out, std::size_t fan_in, Rng& rng) {
  const float limit = std::sqrt(
      6.0f / static_cast<float>(fan_in + fan_out));
  return uniform(fan_out, fan_in, limit, rng);
}

Matrix transposed(const Matrix& m) {
  Matrix out;
  transposed(m, out);
  return out;
}

void transposed(const Matrix& m, Matrix& out) {
  out.resize(m.cols(), m.rows());
  const float* __restrict src = m.data();
  float* __restrict dst = out.data();
  const std::size_t rows = m.rows(), cols = m.cols();
  // Blocked so both the row-major reads and the column-major writes stay
  // within one cache-resident tile; a naive loop strides the destination
  // across the whole matrix per source row, which is most of the cost of
  // packing a weight per forward call.
  // Inner loop walks the DESTINATION contiguously: for tall-skinny weights
  // (4H x H) the destination row stride is a power-of-two KB, and striding
  // the writes by it maps every store in a tile onto a couple of L1 sets
  // (4K aliasing) — ~20x slower than the read-strided orientation.
  constexpr std::size_t kTile = 32;
  for (std::size_t rb = 0; rb < rows; rb += kTile) {
    const std::size_t re = std::min(rows, rb + kTile);
    for (std::size_t cb = 0; cb < cols; cb += kTile) {
      const std::size_t ce = std::min(cols, cb + kTile);
      for (std::size_t c = cb; c < ce; ++c) {
        float* __restrict drow = dst + c * rows;
        for (std::size_t r = rb; r < re; ++r) {
          drow[r] = src[r * cols + c];
        }
      }
    }
  }
}

void matmul(const Matrix& a, const Matrix& b, Matrix& out, bool accumulate) {
  check(a.cols() == b.rows(), "matmul: inner dimension mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (!accumulate || out.rows() != m || out.cols() != n) {
    out.resize(m, n);
  }
  // b is already the (k x n) panel layout the axpy kernel streams.
  gemm_dispatch(a.data(), k, b.data(), n, out.data(), n, m, k, n);
}

void matmul_bt(const Matrix& a, const Matrix& b, Matrix& out,
               bool accumulate) {
  check(a.cols() == b.cols(), "matmul_bt: inner dimension mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();

  // Accumulate semantics: the product is computed in its own chain (every
  // element from +0.0f, ascending k) and added to the existing value ONCE —
  // so an element's bits never depend on whether its row was part of a
  // fresh or an accumulating call, and batch-1 calls can use the contiguous
  // dot kernel (both operands' rows are contiguous; no pack needed).
  if (accumulate && out.rows() == m && out.cols() == n) {
    if (m == 1) {
      const float* __restrict a_row = a.data();
      const float* __restrict bp = b.data();
      float* __restrict out_row = out.data();
      for (std::size_t j = 0; j < n; ++j) {
        const float* __restrict b_row = bp + j * k;
        float dot = 0.0f;
        for (std::size_t kk = 0; kk < k; ++kk) dot += a_row[kk] * b_row[kk];
        out_row[j] += dot;
      }
      return;
    }
    // The product chain is materialized in a scratch matrix and added in
    // one pass (an O(m*n) epilogue against the O(m*k*n) product).
    // thread_local so the per-timestep LSTM recurrence reuses the buffer
    // instead of allocating; distinct pool workers get distinct buffers,
    // and the inner non-accumulate call never touches it recursively.
    static thread_local Matrix scratch;
    matmul_bt(a, b, scratch, /*accumulate=*/false);
    out += scratch;
    return;
  }
  out.resize(m, n);

  if (m < kGemmPackMinRows) {
    // Few rows: the plain dot kernel beats paying for a pack. Its single
    // chain from 0.0f is bit-identical to the packed axpy chain below.
    // Batch-1 still splits across the pool, over output columns.
    const float* __restrict ap = a.data();
    const float* __restrict bp = b.data();
    float* __restrict op = out.data();
    auto dot_cols = [&](std::size_t j0, std::size_t j1) {
      for (std::size_t i = 0; i < m; ++i) {
        const float* __restrict a_row = ap + i * k;
        float* __restrict out_row = op + i * n;
        for (std::size_t j = j0; j < j1; ++j) {
          const float* __restrict b_row = bp + j * k;
          float dot = 0.0f;
          for (std::size_t kk = 0; kk < k; ++kk) dot += a_row[kk] * b_row[kk];
          out_row[j] += dot;
        }
      }
    };
    if (m * k * n >= kParallelFlopThreshold && n >= 16) {
      parallel_ranges(n, 8, dot_cols);
    } else {
      dot_cols(0, n);
    }
    return;
  }

  // General case: pack b into a contiguous (k x n) panel once, then run the
  // same axpy kernel as matmul. The pack is O(k*n) against an O(m*k*n)
  // product and turns every inner loop into unit-stride traffic.
  const Matrix bt = transposed(b);
  gemm_dispatch(a.data(), k, bt.data(), n, out.data(), n, m, k, n);
}

void matmul_at(const Matrix& a, const Matrix& b, Matrix& out,
               bool accumulate) {
  check(a.rows() == b.rows(), "matmul_at: inner dimension mismatch");
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  if (!accumulate || out.rows() != m || out.cols() != n) {
    out.resize(m, n);
  }
  const float* __restrict ap = a.data();
  const float* __restrict bp = b.data();
  float* __restrict op = out.data();
  // Rank-1 update per shared row. Chunking over m (output rows) keeps each
  // out element's accumulation in ascending-k order within its chunk while
  // giving training backprop — where m is 4*hidden or num_classes — the
  // pool that the forward products already use.
  auto update_rows = [&](std::size_t i0, std::size_t i1) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float* __restrict a_row = ap + kk * m;
      const float* __restrict b_row = bp + kk * n;
      for (std::size_t i = i0; i < i1; ++i) {
        const float av = a_row[i];
        float* __restrict out_row = op + i * n;
        for (std::size_t j = 0; j < n; ++j) out_row[j] += av * b_row[j];
      }
    }
  };
  if (m * k * n >= kParallelFlopThreshold && m >= 16) {
    parallel_ranges(m, 8, update_rows);
  } else {
    update_rows(0, m);
  }
}

void add_row_broadcast(Matrix& m, std::span<const float> bias) {
  check(bias.size() == m.cols(), "add_row_broadcast: width mismatch");
  for (std::size_t r = 0; r < m.rows(); ++r) {
    float* row = m.data() + r * m.cols();
    for (std::size_t c = 0; c < m.cols(); ++c) row[c] += bias[c];
  }
}

void column_sums(const Matrix& m, std::span<float> out) {
  check(out.size() == m.cols(), "column_sums: width mismatch");
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const float* row = m.data() + r * m.cols();
    for (std::size_t c = 0; c < m.cols(); ++c) out[c] += row[c];
  }
}

void hadamard(const Matrix& a, const Matrix& b, Matrix& out) {
  check(a.rows() == b.rows() && a.cols() == b.cols(), "hadamard: shape");
  out.resize(a.rows(), a.cols());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (std::size_t i = 0; i < a.size(); ++i) po[i] = pa[i] * pb[i];
}

}  // namespace pelican::nn
