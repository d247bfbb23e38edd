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

/// Fewest output columns a batch-1 product splits across the pool.
constexpr std::size_t kParallelMinCols = 1024;

/// The register tile: kTileRows rows x kTileVecs vectors of output chains
/// stay in registers for a whole ascending-k sweep (8 of SSE2's and AVX2's
/// 16 vector registers), so each panel vector is loaded once per k for all
/// the tile's rows and each output is loaded and stored once.
constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileVecs = 2;
constexpr std::size_t kTileCols = kTileVecs * kSimdWidth;

void check(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

/// Continues the chains of the R x (V vectors) tile at c (row stride ldc):
/// c(r, j) += a(r, kk) * panel(kk, j) for kk = 0..k-1 in ascending order,
/// one chain per element held in a register lane, the rows' chains never
/// mixed. a(r, kk) is a[r * a_row + kk * a_k], so matmul_at reads its
/// first operand transposed in place. Lanes perform the scalar chain's
/// multiply and add, so bits equal it (the matrix.hpp contract).
template <std::size_t R, std::size_t V>
void register_tile(const float* __restrict a, std::size_t a_row,
                   std::size_t a_k, const float* __restrict panel,
                   std::size_t ldp, std::size_t k, float* __restrict c,
                   std::size_t ldc) noexcept {
  simd::vfloat acc[R][V];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (std::size_t v = 0; v < V; ++v) {
      acc[r][v] = simd::load(c + r * ldc + v * kSimdWidth);
    }
  }
  for (std::size_t kk = 0; kk < k; ++kk) {
    simd::vfloat p[V];
#pragma GCC unroll 4
    for (std::size_t v = 0; v < V; ++v) {
      p[v] = simd::load(panel + kk * ldp + v * kSimdWidth);
    }
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      // Vector times scalar: the compiler splats av with one broadcast.
      const float av = a[r * a_row + kk * a_k];
#pragma GCC unroll 4
      for (std::size_t v = 0; v < V; ++v) acc[r][v] += p[v] * av;
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (std::size_t v = 0; v < V; ++v) {
      simd::store(c + r * ldc + v * kSimdWidth, acc[r][v]);
    }
  }
}

/// register_tile<rows, V> for a row count up to kTileRows (the row tail
/// runs a smaller tile).
template <std::size_t V>
void run_tile(std::size_t rows, const float* a, std::size_t a_row,
              std::size_t a_k, const float* panel, std::size_t ldp,
              std::size_t k, float* c, std::size_t ldc) noexcept {
  switch (rows) {
    case 1: register_tile<1, V>(a, a_row, a_k, panel, ldp, k, c, ldc); break;
    case 2: register_tile<2, V>(a, a_row, a_k, panel, ldp, k, c, ldc); break;
    case 3: register_tile<3, V>(a, a_row, a_k, panel, ldp, k, c, ldc); break;
    default: register_tile<kTileRows, V>(a, a_row, a_k, panel, ldp, k, c, ldc);
  }
}

/// The shared kernel: out[i0..i1) x [j0..j1) continues each element's
/// chain over a * panel, where `panel` is a (k x n) row-major operand (row
/// stride ldp) and a(i, kk) is a[i * a_row + kk * a_k]. Full strips of
/// kTileCols columns run on the panel and out in place; the ragged last
/// strip runs on zero-padded copies of its panel columns and outputs, so
/// no lane reads past the panel and none stores outside [j0, j1).
void gemm_panel(const float* a, std::size_t a_row, std::size_t a_k,
                const float* panel, std::size_t ldp, float* out,
                std::size_t ldo, std::size_t k, std::size_t i0,
                std::size_t i1, std::size_t j0, std::size_t j1) {
  static_assert(kTileVecs == 2, "the ragged strip runs 1 or 2 vectors");
  const std::size_t tail = (j1 - j0) % kTileCols;
  const std::size_t jt = j1 - tail;
  // One per thread, so pool workers never share it.
  static thread_local std::vector<float> tail_panel;
  if (tail > 0) {
    tail_panel.resize(k * kTileCols);
    for (std::size_t kk = 0; kk < k; ++kk) {
      float* dst = tail_panel.data() + kk * kTileCols;
      std::copy_n(panel + kk * ldp + jt, tail, dst);
      std::fill(dst + tail, dst + kTileCols, 0.0f);
    }
  }
  alignas(64) float chains[kTileRows * kTileCols] = {};
  for (std::size_t i = i0; i < i1; i += kTileRows) {
    const std::size_t rows = std::min(kTileRows, i1 - i);
    const float* a_tile = a + i * a_row;
    float* out_tile = out + i * ldo;
    for (std::size_t j = j0; j < jt; j += kTileCols) {
      run_tile<kTileVecs>(rows, a_tile, a_row, a_k, panel + j, ldp, k,
                          out_tile + j, ldo);
    }
    if (tail == 0) continue;
    for (std::size_t r = 0; r < rows; ++r) {
      std::copy_n(out_tile + r * ldo + jt, tail, chains + r * kTileCols);
    }
    if (tail <= kSimdWidth) {
      run_tile<1>(rows, a_tile, a_row, a_k, tail_panel.data(), kTileCols, k,
                  chains, kTileCols);
    } else {
      run_tile<kTileVecs>(rows, a_tile, a_row, a_k, tail_panel.data(),
                          kTileCols, k, chains, kTileCols);
    }
    for (std::size_t r = 0; r < rows; ++r) {
      std::copy_n(chains + r * kTileCols, tail, out_tile + r * ldo + jt);
    }
  }
}

/// Runs the panel kernel over the whole output, threading over rows when
/// the batch allows it and over columns otherwise — the batch-1 forwards
/// that used to be entirely serial split their single wide output row.
void gemm_dispatch(const float* a, std::size_t a_row, std::size_t a_k,
                   const float* panel, std::size_t ldp, float* out,
                   std::size_t ldo, std::size_t m, std::size_t k,
                   std::size_t n) {
  const bool parallel = m * k * n >= kParallelFlopThreshold;
  if (parallel && m > 1) {
    parallel_ranges(m, 8, [&](std::size_t i0, std::size_t i1) {
      gemm_panel(a, a_row, a_k, panel, ldp, out, ldo, k, i0, i1, 0, n);
    });
  } else if (parallel && n >= kParallelMinCols) {
    parallel_ranges(n, 8, [&](std::size_t j0, std::size_t j1) {
      gemm_panel(a, a_row, a_k, panel, ldp, out, ldo, k, 0, m, j0, j1);
    });
  } else {
    gemm_panel(a, a_row, a_k, panel, ldp, out, ldo, k, 0, m, 0, n);
  }
}

/// out(i, j) += the chain of a(i, :) . b(j, :) from +0 in ascending k,
/// for every row of a and the columns [j0, j1): matmul_bt's kernel below
/// kGemmPackMinRows rows, where both operands' rows are contiguous and no
/// pack is paid. Its loops start on a 32-byte boundary: at x86-64-v3 an
/// inner loop that crosses one ran 10-20% slower with the same
/// instructions.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("align-loops=32")))
#endif
void dot_rows(const float* __restrict a, const float* __restrict b,
              float* __restrict out, std::size_t m, std::size_t k,
              std::size_t n, std::size_t j0, std::size_t j1) noexcept {
  for (std::size_t i = 0; i < m; ++i) {
    const float* __restrict a_row = a + i * k;
    float* __restrict out_row = out + i * n;
    for (std::size_t j = j0; j < j1; ++j) {
      const float* __restrict b_row = b + j * k;
      float dot = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) dot += a_row[kk] * b_row[kk];
      out_row[j] += dot;
    }
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
  // b is already the (k x n) panel layout the kernel reads.
  gemm_dispatch(a.data(), k, 1, b.data(), n, out.data(), n, m, k, n);
}

void matmul_bt(const Matrix& a, const Matrix& b, Matrix& out,
               bool accumulate) {
  check(a.cols() == b.cols(), "matmul_bt: inner dimension mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();

  // Accumulate semantics: the product is computed in its own chain (every
  // element from +0.0f, ascending k) and added to the existing value ONCE —
  // so an element's bits never depend on whether its row was part of a
  // fresh or an accumulating call, and few-row calls can use the contiguous
  // dot kernel (both operands' rows are contiguous; no pack needed).
  const bool add = accumulate && out.rows() == m && out.cols() == n;
  if (!add) out.resize(m, n);

  if (m < kGemmPackMinRows) {
    // Few rows: the plain dot kernel beats paying for a pack. It adds its
    // chain from +0 to out once, which for a fresh product is the +0 out
    // starts as: the packed kernel's bits either way. Batch-1 still splits
    // across the pool, over output columns.
    const auto dot_cols = [&](std::size_t j0, std::size_t j1) {
      dot_rows(a.data(), b.data(), out.data(), m, k, n, j0, j1);
    };
    if (m * k * n >= kParallelFlopThreshold && n >= 16) {
      parallel_ranges(n, 8, dot_cols);
    } else {
      dot_cols(0, n);
    }
    return;
  }
  if (add) {
    // The product chain is materialized in a scratch matrix and added in
    // one pass (an O(m*n) epilogue against the O(m*k*n) product).
    // thread_local so repeated calls reuse the buffer instead of
    // allocating; distinct pool workers get distinct buffers, and the
    // inner non-accumulate call never touches it recursively.
    static thread_local Matrix scratch;
    matmul_bt(a, b, scratch, /*accumulate=*/false);
    out += scratch;
    return;
  }

  // General case: pack b into a contiguous (k x n) panel once, then run the
  // same kernel as matmul. The pack is O(k*n) against an O(m*k*n) product
  // and turns every panel read into unit-stride traffic.
  const Matrix bt = transposed(b);
  gemm_dispatch(a.data(), k, 1, bt.data(), n, out.data(), n, m, k, n);
}

void matmul_at(const Matrix& a, const Matrix& b, Matrix& out,
               bool accumulate) {
  check(a.rows() == b.rows(), "matmul_at: inner dimension mismatch");
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  if (!accumulate || out.rows() != m || out.cols() != n) {
    out.resize(m, n);
  }
  // b is the (k x n) panel; a is read transposed in place, a(i, kk) being
  // a[kk * m + i]. Training backprop's gradient products (m is 4*hidden or
  // num_classes) split over output rows like the forward products.
  gemm_dispatch(a.data(), 1, m, b.data(), n, out.data(), n, m, k, n);
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
