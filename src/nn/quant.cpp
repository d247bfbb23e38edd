#include "nn/quant.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/parallel.hpp"
#include "nn/tile.hpp"

namespace pelican::nn {

namespace {

/// Panel columns converted to fp32 at a time: a k x 64 block (32 KB at
/// k = 128) that every register tile of the call then reads.
constexpr std::size_t kPanelCols = 64;
static_assert(kPanelCols % kTileCols == 0);

// ap[j] += xv * panel[j] over one contiguous int8 column. The explicit
// vector helpers (nn/simd.hpp) lose here: SSE2 has no lane-wise int8
// sign-extend, so __builtin_convertvector at float width scalarizes with
// store/reload traffic. GCC's own vectorizer emits the efficient
// unpack + cvtdq2ps sequence once the dynamic cost model is allowed to
// look at this runtime-width loop (the default -O2 model refuses it), so
// the pragma-equivalent attribute is the fastest portable form — ~3x over
// the plain scalar loop. Per-element op chain is unchanged: the int8->fp32
// convert is exact and each j is an independent chain, so bits match the
// scalar form.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("tree-vectorize"),
               optimize("vect-cost-model=dynamic")))
#endif
void i8_axpy(float* __restrict ap, const std::int8_t* __restrict panel,
             float xv, std::size_t n) noexcept {
  for (std::size_t j = 0; j < n; ++j) {
    ap[j] += xv * static_cast<float>(panel[j]);
  }
}

// dst[j] = panel[j]: the exact int8 -> fp32 convert, vectorized by the same
// per-function vectorizer switch as i8_axpy.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("tree-vectorize"),
               optimize("vect-cost-model=dynamic")))
#endif
void i8_to_f32(float* __restrict dst, const std::int8_t* __restrict panel,
               std::size_t n) noexcept {
  for (std::size_t j = 0; j < n; ++j) dst[j] = static_cast<float>(panel[j]);
}

// The epilogue every kernel shares: each finished chain times its
// output's scale, written or added to dst once.
void store_scaled(const float* __restrict chain, const float* __restrict scales,
                  float* __restrict dst, std::size_t n, bool accumulate) {
  if (accumulate) {
    for (std::size_t j = 0; j < n; ++j) dst[j] += chain[j] * scales[j];
  } else {
    for (std::size_t j = 0; j < n; ++j) dst[j] = chain[j] * scales[j];
  }
}

}  // namespace

QuantizedMatrix QuantizedMatrix::quantize_rows(const Matrix& m) {
  QuantizedMatrix q;
  q.rows_ = m.rows();
  q.cols_ = m.cols();
  q.values_.resize(m.size());
  q.scales_.resize(m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const float* src = m.data() + r * m.cols();
    float max_abs = 0.0f;
    for (std::size_t c = 0; c < m.cols(); ++c) {
      max_abs = std::max(max_abs, std::fabs(src[c]));
    }
    const float scale = max_abs / 127.0f;
    q.scales_[r] = scale;
    for (std::size_t c = 0; c < m.cols(); ++c) {
      // All-zero row: every element quantizes to 0 exactly. Otherwise round
      // to nearest; the clamp covers the max element rounding to exactly
      // ±127 and any fp wobble around it.
      const long v = scale == 0.0f ? 0L : std::lround(src[c] / scale);
      q.values_[c * q.rows_ + r] =
          static_cast<std::int8_t>(std::min(127L, std::max(-127L, v)));
    }
  }
  return q;
}

Matrix QuantizedMatrix::dequantize() const {
  Matrix m(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    float* dst = m.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) {
      dst[c] = static_cast<float>(value(r, c)) * scales_[r];
    }
  }
  return m;
}

void QuantizedMatrix::save(BinaryWriter& writer) const {
  std::vector<std::int8_t> row_major(values_.size());
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      row_major[r * cols_ + c] = value(r, c);
    }
  }
  writer.write_u64(rows_);
  writer.write_u64(cols_);
  writer.write_i8_span(row_major);
  writer.write_f32_span(scales_);
}

QuantizedMatrix QuantizedMatrix::load(BinaryReader& reader) {
  QuantizedMatrix q;
  q.rows_ = reader.read_u64();
  q.cols_ = reader.read_u64();
  const std::vector<std::int8_t> row_major = reader.read_i8_vector();
  q.scales_ = reader.read_f32_vector();
  if (row_major.size() !=
          checked_product(q.rows_, q.cols_, "QuantizedMatrix::load") ||
      q.scales_.size() != q.rows_) {
    throw SerializeError("QuantizedMatrix::load: size mismatch");
  }
  q.values_.resize(row_major.size());
  for (std::size_t r = 0; r < q.rows_; ++r) {
    for (std::size_t c = 0; c < q.cols_; ++c) {
      q.values_[c * q.rows_ + r] = row_major[r * q.cols_ + c];
    }
  }
  return q;
}

void qgemm_rows(const float* x, std::size_t ldx, std::size_t rows,
                const QuantizedMatrix& q, float* out, std::size_t ldo,
                bool accumulate) {
  const std::size_t k = q.cols();
  const std::size_t n = q.rows();
  const float* scales = q.scales().data();
  // The converted k x kPanelCols block, one per thread so pool workers
  // never share it.
  static thread_local std::vector<float> panel;
  panel.resize(k * kPanelCols);
  for (std::size_t j0 = 0; j0 < n; j0 += kPanelCols) {
    const std::size_t width = std::min(kPanelCols, n - j0);
    const std::size_t padded = (width + kTileCols - 1) / kTileCols * kTileCols;
    for (std::size_t kk = 0; kk < k; ++kk) {
      float* dst = panel.data() + kk * kPanelCols;
      i8_to_f32(dst, q.column(kk) + j0, width);
      std::fill(dst + width, dst + padded, 0.0f);
    }
    for (std::size_t i0 = 0; i0 < rows; i0 += kTileRows) {
      const std::size_t block = std::min(kTileRows, rows - i0);
      for (std::size_t s = 0; s < padded; s += kTileCols) {
        // Each tile's chains start at +0 and then scale into out once.
        alignas(64) float chains[kTileRows * kTileCols];
        run_tile<kTileVecs, /*Fresh=*/true>(block, x + i0 * ldx, ldx, 1,
                                            panel.data() + s, kPanelCols, k,
                                            chains, kTileCols);
        const std::size_t cols = std::min(kTileCols, width - s);
        for (std::size_t i = 0; i < block; ++i) {
          store_scaled(chains + i * kTileCols, scales + j0 + s,
                       out + (i0 + i) * ldo + j0 + s, cols, accumulate);
        }
      }
    }
  }
}

void sparse_qgemm_rows(const SparseRows& x, std::size_t r0, std::size_t r1,
                       const QuantizedMatrix& q, float* out, std::size_t ldo) {
  const std::size_t n = q.rows();
  std::vector<float> chain(n);
  for (std::size_t r = r0; r < r1; ++r) {
    std::fill(chain.begin(), chain.end(), 0.0f);
    // One contiguous int8 column per hot column, the dequant-free gather.
    // Entries arrive in ascending column order (the SparseRows invariant),
    // which is the dense kernel's chain order.
    for (const auto& entry : x.row(r)) {
      i8_axpy(chain.data(), q.column(entry.col), entry.val, n);
    }
    store_scaled(chain.data(), q.scales().data(), out + (r - r0) * ldo, n,
                 /*accumulate=*/false);
  }
}

void qmatmul(const Matrix& x, const QuantizedMatrix& q, Matrix& out) {
  if (x.cols() != q.cols()) {
    throw std::invalid_argument("qmatmul: inner dimension mismatch");
  }
  const std::size_t n = q.rows();
  out.resize(x.rows(), n);
  parallel_ranges(x.rows(), row_tasks(x.rows(), q.cols() * n),
                  [&](std::size_t r0, std::size_t r1) {
                    qgemm_rows(x.data() + r0 * x.cols(), x.cols(), r1 - r0, q,
                               out.data() + r0 * n, n, /*accumulate=*/false);
                  });
}

void sparse_qmatmul(const SparseRows& x, const QuantizedMatrix& q,
                    Matrix& out) {
  if (x.cols() != q.cols()) {
    throw std::invalid_argument("sparse_qmatmul: inner dimension mismatch");
  }
  const std::size_t n = q.rows();
  out.resize(x.rows(), n);
  sparse_qgemm_rows(x, 0, x.rows(), q, out.data(), n);
}

}  // namespace pelican::nn
