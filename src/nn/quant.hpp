// Int8 weight quantization for the serving path (ISSUE 6, the "ambitious
// rung" of the ROADMAP inference ladder).
//
// QuantizedMatrix stores a weight matrix as one int8 per element plus one
// float scale per ROW: m(r, c) ≈ value(r, c) * scale(r), with
// scale = max|row| / 127 and round-to-nearest quantization. Per-row scales
// matter because the LSTM's fused 4H gate rows and a classifier head's
// class rows have very different dynamic ranges — one global scale would
// burn precision on the quiet rows. The representation is 4x smaller than
// fp32, which compounds fleet-wide: smaller checkpoints in the model store,
// fewer bytes per user on disk, and weight panels that actually fit in
// cache on the batch-1 serving path.
//
// In memory the int8 values are stored transposed, column by column, which
// is the layout the kernels read; checkpoints keep the row-major layout.
// The kernels accumulate in fp32 over the int8 weights (each int8 converts
// exactly) and multiply by the row scale once per output element. No
// dequantized fp32 weight matrix ever exists: a one-hot gather touches nnz
// contiguous int8 columns plus one scale sweep, and the dense kernel
// converts one block of columns at a time into a small per-thread buffer
// that a whole block of rows then reads, so each weight is converted once
// per block rather than once per row.
//
// Quantized inference is NOT bit-identical to fp32 inference — it is a
// documented approximation (weights move by at most scale/2 each). The
// accuracy/privacy tolerance contract lives in the quantization regression
// harness (tests/core/quant_regression_test.cpp): top-k agreement with the
// fp32 model and attack-resistance metrics must stay within stated bounds.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/serialize.hpp"
#include "nn/matrix.hpp"
#include "nn/sparse.hpp"

namespace pelican::nn {

class QuantizedMatrix {
 public:
  QuantizedMatrix() = default;

  /// Per-row symmetric quantization: scale = max|row| / 127 (0 for an
  /// all-zero row), value = round(m / scale) in [-127, 127].
  [[nodiscard]] static QuantizedMatrix quantize_rows(const Matrix& m);

  /// The fp32 matrix this quantization represents (value * row scale).
  /// For tests and tooling — the inference kernels never call this.
  [[nodiscard]] Matrix dequantize() const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }

  [[nodiscard]] std::int8_t value(std::size_t r, std::size_t c) const noexcept {
    return values_[c * rows_ + r];
  }
  [[nodiscard]] float scale(std::size_t r) const noexcept {
    return scales_[r];
  }
  [[nodiscard]] std::span<const float> scales() const noexcept {
    return scales_;
  }

  /// The rows() int8 values of column c, contiguous: every output row's
  /// weight for input column c.
  [[nodiscard]] const std::int8_t* column(std::size_t c) const noexcept {
    return values_.data() + c * rows_;
  }

  /// Serialized as [u64 rows | u64 cols | i8 span values (row-major) | f32
  /// span scales] inside the checkpoint payload, so the existing header
  /// CRC-32 (common/serialize.hpp) covers every quantized byte exactly as
  /// it covers fp32 weights.
  void save(BinaryWriter& writer) const;
  [[nodiscard]] static QuantizedMatrix load(BinaryReader& reader);

  bool operator==(const QuantizedMatrix& other) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::int8_t> values_;  // column-major, cols_ x rows_
  std::vector<float> scales_;        // length rows_
};

// Every int8 product below computes, for each output element, one fp32
// chain from +0 over the input columns in ascending order (each int8 ->
// fp32 convert is exact) and multiplies it by the output's scale once;
// `accumulate` then adds that finished value to the destination once. The
// chain of an element never depends on the other rows in the call, on how
// the rows are blocked, or on how the pool splits them, so int8 results are
// bit-identical across batch sizes and thread counts (the nn/matrix.hpp
// contract), and the sparse and dense forms agree by the ±0 argument of
// nn/sparse.hpp.

/// out(i, :) (=|+=) x(i, :) * q^T for `rows` fp32 rows of k = q.cols()
/// columns, x rows `ldx` floats apart, out rows `ldo` floats apart. Each
/// block of 64 output columns is converted to fp32 once per call and then
/// read by every 4-row register tile of the call, instead of once per row.
void qgemm_rows(const float* x, std::size_t ldx, std::size_t rows,
                const QuantizedMatrix& q, float* out, std::size_t ldo,
                bool accumulate);

/// out(i - r0, :) = x(i, :) * q^T for the rows [r0, r1) of a sparse x: nnz
/// contiguous column gathers per row, no dense product and no dequantized
/// weights. Out rows are `ldo` floats apart.
void sparse_qgemm_rows(const SparseRows& x, std::size_t r0, std::size_t r1,
                       const QuantizedMatrix& q, float* out, std::size_t ldo);

/// Matrix forms of the two kernels above: out = x * q^T, resized to
/// (x.rows() x q.rows()), dense rows split across the pool.
void qmatmul(const Matrix& x, const QuantizedMatrix& q, Matrix& out);
void sparse_qmatmul(const SparseRows& x, const QuantizedMatrix& q,
                    Matrix& out);

}  // namespace pelican::nn
