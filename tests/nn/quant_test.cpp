#include "nn/quant.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/lstm.hpp"
#include "nn/model.hpp"
#include "nn/quant_lstm.hpp"
#include "nn/sparse.hpp"

namespace pelican::nn {
namespace {

bool same_bits(float a, float b) {
  std::uint32_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

TEST(QuantizedMatrix, RoundTripErrorBoundedByHalfScale) {
  Rng rng(1);
  const Matrix m = Matrix::randn(7, 13, 2.0f, rng);
  const QuantizedMatrix q = QuantizedMatrix::quantize_rows(m);
  ASSERT_EQ(q.rows(), 7u);
  ASSERT_EQ(q.cols(), 13u);
  const Matrix back = q.dequantize();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    // Round-to-nearest: each weight moves by at most half a quantization
    // step. scale = max|row| / 127 per row.
    const float tol = q.scale(r) * 0.5f + 1e-7f;
    for (std::size_t c = 0; c < m.cols(); ++c) {
      EXPECT_NEAR(back(r, c), m(r, c), tol) << r << "," << c;
      EXPECT_GE(q.value(r, c), -127);
      EXPECT_LE(q.value(r, c), 127);
    }
  }
}

TEST(QuantizedMatrix, ZeroRowGetsZeroScale) {
  Matrix m(3, 4, 0.0f);
  m(0, 1) = 2.54f;  // rows 1,2 stay all-zero
  const QuantizedMatrix q = QuantizedMatrix::quantize_rows(m);
  EXPECT_GT(q.scale(0), 0.0f);
  EXPECT_EQ(q.scale(1), 0.0f);
  EXPECT_EQ(q.scale(2), 0.0f);
  const Matrix back = q.dequantize();
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(back(1, c), 0.0f);
    EXPECT_EQ(back(2, c), 0.0f);
  }
}

TEST(QuantizedMatrix, SerializeRoundTripUnderCrc) {
  Rng rng(2);
  const QuantizedMatrix q =
      QuantizedMatrix::quantize_rows(Matrix::randn(5, 9, 1.0f, rng));
  const auto path = std::filesystem::temp_directory_path() / "qmat_test.bin";
  {
    BinaryWriter writer(path, 1);
    q.save(writer);
    writer.finish();
  }
  {
    BinaryReader reader(path, 1);
    EXPECT_EQ(QuantizedMatrix::load(reader), q);
  }
  // Flip one stored int8 payload byte: the header CRC must reject the file.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(30, std::ios::beg);  // inside the values span
    char byte = 0;
    f.seekg(30, std::ios::beg);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    f.seekp(30, std::ios::beg);
    f.write(&byte, 1);
  }
  EXPECT_THROW(BinaryReader(path, 1), SerializeError);
  std::filesystem::remove(path);
}

TEST(QuantizedMatrix, LoadRejectsDimensionsWhoseProductOverflows) {
  // rows * cols = 2 * 2^63 wraps to 0 in 64 bits, which an unchecked size
  // check matches against an empty values vector; the transpose loop then
  // walks 2^63 columns. A CRC-valid file like that must fail typed.
  const auto path =
      std::filesystem::temp_directory_path() / "qmat_overflow_test.bin";
  {
    BinaryWriter writer(path, 1);
    writer.write_u64(2);
    writer.write_u64(std::uint64_t{1} << 63);
    writer.write_i8_span({});
    const float scales[] = {1.0f, 1.0f};
    writer.write_f32_span(scales);
    writer.finish();
  }
  BinaryReader reader(path, 1);
  EXPECT_THROW((void)QuantizedMatrix::load(reader), SerializeError);
  std::filesystem::remove(path);
}

TEST(QuantKernels, DenseMatchesManualDequantizedProduct) {
  Rng rng(3);
  const Matrix x = Matrix::randn(4, 6, 1.0f, rng);
  const QuantizedMatrix q =
      QuantizedMatrix::quantize_rows(Matrix::randn(5, 6, 1.0f, rng));
  Matrix out;
  qmatmul(x, q, out);
  ASSERT_EQ(out.rows(), 4u);
  ASSERT_EQ(out.cols(), 5u);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t j = 0; j < 5; ++j) {
      // Reference: same ascending-k fp32 chain over exact int8 converts.
      float acc = 0.0f;
      for (std::size_t k = 0; k < 6; ++k) {
        acc += x(r, k) * static_cast<float>(q.value(j, k));
      }
      EXPECT_TRUE(same_bits(out(r, j), acc * q.scale(j))) << r << "," << j;
    }
  }
}

TEST(QuantKernels, SparseBitIdenticalToDense) {
  Rng rng(4);
  const QuantizedMatrix q =
      QuantizedMatrix::quantize_rows(Matrix::randn(12, 9, 1.0f, rng));
  SparseRows x(3, 9);
  x.add(0, 2, 1.0f);
  x.add(1, 0, 0.5f);
  x.add(1, 8, 1.0f);
  // row 2 left empty
  Matrix dense_out, sparse_out;
  qmatmul(x.to_dense(), q, dense_out);
  sparse_qmatmul(x, q, sparse_out);
  ASSERT_EQ(sparse_out.rows(), dense_out.rows());
  ASSERT_EQ(sparse_out.cols(), dense_out.cols());
  for (std::size_t i = 0; i < dense_out.size(); ++i) {
    EXPECT_TRUE(same_bits(dense_out.flat()[i], sparse_out.flat()[i])) << i;
  }
}

// x(r, :) * q^T for one output element as the documented chain: ascending
// columns from +0 over exact int8 converts, then the row scale once.
float reference_product(const float* x, const QuantizedMatrix& q,
                        std::size_t j) {
  float acc = 0.0f;
  for (std::size_t k = 0; k < q.cols(); ++k) {
    acc += x[k] * static_cast<float>(q.value(j, k));
  }
  return acc * q.scale(j);
}

TEST(QuantKernels, BlockedDenseMatchesReferenceChainAtTailShapes) {
  // Row counts around the 4-row register tile,
  // output counts around the register strip and the 64-column converted
  // block, for both the fresh and the accumulating epilogue.
  for (const std::size_t rows : {1u, 3u, 4u, 5u, 9u}) {
    for (const std::size_t n : {5u, 8u, 63u, 64u, 65u, 130u}) {
      Rng rng(rows * 1000 + n);
      const Matrix x = Matrix::randn(rows, 19, 1.0f, rng);
      const QuantizedMatrix q =
          QuantizedMatrix::quantize_rows(Matrix::randn(n, 19, 1.0f, rng));
      Matrix fresh;
      qmatmul(x, q, fresh);
      Matrix summed = Matrix::randn(rows, n, 1.0f, rng);
      const Matrix before = summed;
      qgemm_rows(x.data(), x.cols(), rows, q, summed.data(), n,
                 /*accumulate=*/true);
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t j = 0; j < n; ++j) {
          const float v = reference_product(x.data() + r * x.cols(), q, j);
          ASSERT_TRUE(same_bits(fresh(r, j), v))
              << rows << "x" << n << " at " << r << "," << j;
          ASSERT_TRUE(same_bits(summed(r, j), before(r, j) + v))
              << rows << "x" << n << " at " << r << "," << j;
        }
      }
    }
  }
}

TEST(QuantizedMatrix, CheckpointKeepsRowMajorValues) {
  // Memory holds the values column by column; the checkpoint layout stays
  // [rows | cols | row-major values | scales].
  Rng rng(12);
  const QuantizedMatrix q =
      QuantizedMatrix::quantize_rows(Matrix::randn(6, 11, 1.0f, rng));
  const auto path = std::filesystem::temp_directory_path() / "qmat_layout.bin";
  {
    BinaryWriter writer(path, 1);
    q.save(writer);
    writer.finish();
  }
  BinaryReader reader(path, 1);
  EXPECT_EQ(reader.read_u64(), 6u);
  EXPECT_EQ(reader.read_u64(), 11u);
  const std::vector<std::int8_t> values = reader.read_i8_vector();
  ASSERT_EQ(values.size(), 66u);
  for (std::size_t r = 0; r < 6; ++r) {
    for (std::size_t c = 0; c < 11; ++c) {
      EXPECT_EQ(values[r * 11 + c], q.value(r, c)) << r << "," << c;
      EXPECT_EQ(q.column(c)[r], q.value(r, c)) << r << "," << c;
    }
  }
  const std::vector<float> scales = reader.read_f32_vector();
  EXPECT_TRUE(std::equal(scales.begin(), scales.end(), q.scales().begin(),
                         q.scales().end()));
  std::filesystem::remove(path);
}

SparseSequence one_hot(std::size_t steps, std::size_t batch, std::size_t dim,
                       Rng& rng) {
  SparseSequence x(steps, SparseRows(batch, dim));
  for (auto& step : x) {
    for (std::size_t r = 0; r < batch; ++r) step.add(r, rng.below(dim), 1.0f);
  }
  return x;
}

QuantizedLstm quantize(const Lstm& lstm) {
  return QuantizedLstm(QuantizedMatrix::quantize_rows(lstm.w_ih()),
                       QuantizedMatrix::quantize_rows(lstm.w_hh()),
                       lstm.bias());
}

TEST(QuantizedLstmTest, SparseDenseBitIdenticalAtSimdTailSizes) {
  for (const std::size_t hidden : {std::size_t{17}, std::size_t{33}}) {
    Rng rng(200 + hidden);
    Lstm lstm(13, hidden, rng);
    QuantizedLstm qlstm = quantize(lstm);
    const SparseSequence sparse = one_hot(3, 4, 13, rng);
    const Sequence dense = to_dense(sparse);
    const Sequence out_d = qlstm.forward(dense, false);
    const Sequence out_s = qlstm.forward_sparse(sparse, false);
    ASSERT_EQ(out_d.size(), out_s.size());
    for (std::size_t t = 0; t < out_d.size(); ++t) {
      for (std::size_t i = 0; i < out_d[t].size(); ++i) {
        EXPECT_TRUE(same_bits(out_d[t].flat()[i], out_s[t].flat()[i]))
            << "h=" << hidden << " t=" << t << " i=" << i;
      }
    }
  }
}

TEST(QuantizedLstmTest, ForwardMatchesReferenceRecurrence) {
  // The row-split, blocked forward against a plain per-row recurrence over
  // the reference chain, including the full step-0 product of the zero
  // state that the layer replaces by its exact value.
  Rng rng(13);
  Lstm lstm(9, 12, rng);
  const QuantizedMatrix w_ih = QuantizedMatrix::quantize_rows(lstm.w_ih());
  const QuantizedMatrix w_hh = QuantizedMatrix::quantize_rows(lstm.w_hh());
  QuantizedLstm qlstm(w_ih, w_hh, lstm.bias());
  const std::size_t batch = 5, hidden = 12;
  const Sequence input(3, Matrix::randn(batch, 9, 1.0f, rng));
  const Sequence out = qlstm.forward(input, false);

  Matrix h(batch, hidden, 0.0f), c(batch, hidden, 0.0f);
  for (std::size_t t = 0; t < input.size(); ++t) {
    Matrix h_next(batch, hidden), c_next(batch, hidden), tanh_c(batch, hidden);
    for (std::size_t r = 0; r < batch; ++r) {
      std::vector<float> gates(4 * hidden);
      for (std::size_t j = 0; j < gates.size(); ++j) {
        gates[j] = reference_product(input[t].data() + r * 9, w_ih, j);
        gates[j] += reference_product(h.data() + r * hidden, w_hh, j);
      }
      lstm_gate_pass(gates.data(), lstm.bias().data(), c.data() + r * hidden,
                     c_next.data() + r * hidden, tanh_c.data() + r * hidden,
                     h_next.data() + r * hidden, hidden);
    }
    h = h_next;
    c = c_next;
    for (std::size_t i = 0; i < h.size(); ++i) {
      ASSERT_TRUE(same_bits(out[t].flat()[i], h.flat()[i]))
          << "t=" << t << " i=" << i;
    }
  }
}

TEST(QuantizedModel, RowsAreIndependentOfBatchAndPoolSplit) {
  // 37 rows cross both the pool split (row_tasks cuts them into
  // uneven ranges) and the 4-row register tiles; every row must equal the
  // same window served alone, in the LSTM and in the head.
  Rng rng(14);
  auto qmodel = quantize_for_serving(make_one_layer_lstm(40, 64, 150, 0.0, rng));
  Rng data_rng(15);
  const SparseSequence batch = one_hot(2, 37, 40, data_rng);
  const Matrix together = qmodel.forward(batch, false);
  const Matrix dense = qmodel.forward(to_dense(batch), false);
  for (std::size_t r = 0; r < 37; ++r) {
    SparseSequence alone(2, SparseRows(1, 40));
    for (std::size_t t = 0; t < 2; ++t) {
      for (const auto& entry : batch[t].row(r)) {
        alone[t].add(0, entry.col, entry.val);
      }
    }
    const Matrix single = qmodel.forward(alone, false);
    for (std::size_t j = 0; j < single.cols(); ++j) {
      ASSERT_TRUE(same_bits(together(r, j), single(0, j))) << r << "," << j;
      ASSERT_TRUE(same_bits(dense(r, j), single(0, j))) << r << "," << j;
    }
  }
}

TEST(QuantizedLstmTest, TracksFp32WithinQuantizationTolerance) {
  Rng rng(5);
  Lstm lstm(11, 32, rng);
  QuantizedLstm qlstm = quantize(lstm);
  const SparseSequence input = one_hot(4, 3, 11, rng);
  const Sequence fp32 = lstm.forward_sparse(input, false);
  const Sequence int8 = qlstm.forward_sparse(input, false);
  for (std::size_t t = 0; t < fp32.size(); ++t) {
    for (std::size_t i = 0; i < fp32[t].size(); ++i) {
      // Xavier weights for fanin 11+32 give scales ~2.8e-3; the gate sums
      // stay small and sigmoids/tanh contract error, so hidden states track
      // to well under 1e-2 over 4 recurrent steps.
      EXPECT_NEAR(fp32[t].flat()[i], int8[t].flat()[i], 2e-2f);
    }
  }
}

TEST(QuantizedLstmTest, IsStructurallyInferenceOnly) {
  Rng rng(6);
  Lstm lstm(5, 8, rng);
  QuantizedLstm qlstm = quantize(lstm);
  EXPECT_FALSE(qlstm.trainable());
  EXPECT_TRUE(qlstm.parameters().empty());
  EXPECT_TRUE(qlstm.gradients().empty());
  Sequence grads(1);
  grads[0] = Matrix(2, 8, 0.0f);
  EXPECT_THROW((void)qlstm.backward(grads), std::logic_error);
}

TEST(QuantizedModel, QuantizeForServingRoundTripsThroughCheckpoint) {
  Rng rng(7);
  auto model = make_two_layer_lstm(19, 16, 10, 0.1, rng);
  EXPECT_FALSE(is_quantized(model));
  auto qmodel = quantize_for_serving(model);
  EXPECT_TRUE(is_quantized(qmodel));
  EXPECT_EQ(qmodel.layer_count(), model.layer_count());
  EXPECT_EQ(qmodel.layer(0).kind(), "qlstm");
  EXPECT_TRUE(qmodel.head().is_quantized());

  const auto path =
      std::filesystem::temp_directory_path() / "qmodel_test.bin";
  qmodel.save_file(path);
  auto loaded = SequenceClassifier::load_file(path);
  EXPECT_TRUE(is_quantized(loaded));

  // The loaded artifact must serve byte-for-byte what the in-memory
  // quantized model serves (load_layer "qlstm" dispatch + head tag byte).
  Rng data_rng(8);
  const SparseSequence input = one_hot(3, 2, 19, data_rng);
  const Matrix a = qmodel.forward(input, false);
  const Matrix b = loaded.forward(input, false);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(same_bits(a.flat()[i], b.flat()[i])) << i;
  }
  std::filesystem::remove(path);
}

TEST(QuantizedModel, CheckpointShrinksAboutFourfold) {
  Rng rng(9);
  // Large enough that fixed framing overhead is noise next to the weights.
  auto model = make_one_layer_lstm(64, 64, 64, 0.0, rng);
  const auto dir = std::filesystem::temp_directory_path();
  const auto fp32_path = dir / "qsize_fp32.bin";
  const auto int8_path = dir / "qsize_int8.bin";
  model.save_file(fp32_path);
  quantize_for_serving(model).save_file(int8_path);
  const auto fp32_bytes = std::filesystem::file_size(fp32_path);
  const auto int8_bytes = std::filesystem::file_size(int8_path);
  EXPECT_LT(int8_bytes, fp32_bytes / 3);  // ~4x minus scales/bias overhead
  std::filesystem::remove(fp32_path);
  std::filesystem::remove(int8_path);
}

TEST(QuantizedModel, QuantizedModelBackwardThrows) {
  Rng rng(10);
  auto qmodel = quantize_for_serving(make_one_layer_lstm(7, 8, 5, 0.0, rng));
  Rng data_rng(11);
  const SparseSequence input = one_hot(2, 3, 7, data_rng);
  (void)qmodel.forward(input, false);
  EXPECT_THROW((void)qmodel.backward(Matrix(3, 5, 0.0f)), std::logic_error);
}

}  // namespace
}  // namespace pelican::nn
