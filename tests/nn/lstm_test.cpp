#include "nn/lstm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "common/rng.hpp"
#include "nn/loss.hpp"
#include "grad_check.hpp"

namespace pelican::nn {
namespace {

using testing::expect_grad_matches;
using testing::numeric_grad;

Sequence random_sequence(std::size_t steps, std::size_t batch,
                         std::size_t dim, Rng& rng) {
  Sequence seq(steps);
  for (auto& x : seq) x = Matrix::randn(batch, dim, 1.0f, rng);
  return seq;
}

/// Loss = sum of the last timestep's outputs weighted by fixed coefficients,
/// a simple differentiable readout for gradient checking.
double readout_loss(Lstm& lstm, const Sequence& input, const Matrix& coeffs) {
  const Sequence out = lstm.forward(input, /*training=*/false);
  double total = 0.0;
  const Matrix& last = out.back();
  for (std::size_t r = 0; r < last.rows(); ++r) {
    for (std::size_t c = 0; c < last.cols(); ++c) {
      total += static_cast<double>(last(r, c)) * coeffs(r, c);
    }
  }
  return total;
}

TEST(Lstm, ForwardShapes) {
  Rng rng(1);
  Lstm lstm(5, 3, rng);
  const Sequence input = random_sequence(4, 2, 5, rng);
  const Sequence out = lstm.forward(input, false);
  ASSERT_EQ(out.size(), 4u);
  for (const auto& h : out) {
    EXPECT_EQ(h.rows(), 2u);
    EXPECT_EQ(h.cols(), 3u);
  }
}

TEST(Lstm, OutputsBoundedByTanh) {
  Rng rng(2);
  Lstm lstm(4, 6, rng);
  const Sequence input = random_sequence(3, 5, 4, rng);
  for (const auto& h : lstm.forward(input, false)) {
    for (const float v : h.flat()) {
      EXPECT_LT(std::abs(v), 1.0f);  // |h| = |o * tanh(c)| < 1
    }
  }
}

TEST(Lstm, ZeroInputZeroWeightsGivesZeroOutput) {
  Rng rng(3);
  Lstm lstm(2, 2, rng);
  lstm.w_ih().fill(0.0f);
  lstm.w_hh().fill(0.0f);
  lstm.bias().fill(0.0f);
  Sequence input(2, Matrix(1, 2, 0.0f));
  const Sequence out = lstm.forward(input, false);
  // Gates: i = f = o = 0.5, g = 0 -> c = 0, h = 0.
  for (const auto& h : out) {
    for (const float v : h.flat()) EXPECT_FLOAT_EQ(v, 0.0f);
  }
}

TEST(Lstm, ForwardRejectsEmptyAndMismatched) {
  Rng rng(4);
  Lstm lstm(3, 2, rng);
  EXPECT_THROW((void)lstm.forward({}, false), std::invalid_argument);
  Sequence bad(1, Matrix(2, 5));
  EXPECT_THROW((void)lstm.forward(bad, false), std::invalid_argument);
}

TEST(Lstm, ParameterGradientsMatchNumerical) {
  Rng rng(5);
  Lstm lstm(3, 4, rng);
  const Sequence input = random_sequence(3, 2, 3, rng);
  const Matrix coeffs = Matrix::randn(2, 4, 1.0f, rng);

  auto loss = [&] { return readout_loss(lstm, input, coeffs); };

  lstm.zero_grad();
  (void)lstm.forward(input, false);
  Sequence dout(3);
  dout[2] = coeffs;  // gradient only on the last step, like the real model
  (void)lstm.backward(dout);

  expect_grad_matches(lstm.w_ih(), *lstm.gradients()[0], loss);
  expect_grad_matches(lstm.w_hh(), *lstm.gradients()[1], loss);
  expect_grad_matches(lstm.bias(), *lstm.gradients()[2], loss);
}

TEST(Lstm, InputGradientsMatchNumerical) {
  Rng rng(6);
  Lstm lstm(3, 4, rng);
  Sequence input = random_sequence(2, 2, 3, rng);
  const Matrix coeffs = Matrix::randn(2, 4, 1.0f, rng);

  auto loss = [&] { return readout_loss(lstm, input, coeffs); };

  (void)lstm.forward(input, false);
  Sequence dout(2);
  dout[1] = coeffs;
  const Sequence dx = lstm.backward(dout);
  ASSERT_EQ(dx.size(), 2u);

  for (std::size_t t = 0; t < input.size(); ++t) {
    for (std::size_t r = 0; r < input[t].rows(); ++r) {
      for (std::size_t c = 0; c < input[t].cols(); ++c) {
        const double expected = numeric_grad(input[t], r, c, loss);
        EXPECT_NEAR(dx[t](r, c), expected, 3e-3 + 0.06 * std::abs(expected))
            << "t=" << t << " r=" << r << " c=" << c;
      }
    }
  }
}

TEST(Lstm, GradientFlowsThroughAllTimesteps) {
  Rng rng(7);
  Lstm lstm(3, 4, rng);
  const Sequence input = random_sequence(5, 1, 3, rng);
  (void)lstm.forward(input, false);
  Sequence dout(5);
  dout[4] = Matrix(1, 4, 1.0f);
  const Sequence dx = lstm.backward(dout);
  // Supervision at the last step must reach the first input.
  EXPECT_GT(dx[0].squared_norm(), 0.0);
}

TEST(Lstm, GradientsOnAllStepsMatchNumerical) {
  // Supervise every timestep, not just the last (stacked-LSTM case).
  Rng rng(8);
  Lstm lstm(2, 3, rng);
  Sequence input = random_sequence(3, 2, 2, rng);
  Matrix coeffs[3];
  for (auto& c : coeffs) c = Matrix::randn(2, 3, 1.0f, rng);

  auto loss = [&] {
    const Sequence out = lstm.forward(input, false);
    double total = 0.0;
    for (std::size_t t = 0; t < out.size(); ++t) {
      for (std::size_t i = 0; i < out[t].size(); ++i) {
        total += static_cast<double>(out[t].flat()[i]) * coeffs[t].flat()[i];
      }
    }
    return total;
  };

  lstm.zero_grad();
  (void)lstm.forward(input, false);
  Sequence dout = {coeffs[0], coeffs[1], coeffs[2]};
  (void)lstm.backward(dout);
  expect_grad_matches(lstm.w_ih(), *lstm.gradients()[0], loss);
  expect_grad_matches(lstm.w_hh(), *lstm.gradients()[1], loss);
}

TEST(Lstm, BackwardWithoutForwardThrows) {
  Rng rng(9);
  Lstm lstm(2, 2, rng);
  Sequence dout(1, Matrix(1, 2, 1.0f));
  EXPECT_THROW((void)lstm.backward(dout), std::invalid_argument);
}

TEST(Lstm, ForgetGateBiasInitializedToOne) {
  Rng rng(10);
  Lstm lstm(3, 4, rng);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(lstm.bias()(0, 4 + j), 1.0f);   // forget block
    EXPECT_FLOAT_EQ(lstm.bias()(0, j), 0.0f);       // input block
  }
}

TEST(Lstm, CloneProducesIndependentCopy) {
  Rng rng(11);
  Lstm lstm(3, 4, rng);
  lstm.set_trainable(false);
  auto clone_ptr = lstm.clone();
  auto* clone = dynamic_cast<Lstm*>(clone_ptr.get());
  ASSERT_NE(clone, nullptr);
  EXPECT_FALSE(clone->trainable());

  Rng data_rng(12);
  const Sequence input = random_sequence(2, 3, 3, data_rng);
  EXPECT_EQ(lstm.forward(input, false).back(),
            clone->forward(input, false).back());

  clone->w_ih()(0, 0) += 1.0f;  // mutate the clone only
  EXPECT_NE(lstm.forward(input, false).back(),
            clone->forward(input, false).back());
}

TEST(Lstm, SaveLoadRoundTrip) {
  Rng rng(13);
  Lstm lstm(4, 5, rng);
  const auto path =
      std::filesystem::temp_directory_path() / "pelican_lstm_test.bin";
  {
    BinaryWriter writer(path, 1);
    lstm.save(writer);
    writer.finish();
  }
  BinaryReader reader(path, 1);
  ASSERT_EQ(reader.read_string(), "lstm");
  auto loaded = Lstm::load(reader);
  std::filesystem::remove(path);

  Rng data_rng(14);
  const Sequence input = random_sequence(3, 2, 4, data_rng);
  EXPECT_EQ(lstm.forward(input, false).back(),
            loaded->forward(input, false).back());
}

TEST(Lstm, LoadRejectsHugeDimensionsBeforeAllocating) {
  // A CRC-valid layer claiming hidden = 2^40 with no stored weights must
  // fail typed, not allocate 4 * 2^40 x input_dim floats first.
  const auto path =
      std::filesystem::temp_directory_path() / "pelican_lstm_huge_test.bin";
  {
    BinaryWriter writer(path, 1);
    writer.write_u64(1);                       // input_dim
    writer.write_u64(std::uint64_t{1} << 40);  // hidden
    writer.write_f32_span({});
    writer.write_f32_span({});
    writer.write_f32_span({});
    writer.write_u8(1);
    writer.finish();
  }
  BinaryReader reader(path, 1);
  EXPECT_THROW((void)Lstm::load(reader), SerializeError);
  std::filesystem::remove(path);
}

TEST(Lstm, StatefulAcrossStepsNotAcrossCalls) {
  Rng rng(15);
  Lstm lstm(2, 3, rng);
  const Sequence input = random_sequence(2, 1, 2, rng);
  const Matrix first = lstm.forward(input, false).back();
  const Matrix second = lstm.forward(input, false).back();
  EXPECT_EQ(first, second);  // state resets between forward calls
}

}  // namespace
}  // namespace pelican::nn
