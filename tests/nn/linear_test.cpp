#include "nn/linear.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "common/rng.hpp"
#include "nn/loss.hpp"
#include "nn/matrix.hpp"
#include "grad_check.hpp"

namespace pelican::nn {
namespace {

using testing::expect_grad_matches;

TEST(Linear, ForwardComputesAffineMap) {
  Rng rng(1);
  Linear layer(2, 3, rng);
  layer.weight().fill(0.0f);
  layer.weight()(0, 0) = 1.0f;  // y0 = x0
  layer.weight()(1, 1) = 2.0f;  // y1 = 2 x1
  layer.bias()(0, 2) = -1.0f;   // y2 = -1

  Matrix x(1, 2);
  x(0, 0) = 3.0f;
  x(0, 1) = 4.0f;
  const Matrix y = layer.forward(x);
  ASSERT_EQ(y.rows(), 1u);
  ASSERT_EQ(y.cols(), 3u);
  EXPECT_FLOAT_EQ(y(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(y(0, 1), 8.0f);
  EXPECT_FLOAT_EQ(y(0, 2), -1.0f);
}

TEST(Linear, ForwardRejectsWrongWidth) {
  Rng rng(2);
  Linear layer(4, 2, rng);
  Matrix x(1, 3);
  EXPECT_THROW((void)layer.forward(x), std::invalid_argument);
}

TEST(Linear, GradientsMatchNumerical) {
  Rng rng(3);
  Linear layer(4, 3, rng);
  Matrix x = Matrix::randn(5, 4, 1.0f, rng);
  const std::vector<std::int32_t> labels = {0, 2, 1, 2, 0};

  auto loss = [&] {
    Linear copy = layer;  // fresh cache each evaluation
    const Matrix logits = copy.forward(x);
    return softmax_cross_entropy(logits, labels).loss;
  };

  layer.zero_grad();
  const Matrix logits = layer.forward(x);
  const auto ce = softmax_cross_entropy(logits, labels);
  const Matrix dx = layer.backward(ce.grad_logits);

  expect_grad_matches(layer.weight(), *layer.gradients()[0], loss);
  expect_grad_matches(layer.bias(), *layer.gradients()[1], loss);

  // Input gradients (the attack path) as well.
  Matrix dx_numeric(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      dx_numeric(r, c) =
          static_cast<float>(testing::numeric_grad(x, r, c, loss));
    }
  }
  for (std::size_t i = 0; i < dx.size(); ++i) {
    EXPECT_NEAR(dx.flat()[i], dx_numeric.flat()[i], 3e-3);
  }
}

TEST(Linear, BackwardAccumulatesAcrossCalls) {
  Rng rng(4);
  Linear layer(2, 2, rng);
  Matrix x = Matrix::randn(3, 2, 1.0f, rng);
  Matrix dy(3, 2, 1.0f);

  layer.zero_grad();
  (void)layer.forward(x);
  (void)layer.backward(dy);
  const Matrix grad_once = *layer.gradients()[0];

  (void)layer.forward(x);
  (void)layer.backward(dy);
  const Matrix& grad_twice = *layer.gradients()[0];
  for (std::size_t i = 0; i < grad_twice.size(); ++i) {
    EXPECT_NEAR(grad_twice.flat()[i], 2.0f * grad_once.flat()[i], 1e-5f);
  }
}

TEST(Linear, BackwardRejectsWrongShape) {
  Rng rng(5);
  Linear layer(2, 3, rng);
  Matrix x(4, 2);
  (void)layer.forward(x);
  Matrix bad(4, 2);  // wrong width (should be 3)
  EXPECT_THROW((void)layer.backward(bad), std::invalid_argument);
}

TEST(Linear, SaveLoadRoundTrip) {
  Rng rng(6);
  Linear layer(3, 4, rng);
  layer.set_trainable(false);
  const auto path =
      std::filesystem::temp_directory_path() / "pelican_linear_test.bin";
  {
    BinaryWriter writer(path, 1);
    layer.save(writer);
    writer.finish();
  }
  BinaryReader reader(path, 1);
  Linear loaded = Linear::load(reader);
  std::filesystem::remove(path);

  EXPECT_EQ(loaded.weight(), layer.weight());
  EXPECT_EQ(loaded.bias(), layer.bias());
  EXPECT_FALSE(loaded.trainable());

  Matrix x = Matrix::randn(2, 3, 1.0f, rng);
  EXPECT_EQ(loaded.forward(x), layer.forward(x));
}

TEST(Linear, LoadRejectsHugeDimensionsBeforeAllocating) {
  // A CRC-valid fp32 head claiming out_dim = 2^40 with no stored weights:
  // the loader must compare against the stored vectors before it sizes
  // anything, and fail typed instead of with std::bad_alloc.
  const auto path =
      std::filesystem::temp_directory_path() / "pelican_linear_huge_test.bin";
  {
    BinaryWriter writer(path, 1);
    writer.write_u8(0);  // fp32 storage
    writer.write_u64(std::uint64_t{1} << 40);
    writer.write_u64(1);
    writer.write_f32_span({});
    writer.write_f32_span({});
    writer.write_u8(1);
    writer.finish();
  }
  BinaryReader reader(path, 1);
  EXPECT_THROW((void)Linear::load(reader), SerializeError);
  std::filesystem::remove(path);
}

TEST(Linear, DimsReportCorrectly) {
  Rng rng(7);
  const Linear layer(5, 9, rng);
  EXPECT_EQ(layer.input_dim(), 5u);
  EXPECT_EQ(layer.output_dim(), 9u);
}

}  // namespace
}  // namespace pelican::nn
