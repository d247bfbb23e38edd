#include "nn/model.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

#include "common/rng.hpp"
#include "nn/dropout.hpp"
#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "grad_check.hpp"

namespace pelican::nn {
namespace {

Sequence random_sequence(std::size_t steps, std::size_t batch,
                         std::size_t dim, Rng& rng) {
  Sequence seq(steps);
  for (auto& x : seq) x = Matrix::randn(batch, dim, 1.0f, rng);
  return seq;
}

TEST(SequenceClassifier, ForwardShapeAndDims) {
  Rng rng(1);
  auto model = make_two_layer_lstm(6, 4, 9, 0.1, rng);
  EXPECT_EQ(model.input_dim(), 6u);
  EXPECT_EQ(model.num_classes(), 9u);
  EXPECT_EQ(model.layer_count(), 3u);  // lstm, dropout, lstm

  const Sequence input = random_sequence(2, 3, 6, rng);
  const Matrix logits = model.forward(input);
  EXPECT_EQ(logits.rows(), 3u);
  EXPECT_EQ(logits.cols(), 9u);
}

TEST(SequenceClassifier, RejectsEmptyInput) {
  Rng rng(2);
  auto model = make_one_layer_lstm(3, 2, 4, 0.0, rng);
  EXPECT_THROW((void)model.forward(Sequence{}), std::invalid_argument);
  EXPECT_THROW((void)model.forward(SparseSequence{}), std::invalid_argument);
}

TEST(SequenceClassifier, EndToEndGradientsMatchNumerical) {
  Rng rng(3);
  auto model = make_two_layer_lstm(4, 3, 5, 0.0, rng);  // no dropout: exact
  Sequence input = random_sequence(2, 2, 4, rng);
  const std::vector<std::int32_t> labels = {1, 4};

  auto loss = [&] {
    const Matrix logits = model.forward(input, /*training=*/false);
    return softmax_cross_entropy(logits, labels).loss;
  };

  model.zero_grad();
  const Matrix logits = model.forward(input, /*training=*/true);
  const auto ce = softmax_cross_entropy(logits, labels);
  const Sequence dx = model.backward(ce.grad_logits);

  // Check one parameter matrix per layer and the input gradients.
  auto* lstm0 = dynamic_cast<Lstm*>(&model.layer(0));
  ASSERT_NE(lstm0, nullptr);
  testing::expect_grad_matches(lstm0->w_ih(), *lstm0->gradients()[0], loss);

  testing::expect_grad_matches(model.head().weight(),
                               *model.head().gradients()[0], loss);

  ASSERT_EQ(dx.size(), 2u);
  for (std::size_t t = 0; t < 2; ++t) {
    for (std::size_t r = 0; r < 2; ++r) {
      for (std::size_t c = 0; c < 4; ++c) {
        const double expected = testing::numeric_grad(input[t], r, c, loss);
        EXPECT_NEAR(dx[t](r, c), expected,
                    3e-3 + 0.06 * std::abs(expected));
      }
    }
  }
}

TEST(SequenceClassifier, TrainableParamsExcludeFrozenLayers) {
  Rng rng(4);
  auto model = make_two_layer_lstm(4, 3, 5, 0.1, rng);
  const std::size_t all = model.all_params().size();
  EXPECT_EQ(model.trainable_params().size(), all);

  model.layer(0).set_trainable(false);
  EXPECT_EQ(model.trainable_params().size(), all - 3);  // lstm has 3 tensors

  model.head().set_trainable(false);
  EXPECT_EQ(model.trainable_params().size(), all - 5);  // head has 2
}

TEST(SequenceClassifier, ParameterCountMatchesArchitecture) {
  Rng rng(5);
  auto model = make_one_layer_lstm(10, 8, 6, 0.0, rng);
  // LSTM: 4*8*10 + 4*8*8 + 4*8 = 320 + 256 + 32 = 608. Head: 6*8 + 6 = 54.
  EXPECT_EQ(model.parameter_count(), 608u + 54u);
}

TEST(SequenceClassifier, CloneIsDeepAndEquivalent) {
  Rng rng(6);
  auto model = make_two_layer_lstm(5, 4, 7, 0.0, rng);
  auto copy = model.clone();

  Rng data_rng(7);
  const Sequence input = random_sequence(2, 3, 5, data_rng);
  EXPECT_EQ(model.forward(input), copy.forward(input));

  auto* lstm0 = dynamic_cast<Lstm*>(&copy.layer(0));
  ASSERT_NE(lstm0, nullptr);
  lstm0->w_ih()(0, 0) += 0.5f;
  EXPECT_NE(model.forward(input), copy.forward(input));
}

TEST(SequenceClassifier, CloneKeepsFreezeFlags) {
  Rng rng(8);
  auto model = make_two_layer_lstm(5, 4, 7, 0.1, rng);
  model.layer(0).set_trainable(false);
  auto copy = model.clone();
  EXPECT_FALSE(copy.layer(0).trainable());
  EXPECT_TRUE(copy.layer(2).trainable());
}

TEST(SequenceClassifier, InsertLayerPlacesBeforeIndex) {
  Rng rng(9);
  auto model = make_two_layer_lstm(5, 4, 7, 0.0, rng);  // [lstm, lstm]
  model.insert_layer(2, std::make_unique<Lstm>(4, 4, rng));
  EXPECT_EQ(model.layer_count(), 3u);
  EXPECT_EQ(model.layer(2).kind(), "lstm");
  EXPECT_THROW(model.insert_layer(99, std::make_unique<Lstm>(4, 4, rng)),
               std::out_of_range);
}

TEST(SequenceClassifier, PredictProbaIsSoftmaxedForward) {
  Rng rng(10);
  auto model = make_one_layer_lstm(4, 3, 5, 0.0, rng);
  const Sequence input = random_sequence(2, 2, 4, rng);
  const Matrix probs = model.predict_proba(input);
  for (std::size_t r = 0; r < probs.rows(); ++r) {
    double total = 0.0;
    for (const float p : probs.row(r)) total += p;
    EXPECT_NEAR(total, 1.0, 1e-5);
  }
}

TEST(SequenceClassifier, SaveLoadRoundTripPreservesOutputs) {
  Rng rng(11);
  auto model = make_two_layer_lstm(5, 4, 6, 0.1, rng);
  model.layer(0).set_trainable(false);

  const auto path =
      std::filesystem::temp_directory_path() / "pelican_model_test.bin";
  model.save_file(path);
  auto loaded = SequenceClassifier::load_file(path);
  std::filesystem::remove(path);

  EXPECT_EQ(loaded.layer_count(), model.layer_count());
  EXPECT_FALSE(loaded.layer(0).trainable());

  Rng data_rng(12);
  const Sequence input = random_sequence(2, 3, 5, data_rng);
  EXPECT_EQ(model.forward(input), loaded.forward(input));
}

TEST(SequenceClassifier, LoadRejectsCorruptKind) {
  const auto path =
      std::filesystem::temp_directory_path() / "pelican_model_bad.bin";
  {
    BinaryWriter writer(path, 1);
    writer.write_u64(1);
    writer.write_string("alien_layer");
    writer.finish();
  }
  BinaryReader reader(path, 1);
  EXPECT_THROW((void)SequenceClassifier::load(reader), SerializeError);
  std::filesystem::remove(path);
}

TEST(SequenceClassifier, DropoutOnlyActiveInTraining) {
  Rng rng(13);
  auto model = make_two_layer_lstm(5, 4, 6, 0.5, rng);
  const Sequence input = random_sequence(2, 2, 5, rng);
  const Matrix a = model.forward(input, /*training=*/false);
  const Matrix b = model.forward(input, /*training=*/false);
  EXPECT_EQ(a, b);  // inference is deterministic
  const Matrix c = model.forward(input, /*training=*/true);
  const Matrix d = model.forward(input, /*training=*/true);
  EXPECT_NE(c, d);  // training jitters through dropout
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

SparseSequence one_hot_sequence(std::size_t steps, std::size_t batch,
                                std::size_t dim, Rng& rng) {
  SparseSequence x(steps, SparseRows(batch, dim));
  for (SparseRows& step : x) {
    for (std::size_t r = 0; r < batch; ++r) {
      step.add(r, rng.below(dim / 2), 1.0f);
      step.add(r, dim / 2 + rng.below(dim - dim / 2), 1.0f);
    }
  }
  return x;
}

TEST(SequenceClassifier, InferEqualsInferenceForwardBitForBit) {
  // The const inference path against forward(x, false) over fp32 and int8
  // weights, both encodings, 1-2 layers (the 2-layer model has dropout),
  // batch 1/7/64 and 1-5 steps.
  constexpr std::size_t kDim = 13;
  for (const std::size_t layers : {1, 2}) {
    for (const std::size_t batch : {1, 7, 64}) {
      for (std::size_t steps = 1; steps <= 5; ++steps) {
        Rng rng(100 * layers + 10 * batch + steps);
        SequenceClassifier fp32 =
            layers == 1 ? make_one_layer_lstm(kDim, 9, 6, 0.0, rng)
                        : make_two_layer_lstm(kDim, 9, 6, 0.3, rng);
        SequenceClassifier int8 = quantize_for_serving(fp32);
        const SparseSequence sparse = one_hot_sequence(steps, batch, kDim, rng);
        const Sequence dense = to_dense(sparse);
        for (SequenceClassifier* model : {&fp32, &int8}) {
          const SequenceClassifier& frozen = *model;
          EXPECT_TRUE(same_bits(frozen.infer(dense),
                                model->forward(dense, false)))
              << "dense layers=" << layers << " batch=" << batch
              << " steps=" << steps << " int8=" << (model == &int8);
          EXPECT_TRUE(same_bits(frozen.infer(sparse),
                                model->forward(sparse, false)))
              << "sparse layers=" << layers << " batch=" << batch
              << " steps=" << steps << " int8=" << (model == &int8);
        }
      }
    }
  }
}

TEST(SequenceClassifier, InferBetweenForwardAndBackwardLeavesGradients) {
  // forward(a); infer(b); backward(g) must give the gradients of
  // forward(a); backward(g): infer may not touch the training caches. Two
  // clones (the same dropout stream), in training mode, both encodings.
  Rng rng(31);
  const SequenceClassifier original = make_two_layer_lstm(8, 5, 4, 0.3, rng);
  const SparseSequence a_sparse = one_hot_sequence(3, 6, 8, rng);
  const SparseSequence b_sparse = one_hot_sequence(4, 2, 8, rng);
  const Matrix grad = Matrix::randn(6, 4, 1.0f, rng);

  for (const bool sparse : {false, true}) {
    SequenceClassifier plain = original.clone();
    SequenceClassifier interleaved = original.clone();
    const auto run = [&](SequenceClassifier& model, bool with_infer) {
      model.zero_grad();
      if (sparse) {
        (void)model.forward(a_sparse, /*training=*/true);
        if (with_infer) (void)model.infer(b_sparse);
      } else {
        (void)model.forward(to_dense(a_sparse), /*training=*/true);
        if (with_infer) (void)model.infer(to_dense(b_sparse));
      }
      return model.backward(grad);
    };
    const Sequence dx_plain = run(plain, false);
    const Sequence dx_interleaved = run(interleaved, true);

    ASSERT_EQ(dx_plain.size(), dx_interleaved.size());
    for (std::size_t t = 0; t < dx_plain.size(); ++t) {
      EXPECT_TRUE(same_bits(dx_plain[t], dx_interleaved[t]))
          << "input gradient, step " << t << " sparse=" << sparse;
    }
    const auto params_plain = plain.all_params();
    const auto params_interleaved = interleaved.all_params();
    ASSERT_EQ(params_plain.size(), params_interleaved.size());
    for (std::size_t i = 0; i < params_plain.size(); ++i) {
      EXPECT_TRUE(same_bits(*params_plain[i].grad,
                            *params_interleaved[i].grad))
          << "parameter gradient " << i << " sparse=" << sparse;
    }
  }
}

}  // namespace
}  // namespace pelican::nn
