#include "nn/model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <span>
#include <vector>

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

/// One input row: the two hot columns of each step, drawn as
/// one_hot_sequence draws them.
using Row = std::vector<std::array<std::size_t, 2>>;

Row random_row(std::size_t steps, std::size_t dim, Rng& rng) {
  Row row(steps);
  for (auto& step : row) {
    step = {rng.below(dim / 2), dim / 2 + rng.below(dim - dim / 2)};
  }
  return row;
}

SparseSequence encode_rows(std::span<const Row> rows, std::size_t dim) {
  SparseSequence x(rows.front().size(), SparseRows(rows.size(), dim));
  for (std::size_t t = 0; t < x.size(); ++t) {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      for (const std::size_t col : rows[r][t]) x[t].add(r, col, 1.0f);
    }
  }
  return x;
}

/// The input patterns of InferEqualsInferenceForwardBitForBit: random rows
/// at three batch sizes, and rows that share steps the way attack queries
/// share their known step.
enum class Pattern {
  kRandom1,
  kRandom7,
  kRandom64,
  kSharedPrefix,     // runs of rows sharing their first s steps, s < steps
  kDuplicates,       // A A A B B
  kAba,              // A B A: equal rows that are not adjacent
  kEqualAfterStep0,  // rows that differ at step 0 only
};

std::vector<Row> pattern_rows(Pattern pattern, std::size_t steps,
                              std::size_t dim, Rng& rng) {
  const auto random = [&] { return random_row(steps, dim, rng); };
  std::vector<Row> rows;
  switch (pattern) {
    case Pattern::kRandom1:
    case Pattern::kRandom7:
    case Pattern::kRandom64: {
      const std::size_t batch = pattern == Pattern::kRandom1   ? 1
                                : pattern == Pattern::kRandom7 ? 7
                                                               : 64;
      for (std::size_t r = 0; r < batch; ++r) rows.push_back(random());
      break;
    }
    case Pattern::kSharedPrefix:
      for (std::size_t shared = 1; shared < steps; ++shared) {
        for (int run = 0; run < 2; ++run) {
          const Row head = random();
          for (int i = 0; i < 3; ++i) {
            Row row = random();
            std::copy_n(head.begin(), shared, row.begin());
            rows.push_back(row);
          }
        }
      }
      rows.push_back(random());
      break;
    case Pattern::kDuplicates: {
      const Row a = random();
      const Row b = random();
      rows = {a, a, a, b, b};
      break;
    }
    case Pattern::kAba: {
      const Row a = random();
      const Row b = random();
      rows = {a, b, a};
      break;
    }
    case Pattern::kEqualAfterStep0: {
      // A row may join the group above only if both shared the previous
      // step's group, so these rows stay apart at every step.
      const Row later = random();
      for (std::size_t i = 0; i < 4; ++i) {
        Row row = later;
        row[0] = {i, dim / 2 + i};
        rows.push_back(row);
      }
      break;
    }
  }
  return rows;
}

TEST(SequenceClassifier, InferEqualsInferenceForwardBitForBit) {
  // The const inference path against forward(x, false) and against each
  // row inferred alone at batch 1, over fp32 and int8 weights, both
  // encodings, 1-3 layers (the 2-layer model has dropout; the 3-layer one
  // is the TL-FE shape the attack queries), 1-5 steps and every input
  // pattern above.
  constexpr std::size_t kDim = 13;
  constexpr Pattern kPatterns[] = {
      Pattern::kRandom1,    Pattern::kRandom7, Pattern::kRandom64,
      Pattern::kSharedPrefix, Pattern::kDuplicates, Pattern::kAba,
      Pattern::kEqualAfterStep0};
  for (const std::size_t layers : {1, 2, 3}) {
    for (const Pattern pattern : kPatterns) {
      for (std::size_t steps = 1; steps <= 5; ++steps) {
        Rng rng(1000 * layers + 10 * static_cast<std::size_t>(pattern) +
                steps);
        SequenceClassifier fp32 =
            layers == 1 ? make_one_layer_lstm(kDim, 9, 6, 0.0, rng)
                        : make_two_layer_lstm(kDim, 9, 6, 0.3, rng);
        if (layers == 3) {
          fp32.insert_layer(fp32.layer_count(),
                            std::make_unique<Lstm>(9, 9, rng));
        }
        SequenceClassifier int8 = quantize_for_serving(fp32);
        const std::vector<Row> rows = pattern_rows(pattern, steps, kDim, rng);
        const SparseSequence sparse = encode_rows(rows, kDim);
        const Sequence dense = to_dense(sparse);
        for (SequenceClassifier* model : {&fp32, &int8}) {
          SCOPED_TRACE(::testing::Message()
                       << "layers=" << layers << " pattern="
                       << static_cast<int>(pattern) << " steps=" << steps
                       << " int8=" << (model == &int8));
          const SequenceClassifier& frozen = *model;
          const Matrix from_dense = frozen.infer(dense);
          const Matrix from_sparse = frozen.infer(sparse);
          EXPECT_TRUE(same_bits(from_dense, model->forward(dense, false)));
          EXPECT_TRUE(same_bits(from_sparse, model->forward(sparse, false)));
          for (std::size_t r = 0; r < rows.size(); ++r) {
            const SparseSequence alone =
                encode_rows(std::span<const Row>(&rows[r], 1), kDim);
            const Matrix sparse_alone = frozen.infer(alone);
            const Matrix dense_alone = frozen.infer(to_dense(alone));
            EXPECT_EQ(std::memcmp(sparse_alone.data(),
                                  from_sparse.row(r).data(),
                                  sparse_alone.size() * sizeof(float)),
                      0)
                << "sparse row " << r;
            EXPECT_EQ(std::memcmp(dense_alone.data(), from_dense.row(r).data(),
                                  dense_alone.size() * sizeof(float)),
                      0)
                << "dense row " << r;
          }
        }
      }
    }
  }
}

TEST(SequenceClassifier, TrainingGradientsIgnoreRowGrouping) {
  // The training forward groups bit-equal rows as infer() does and expands
  // each group into backward()'s per-row caches. A batch of duplicated
  // windows and its twin, where every other duplicate has one +0.0 entry
  // set to -0.0 (rows bitwise distinct, so nothing groups, but arithmetic
  // identical), must give the same gradient bits. Clones share the dropout
  // stream, so both models see the same masks.
  Rng rng(43);
  constexpr std::size_t kDim = 8;
  for (const std::size_t layers : {1, 2}) {
    const SequenceClassifier original =
        layers == 1 ? make_one_layer_lstm(kDim, 5, 4, 0.0, rng)
                    : make_two_layer_lstm(kDim, 5, 4, 0.3, rng);
    const Row a = random_row(3, kDim, rng);
    const Row b = random_row(3, kDim, rng);
    const std::vector<Row> rows = {a, a, a, b, b, b, b};
    const Sequence duplicated = to_dense(encode_rows(rows, kDim));
    Sequence twin = duplicated;
    for (const std::size_t r : {1, 4, 6}) {
      const std::size_t col = (rows[r][0][0] + 1) % (kDim / 2);  // a +0.0
      ASSERT_EQ(twin[0](r, col), 0.0f);
      twin[0](r, col) = -0.0f;
    }
    const Matrix grad = Matrix::randn(rows.size(), 4, 1.0f, rng);

    const auto run = [&](SequenceClassifier& model, const Sequence& input) {
      model.zero_grad();
      (void)model.forward(input, /*training=*/true);
      return model.backward(grad);
    };
    SequenceClassifier grouped = original.clone();
    SequenceClassifier distinct = original.clone();
    const Sequence dx_grouped = run(grouped, duplicated);
    const Sequence dx_distinct = run(distinct, twin);

    ASSERT_EQ(dx_grouped.size(), dx_distinct.size());
    for (std::size_t t = 0; t < dx_grouped.size(); ++t) {
      EXPECT_TRUE(same_bits(dx_grouped[t], dx_distinct[t]))
          << "input gradient, step " << t << " layers=" << layers;
    }
    const auto params_grouped = grouped.all_params();
    const auto params_distinct = distinct.all_params();
    ASSERT_EQ(params_grouped.size(), params_distinct.size());
    for (std::size_t i = 0; i < params_grouped.size(); ++i) {
      EXPECT_TRUE(
          same_bits(*params_grouped[i].grad, *params_distinct[i].grad))
          << "parameter gradient " << i << " layers=" << layers;
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
