#include "nn/trainer.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "common/rng.hpp"
#include "nn/loss.hpp"
#include "nn/metrics.hpp"

namespace pelican::nn {

TrainReport train(SequenceClassifier& model, const BatchSource& data,
                  const TrainConfig& config, const BatchSource* validation) {
  if (data.size() == 0) {
    throw std::invalid_argument("train: empty dataset");
  }
  if (config.batch_size == 0) {
    throw std::invalid_argument("train: batch_size must be > 0");
  }

  Adam optimizer(config.lr, config.weight_decay);
  Rng rng(config.seed);
  TrainReport report;

  std::vector<std::uint32_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);

  const bool early_stopping = validation != nullptr && config.patience > 0;
  double best_val = -1.0;
  std::size_t epochs_since_best = 0;
  std::optional<SequenceClassifier> best_model;

  // forward_batch picks the source's preferred encoding — one-hot sources
  // take the sparse fast path with bit-identical logits and gradients
  // (nn/sparse.hpp), so the training trajectory is unchanged; only the
  // input products shrink to nnz row gathers.
  std::vector<std::int32_t> y;

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    if (config.shuffle) rng.shuffle(order);

    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < order.size();
         start += config.batch_size) {
      const std::size_t end =
          std::min(order.size(), start + config.batch_size);
      const std::span<const std::uint32_t> indices(order.data() + start,
                                                   end - start);

      model.zero_grad();
      const Matrix logits = forward_batch(model, data, indices, y);
      const LossResult loss = softmax_cross_entropy(logits, y);
      (void)model.backward(loss.grad_logits);

      const auto params = model.trainable_params();
      if (config.grad_clip > 0.0) {
        clip_gradient_norm(params, config.grad_clip);
      }
      optimizer.step(params);

      epoch_loss += loss.loss;
      ++batches;
    }
    report.epoch_loss.push_back(epoch_loss / static_cast<double>(batches));
    ++report.epochs_run;

    if (validation != nullptr) {
      const double val_top1 = topk_accuracy(model, *validation, 1);
      report.validation_top1.push_back(val_top1);
      if (early_stopping) {
        if (val_top1 > best_val) {
          best_val = val_top1;
          epochs_since_best = 0;
          best_model = model.clone();
        } else if (++epochs_since_best >= config.patience) {
          report.early_stopped = true;
          break;
        }
      }
    }

    if (config.lr_decay != 1.0) {
      optimizer.set_lr(optimizer.lr() * config.lr_decay);
    }
  }

  if (early_stopping && best_model.has_value()) {
    model = std::move(*best_model);
  }
  return report;
}

double evaluate_loss(const SequenceClassifier& model,
                     const BatchSource& data, std::size_t batch_size) {
  if (data.size() == 0) return 0.0;
  std::vector<std::int32_t> y;
  std::vector<std::uint32_t> indices;
  double total = 0.0;
  std::size_t count = 0;
  for (std::size_t start = 0; start < data.size(); start += batch_size) {
    const std::size_t end = std::min(data.size(), start + batch_size);
    indices.resize(end - start);
    std::iota(indices.begin(), indices.end(),
              static_cast<std::uint32_t>(start));
    const Matrix logits = infer_batch(model, data, indices, y);
    const LossResult loss = softmax_cross_entropy(logits, y);
    total += loss.loss * static_cast<double>(end - start);
    count += end - start;
  }
  return total / static_cast<double>(count);
}

}  // namespace pelican::nn
