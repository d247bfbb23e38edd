// Minibatch training loop with Adam, gradient clipping, per-epoch learning-
// rate decay and optional early stopping on a validation source. This is the
// engine behind both the cloud's general-model training and the device's
// transfer-learning personalization.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "nn/data.hpp"
#include "nn/model.hpp"

namespace pelican::nn {

struct TrainConfig {
  std::size_t epochs = 10;
  std::size_t batch_size = 64;
  double lr = 1e-3;
  double weight_decay = 1e-6;  // the paper trains with weight decay 1e-6
  double grad_clip = 5.0;      // 0 disables clipping
  double lr_decay = 1.0;       // multiplicative per-epoch factor
  std::size_t patience = 0;    // early-stop after N non-improving epochs
  std::uint64_t seed = 1;      // shuffling seed
  bool shuffle = true;
};

struct TrainReport {
  std::vector<double> epoch_loss;       // mean training CE per epoch
  std::vector<double> validation_top1;  // only if a validation source given
  std::size_t epochs_run = 0;
  bool early_stopped = false;
};

/// Trains `model` in place. If `validation` is non-null and
/// config.patience > 0, restores the best-validation weights before
/// returning.
TrainReport train(SequenceClassifier& model, const BatchSource& data,
                  const TrainConfig& config,
                  const BatchSource* validation = nullptr);

/// Mean cross-entropy of `model` over `data` (inference mode).
[[nodiscard]] double evaluate_loss(const SequenceClassifier& model,
                                   const BatchSource& data,
                                   std::size_t batch_size = 256);

}  // namespace pelican::nn
