// SequenceClassifier: a stack of sequence layers (LSTM/Dropout) with a
// Linear classification head over the final timestep — the architecture
// family of Fig. 1a-1c. Supports cloning (personalization starts from a copy
// of the general model), layer freezing, (de)serialization ("download the
// model from the cloud"), and backpropagation to the input encoding (used by
// the gradient-descent inversion attack).
#pragma once

#include <memory>
#include <vector>

#include "common/serialize.hpp"
#include "nn/layer.hpp"
#include "nn/linear.hpp"
#include "nn/optimizer.hpp"

namespace pelican::nn {

class SequenceClassifier {
 public:
  SequenceClassifier() = default;

  // Movable, non-copyable (use clone() for deep copies).
  SequenceClassifier(SequenceClassifier&&) = default;
  SequenceClassifier& operator=(SequenceClassifier&&) = default;
  SequenceClassifier(const SequenceClassifier&) = delete;
  SequenceClassifier& operator=(const SequenceClassifier&) = delete;

  /// Appends a sequence layer (takes ownership).
  void add_layer(std::unique_ptr<SequenceLayer> layer);

  /// Inserts a layer before position `index` (0 = first). Used by TL feature
  /// extraction, which stacks a new LSTM between the frozen base and head.
  void insert_layer(std::size_t index, std::unique_ptr<SequenceLayer> layer);

  void set_head(Linear head) { head_ = std::move(head); }

  [[nodiscard]] std::size_t layer_count() const noexcept {
    return layers_.size();
  }
  [[nodiscard]] SequenceLayer& layer(std::size_t i) { return *layers_[i]; }
  [[nodiscard]] const SequenceLayer& layer(std::size_t i) const {
    return *layers_[i];
  }
  [[nodiscard]] Linear& head() noexcept { return head_; }
  [[nodiscard]] const Linear& head() const noexcept { return head_; }

  [[nodiscard]] std::size_t input_dim() const;
  [[nodiscard]] std::size_t num_classes() const { return head_.output_dim(); }

  /// Multiply-adds infer() costs one row of `steps` timesteps, counting
  /// every product dense (a one-hot input costs less); sizes pool splits
  /// (nn/parallel.hpp row_tasks).
  [[nodiscard]] std::size_t macs_per_row(std::size_t steps) const;

  /// Runs the stack and the head on the last timestep; returns logits
  /// (batch x classes). The const inference path (nn/layer.hpp): it writes
  /// nothing in the model, so any number of threads may share one model.
  [[nodiscard]] Matrix infer(const Sequence& input) const;

  /// One-hot fast path: the first layer consumes the sparse encoding
  /// directly (Lstm gathers rows of W_ih^T instead of a dense product);
  /// everything above it is dense. Bit-identical to infer(to_dense(input))
  /// — the serving and attack layers rely on this to switch encodings
  /// freely.
  [[nodiscard]] Matrix infer(const SparseSequence& input) const;

  /// The training forward: the same logits as infer() when `training` is
  /// off, plus the activations backward() consumes.
  [[nodiscard]] Matrix forward(const Sequence& input, bool training = false);
  [[nodiscard]] Matrix forward(const SparseSequence& input,
                               bool training = false);

  /// Backpropagates from dL/dlogits; accumulates parameter gradients and
  /// returns dL/dinput (full sequence), enabling input-space attacks.
  [[nodiscard]] Sequence backward(const Matrix& grad_logits);

  /// Convenience: infer + temperature-scaled softmax.
  [[nodiscard]] Matrix predict_proba(const Sequence& input,
                                     double temperature = 1.0) const;
  [[nodiscard]] Matrix predict_proba(const SparseSequence& input,
                                     double temperature = 1.0) const;

  void zero_grad();

  /// (parameter, gradient) pairs of trainable layers only — what the
  /// optimizer is allowed to update.
  [[nodiscard]] std::vector<ParamRef> trainable_params();

  /// All parameters, frozen or not (for tests/serialization checks).
  [[nodiscard]] std::vector<ParamRef> all_params();

  /// Total number of scalar parameters.
  [[nodiscard]] std::size_t parameter_count() const;

  [[nodiscard]] SequenceClassifier clone() const;

  void save(BinaryWriter& writer) const;
  void save_file(const std::filesystem::path& path) const;
  static SequenceClassifier load(BinaryReader& reader);
  static SequenceClassifier load_file(const std::filesystem::path& path);

 private:
  std::vector<std::unique_ptr<SequenceLayer>> layers_;
  Linear head_;
  std::size_t cached_batch_ = 0;
  std::size_t cached_steps_ = 0;
};

/// Builds the paper's general next-location model (Fig. 1a): two LSTM layers
/// with dropout in between, followed by a linear head.
[[nodiscard]] SequenceClassifier make_two_layer_lstm(
    std::size_t input_dim, std::size_t hidden_dim, std::size_t num_classes,
    double dropout_rate, Rng& rng);

/// Builds the single-layer LSTM baseline used in Table III/IV.
[[nodiscard]] SequenceClassifier make_one_layer_lstm(
    std::size_t input_dim, std::size_t hidden_dim, std::size_t num_classes,
    double dropout_rate, Rng& rng);

/// Serving-time int8 quantization (nn/quant.hpp): every Lstm becomes a
/// QuantizedLstm and the head becomes its int8 copy, both with per-row
/// scales; other layers (Dropout) are cloned unchanged. The result is
/// inference-only — backward() throws — and serializes as model-format-v2
/// sections under the same CRC-covered checkpoint container as fp32 models.
/// Outputs track the fp32 original within the quantization tolerance
/// documented in quant.hpp (NOT bit-identical).
[[nodiscard]] SequenceClassifier quantize_for_serving(
    const SequenceClassifier& model);

/// True if any layer or the head carries int8 weights (i.e. the model came
/// from quantize_for_serving, directly or via a checkpoint round-trip).
[[nodiscard]] bool is_quantized(const SequenceClassifier& model);

}  // namespace pelican::nn
