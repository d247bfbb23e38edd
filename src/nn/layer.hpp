// Layer abstraction for sequence models.
//
// A Sequence is a time-major list of (batch x dim) matrices. A layer has two
// forward paths with the same outputs, bit for bit:
//
//   infer()   — const inference. Writes only its result and call-local
//       scratch, so any number of threads may run it on one layer at once.
//       Serving, privacy-scaled queries and evaluation all go through it.
//   forward() — the training path. Caches whatever backward() needs.
//
// backward() always produces gradients with respect to the layer input —
// even for frozen layers — because the model-inversion attack (paper
// Section III-B2) differentiates the loss all the way down to the input
// encoding. Freezing only affects whether the optimizer updates parameters.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "nn/matrix.hpp"
#include "nn/sparse.hpp"

namespace pelican::nn {

/// Time-major minibatch: seq[t] is the (batch x dim) input at timestep t.
using Sequence = std::vector<Matrix>;

class SequenceLayer {
 public:
  virtual ~SequenceLayer() = default;

  /// Maps an input sequence to an output sequence of the same length,
  /// without touching the layer: the inference path (header comment).
  [[nodiscard]] virtual Sequence infer(const Sequence& input) const = 0;

  /// Sparse-input inference for one-hot encodings. The default densifies
  /// and delegates; layers with a real fast path override. Bit-identical to
  /// infer(to_dense(input)) — see nn/sparse.hpp for why — so callers may
  /// pick the encoding freely.
  [[nodiscard]] virtual Sequence infer(const SparseSequence& input) const {
    return infer(to_dense(input));
  }

  /// infer() plus the caches backward() consumes. `training` toggles
  /// stochastic behavior (dropout); with it off the outputs equal infer()'s.
  virtual Sequence forward(const Sequence& input, bool training) = 0;

  /// Sparse-input forward, the same contract as the sparse infer().
  virtual Sequence forward_sparse(const SparseSequence& input, bool training) {
    return forward(to_dense(input), training);
  }

  /// Backpropagates through the most recent forward() call. Accumulates
  /// parameter gradients and returns gradients w.r.t. the layer input.
  virtual Sequence backward(const Sequence& grad_output) = 0;

  /// Trainable tensors, paired index-for-index with gradients().
  virtual std::vector<Matrix*> parameters() = 0;
  virtual std::vector<Matrix*> gradients() = 0;

  void zero_grad() {
    for (Matrix* g : gradients()) g->zero();
  }

  /// Frozen layers still compute input gradients but are skipped by the
  /// optimizer (used by transfer-learning personalization, Fig. 1b/1c).
  void set_trainable(bool trainable) noexcept { trainable_ = trainable; }
  [[nodiscard]] bool trainable() const noexcept { return trainable_; }

  [[nodiscard]] virtual std::size_t input_dim() const = 0;
  [[nodiscard]] virtual std::size_t output_dim() const = 0;

  /// Multiply-adds one row costs per timestep in the dense form of infer()
  /// (0 for a layer without weights). Sizes pool splits (nn/parallel.hpp).
  [[nodiscard]] virtual std::size_t macs_per_step() const { return 0; }

  /// Deep copy, including weights; gradients and caches reset.
  [[nodiscard]] virtual std::unique_ptr<SequenceLayer> clone() const = 0;

  /// Stable type tag used by serialization ("lstm", "dropout").
  [[nodiscard]] virtual std::string kind() const = 0;

  virtual void save(BinaryWriter& writer) const = 0;

 private:
  bool trainable_ = true;
};

/// Reconstructs a layer written by SequenceLayer::save (dispatches on kind).
[[nodiscard]] std::unique_ptr<SequenceLayer> load_layer(BinaryReader& reader);

}  // namespace pelican::nn
