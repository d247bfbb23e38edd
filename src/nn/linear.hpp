// Fully-connected layer y = x W^T + b operating on single (batch x dim)
// matrices. Used as the classification head over the last LSTM timestep
// (Fig. 1a-c all end in a Linear layer).
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "nn/matrix.hpp"
#include "nn/quant.hpp"
#include "nn/sparse.hpp"

namespace pelican::nn {

class Linear {
 public:
  Linear() = default;

  /// Xavier-initialized weight (out_dim x in_dim), zero bias.
  Linear(std::size_t in_dim, std::size_t out_dim, Rng& rng);

  /// y = x W^T + b, the const inference path: writes nothing but y.
  [[nodiscard]] Matrix infer(const Matrix& x) const;

  /// One-hot fast path: x W^T as nnz row gathers of W^T. Bit-identical to
  /// infer(x.to_dense()) for finite weights (nn/sparse.hpp).
  [[nodiscard]] Matrix infer(const SparseRows& x) const;

  /// infer(x), also caching x for backward() (fp32 heads only; backward()
  /// works after either encoding).
  [[nodiscard]] Matrix forward(const Matrix& x);
  [[nodiscard]] Matrix forward(const SparseRows& x);

  /// Accumulates dW, db; returns dx. Throws std::logic_error on a
  /// quantized (inference-only) layer.
  [[nodiscard]] Matrix backward(const Matrix& grad_output);

  /// Int8-quantized copy for serving (per-row scales, nn/quant.hpp): the
  /// copy stores no fp32 weight, forwards through the int8 kernels, and is
  /// untrainable. Bias stays fp32 (out_dim floats). Like QuantizedLstm,
  /// quantized heads serialize as their own checkpoint section.
  [[nodiscard]] Linear quantized() const;
  [[nodiscard]] bool is_quantized() const noexcept {
    return !qweight_.empty();
  }

  [[nodiscard]] std::vector<Matrix*> parameters() { return {&weight_, &bias_}; }
  [[nodiscard]] std::vector<Matrix*> gradients() {
    return {&grad_weight_, &grad_bias_};
  }
  void zero_grad() {
    grad_weight_.zero();
    grad_bias_.zero();
  }

  void set_trainable(bool trainable) noexcept { trainable_ = trainable; }
  [[nodiscard]] bool trainable() const noexcept { return trainable_; }

  [[nodiscard]] std::size_t input_dim() const noexcept {
    return is_quantized() ? qweight_.cols() : weight_.cols();
  }
  [[nodiscard]] std::size_t output_dim() const noexcept {
    return is_quantized() ? qweight_.rows() : weight_.rows();
  }

  [[nodiscard]] Matrix& weight() noexcept { return weight_; }
  [[nodiscard]] const Matrix& weight() const noexcept { return weight_; }
  [[nodiscard]] Matrix& bias() noexcept { return bias_; }
  [[nodiscard]] const Matrix& bias() const noexcept { return bias_; }

  void save(BinaryWriter& writer) const;
  static Linear load(BinaryReader& reader);

 private:
  Matrix weight_;            // out_dim x in_dim (fp32 mode; empty when int8)
  QuantizedMatrix qweight_;  // int8 mode (empty in fp32 mode)
  Matrix bias_;              // 1 x out_dim, always fp32
  Matrix grad_weight_;  // same shape as weight_
  Matrix grad_bias_;
  // Input cached by the last forward(); exactly one is populated.
  Matrix cached_input_;
  SparseRows cached_sparse_;
  bool trainable_ = true;
};

}  // namespace pelican::nn
