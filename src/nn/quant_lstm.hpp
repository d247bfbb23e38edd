// Inference-only LSTM over int8-quantized weights (nn/quant.hpp): the
// serving-path counterpart of nn::Lstm, produced by quantize_for_serving()
// at model-publish time.
//
// Same recurrence, same [i f g o] gate layout, same fused gate pass
// (nn/activations.hpp); only the weight products differ: the input product
// gathers one contiguous int8 column per one-hot entry (dequant-free — see
// quant.hpp) and the recurrence accumulates fp32 activations against int8
// weights a quarter the size of their fp32 originals. A batch splits into
// row ranges across the pool, each running every timestep on its own, and
// the first step skips the product of the all-zero initial state, whose
// exact value it adds instead.
//
// Inference-only is structural, not a convention: there is no forward
// cache (forward() is infer()), backward() throws, parameters()/gradients()
// are empty, and the layer constructs untrainable. Training always happens
// in fp32; a quantized artifact is what the store publishes for serving
// (ModelStore PublishFormat::kInt8).
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.hpp"
#include "nn/quant.hpp"

namespace pelican::nn {

class QuantizedLstm final : public SequenceLayer {
 public:
  QuantizedLstm() = default;

  /// Takes already-quantized gate weights (w_ih: 4H x I, w_hh: 4H x H, both
  /// with per-row scales) and the fp32 bias (1 x 4H — bias stays fp32: it
  /// is 4H floats total and feeds the fused gate pass directly).
  QuantizedLstm(QuantizedMatrix w_ih, QuantizedMatrix w_hh, Matrix bias);

  Sequence infer(const Sequence& input) const override;
  Sequence infer(const SparseSequence& input) const override;

  Sequence forward(const Sequence& input, bool /*training*/) override {
    return infer(input);
  }
  Sequence forward_sparse(const SparseSequence& input,
                          bool /*training*/) override {
    return infer(input);
  }

  /// Quantized layers are inference-only; the fp32 original is the
  /// trainable artifact.
  Sequence backward(const Sequence& grad_output) override;

  std::vector<Matrix*> parameters() override { return {}; }
  std::vector<Matrix*> gradients() override { return {}; }

  [[nodiscard]] std::size_t input_dim() const override {
    return w_ih_.cols();
  }
  [[nodiscard]] std::size_t output_dim() const override {
    return w_hh_.cols();
  }
  [[nodiscard]] std::size_t hidden_dim() const { return w_hh_.cols(); }
  [[nodiscard]] std::size_t macs_per_step() const override {
    return w_ih_.rows() * (w_ih_.cols() + w_hh_.cols());
  }

  [[nodiscard]] std::unique_ptr<SequenceLayer> clone() const override;
  [[nodiscard]] std::string kind() const override { return "qlstm"; }

  [[nodiscard]] const Matrix& bias() const noexcept { return bias_; }

  void save(BinaryWriter& writer) const override;
  static std::unique_ptr<QuantizedLstm> load(BinaryReader& reader);

 private:
  /// Shared recurrence body. The batch's rows are independent through
  /// every timestep, so they split into contiguous ranges across the pool
  /// (row_tasks of them), each range running all timesteps on its own.
  /// `input_product(t, r0, r1, gates)` writes this timestep's input product
  /// for rows [r0, r1) into `gates` (4H floats per row): the dense int8
  /// product or the sparse panel gather. `input_macs` is its multiply-adds
  /// per row over all timesteps, which sizes the pool split.
  template <typename InputProduct>
  Sequence run_forward(std::size_t steps, std::size_t batch,
                       std::size_t input_macs,
                       InputProduct&& input_product) const;

  // The gate weights (4H rows, per-row scales); immutable.
  QuantizedMatrix w_ih_;              // 4H x I: gather + dense input product
  QuantizedMatrix w_hh_;              // 4H x H: recurrence
  Matrix bias_;                       // 1 x 4H, fp32
};

}  // namespace pelican::nn
