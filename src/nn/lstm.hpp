// LSTM layer (Hochreiter & Schmidhuber 1997) with full backpropagation
// through time, including gradients with respect to the input sequence.
//
// Gate layout in the fused (4H) dimension is [input, forget, cell, output].
// Initial hidden and cell states are zero. The layer maps a T-step sequence
// of (batch x input_dim) to a T-step sequence of (batch x hidden_dim); the
// paper's models read the final timestep.
#pragma once

#include <memory>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "nn/layer.hpp"

namespace pelican::nn {

class Lstm final : public SequenceLayer {
 public:
  Lstm() = default;
  Lstm(std::size_t input_dim, std::size_t hidden_dim, Rng& rng);

  Sequence infer(const Sequence& input) const override;

  /// One-hot fast path: computes x·W_ih^T as row gathers over the sparse
  /// entries (an embedding lookup of nnz rows of W_ih^T per timestep)
  /// instead of a dense input_dim x 4*hidden product. Bit-identical to the
  /// dense path for finite weights (nn/sparse.hpp).
  Sequence infer(const SparseSequence& input) const override;

  /// The same recurrence as infer(), also filling the per-step cache that
  /// backward() consumes; backward() works after either encoding.
  Sequence forward(const Sequence& input, bool training) override;
  Sequence forward_sparse(const SparseSequence& input, bool training) override;

  Sequence backward(const Sequence& grad_output) override;

  std::vector<Matrix*> parameters() override {
    return {&w_ih_, &w_hh_, &bias_};
  }
  std::vector<Matrix*> gradients() override {
    return {&grad_w_ih_, &grad_w_hh_, &grad_bias_};
  }

  [[nodiscard]] std::size_t input_dim() const override { return w_ih_.cols(); }
  [[nodiscard]] std::size_t output_dim() const override {
    return w_hh_.cols();
  }
  [[nodiscard]] std::size_t hidden_dim() const { return w_hh_.cols(); }

  [[nodiscard]] std::unique_ptr<SequenceLayer> clone() const override;
  [[nodiscard]] std::string kind() const override { return "lstm"; }

  void save(BinaryWriter& writer) const override;
  static std::unique_ptr<Lstm> load(BinaryReader& reader);

  /// Direct weight access for tests and hand-constructed models.
  [[nodiscard]] Matrix& w_ih() noexcept { return w_ih_; }
  [[nodiscard]] Matrix& w_hh() noexcept { return w_hh_; }
  [[nodiscard]] Matrix& bias() noexcept { return bias_; }
  [[nodiscard]] const Matrix& w_ih() const noexcept { return w_ih_; }
  [[nodiscard]] const Matrix& w_hh() const noexcept { return w_hh_; }
  [[nodiscard]] const Matrix& bias() const noexcept { return bias_; }

 private:
  // Parameters. w_ih_: (4H x I), w_hh_: (4H x H), bias_: (1 x 4H).
  Matrix w_ih_;
  Matrix w_hh_;
  Matrix bias_;
  Matrix grad_w_ih_;
  Matrix grad_w_hh_;
  Matrix grad_bias_;

  // Forward cache (per timestep) consumed by backward(). Exactly one of
  // input / sparse_input is populated, depending on which forward ran.
  struct StepCache {
    Matrix input;            // B x I (dense forward)
    SparseRows sparse_input; // B x I (sparse forward)
    Matrix gates;            // B x 4H, post-activation [i f g o]
    Matrix cell;             // B x H, c_t
    Matrix tanh_cell;        // B x H, tanh(c_t)
    Matrix prev_hidden;      // B x H, h_{t-1}
    Matrix prev_cell;        // B x H, c_{t-1}
  };
  std::vector<StepCache> cache_;

  /// The cache sink infer() passes: every timestep gets the same scratch
  /// StepCache, and the recurrence skips the fields only backward() reads.
  struct NoCache {
    StepCache scratch;
    StepCache& operator[](std::size_t /*t*/) noexcept { return scratch; }
  };
  template <typename Cache>
  static constexpr bool kCaches = !std::is_same_v<Cache, NoCache>;

  /// Each encoding's front: checks shapes, hoists the W_ih pack and runs
  /// the recurrence with its input product into `cache` (cache_ or NoCache).
  template <typename Cache>
  Sequence run_dense(const Sequence& input, Cache& cache) const;
  template <typename Cache>
  Sequence run_sparse(const SparseSequence& input, Cache& cache) const;

  /// The one recurrence body, with `input_product` supplying each
  /// timestep's x·W_ih^T pre-activations. Its cache is a compile-time sink:
  /// the training instantiation fills one StepCache per timestep, and the
  /// NoCache one compiles the StepCache copies away.
  template <typename Cache, typename InputProduct>
  Sequence run_forward(std::size_t steps, std::size_t batch, Cache& cache,
                       InputProduct&& input_product) const;
};

}  // namespace pelican::nn
