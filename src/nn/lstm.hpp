// LSTM layer (Hochreiter & Schmidhuber 1997) with full backpropagation
// through time, including gradients with respect to the input sequence.
//
// Gate layout in the fused (4H) dimension is [input, forget, cell, output].
// Initial hidden and cell states are zero. The layer maps a T-step sequence
// of (batch x input_dim) to a T-step sequence of (batch x hidden_dim); the
// paper's models read the final timestep.
//
// Shared prefixes are computed once. At each timestep the batch's rows fall
// into groups of adjacent rows with one state: a row joins the group of the
// row above it when both were in one group at the previous step and their
// inputs at this step are bit-equal (memcmp for dense rows, column and value
// bits for sparse ones, so +0 and -0 entries differ). Before step 0 every
// row is in one group, the zero state. A step runs the input product and
// the gate pass once per group and the recurrence product once per
// previous-step group, then copies each group's h to its rows.
//
// This is exact: every output row of a product depends only on its own
// input row (the nn/matrix.hpp contract), so a group's result has the bits
// each member would compute alone, and the zero state's chain, computed as
// one row, has the bits of every row's (non-finite weights included).
// Training runs the same step and expands each group into the per-row
// caches backward() reads. A batch of distinct rows costs one row compare
// per row at step 0 and none after it. The inputs that gain are attack
// queries whose candidates share a known step in adjacent rows: brute-force
// and time-based A1 copy x_{t-2} into every candidate, and A3 emits runs
// that share their context step (attack/enumeration.hpp). A2 queries and
// batch-1 serving share only the zero state.
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
  [[nodiscard]] std::size_t macs_per_step() const override {
    return w_ih_.rows() * (w_ih_.cols() + w_hh_.cols());
  }

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

  /// The cache sink infer() passes: nothing is kept for backward().
  struct NoCache {};
  template <typename Cache>
  static constexpr bool kCaches = !std::is_same_v<Cache, NoCache>;

  /// Each encoding's front: hoists the W_ih pack and runs the recurrence
  /// with its input product into `cache` (cache_ or NoCache).
  template <typename Cache>
  Sequence run_dense(const Sequence& input, Cache& cache) const;
  template <typename Cache>
  Sequence run_sparse(const SparseSequence& input, Cache& cache) const;

  /// The one recurrence body over either encoding (Rows is Matrix or
  /// SparseRows), with the groups of the header comment: it checks shapes,
  /// and `input_product(rows, gates)` writes the x·W_ih^T pre-activations
  /// of `rows`, each group's first row. Its cache is a compile-time sink:
  /// the training instantiation expands each group's values into one
  /// per-row StepCache per timestep, and the NoCache one keeps nothing.
  template <typename Cache, typename Rows, typename InputProduct>
  Sequence run_forward(const std::vector<Rows>& input, Cache& cache,
                       InputProduct&& input_product) const;
};

}  // namespace pelican::nn
