// Inverted dropout over sequence activations. Active only in training mode;
// at inference it is the identity, so deployed models (and attacks against
// them) see deterministic outputs. The paper uses dropout 0.1 between the
// general model's LSTM layers.
#pragma once

#include <memory>

#include "common/rng.hpp"
#include "nn/layer.hpp"

namespace pelican::nn {

class Dropout final : public SequenceLayer {
 public:
  Dropout() = default;

  /// `rate` in [0, 1): probability of zeroing an activation.
  Dropout(double rate, std::size_t dim, std::uint64_t seed);

  /// Inference is the identity.
  using SequenceLayer::infer;
  Sequence infer(const Sequence& input) const override { return input; }

  Sequence forward(const Sequence& input, bool training) override;
  Sequence backward(const Sequence& grad_output) override;

  std::vector<Matrix*> parameters() override { return {}; }
  std::vector<Matrix*> gradients() override { return {}; }

  [[nodiscard]] std::size_t input_dim() const override { return dim_; }
  [[nodiscard]] std::size_t output_dim() const override { return dim_; }
  [[nodiscard]] double rate() const noexcept { return rate_; }

  [[nodiscard]] std::unique_ptr<SequenceLayer> clone() const override;
  [[nodiscard]] std::string kind() const override { return "dropout"; }

  void save(BinaryWriter& writer) const override;
  static std::unique_ptr<Dropout> load(BinaryReader& reader);

 private:
  double rate_ = 0.0;
  std::size_t dim_ = 0;
  Rng rng_{0};
  Sequence masks_;  // cached keep-masks (scaled) from the last training pass
  bool last_was_training_ = false;
};

}  // namespace pelican::nn
