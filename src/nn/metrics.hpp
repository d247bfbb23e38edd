// Top-k accuracy — the paper's sole efficacy metric ("identify the top-k
// most likely locations from the model output and assess whether the true
// location is a subset of that", Section IV-A).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "nn/data.hpp"
#include "nn/model.hpp"

namespace pelican::nn {

/// Materializes the indexed batch in the source's preferred encoding
/// (sparse one-hot when BatchSource::sparse(), dense otherwise), runs the
/// training forward (caching for backward), and fills `y`. Logits are
/// bit-identical across encodings.
[[nodiscard]] Matrix forward_batch(SequenceClassifier& model,
                                   const BatchSource& data,
                                   std::span<const std::uint32_t> indices,
                                   std::vector<std::int32_t>& y);

/// The same batch through the const inference path, for evaluation.
[[nodiscard]] Matrix infer_batch(const SequenceClassifier& model,
                                 const BatchSource& data,
                                 std::span<const std::uint32_t> indices,
                                 std::vector<std::int32_t>& y);

/// Fraction of samples whose label is among the k highest logits.
[[nodiscard]] double topk_accuracy(const SequenceClassifier& model,
                                   const BatchSource& data, std::size_t k,
                                   std::size_t batch_size = 256);

/// Evaluates several k values in one pass over the data.
[[nodiscard]] std::vector<double> topk_accuracies(
    const SequenceClassifier& model, const BatchSource& data,
    std::span<const std::size_t> ks, std::size_t batch_size = 256);

/// Top-k hit test on a single score row.
[[nodiscard]] bool topk_hit(std::span<const float> scores, std::size_t label,
                            std::size_t k);

}  // namespace pelican::nn
