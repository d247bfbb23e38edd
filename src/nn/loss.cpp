#include "nn/loss.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pelican::nn {

Matrix softmax(const Matrix& logits, double temperature) {
  if (!(temperature > 0.0)) {
    throw std::invalid_argument("softmax: temperature must be > 0");
  }
  Matrix probs(logits.rows(), logits.cols());
  std::vector<double> scaled(logits.cols());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const auto row = logits.row(r);
    double max_scaled = -1e300;
    for (std::size_t c = 0; c < row.size(); ++c) {
      scaled[c] = static_cast<double>(row[c]) / temperature;
      max_scaled = std::max(max_scaled, scaled[c]);
    }
    double total = 0.0;
    for (std::size_t c = 0; c < row.size(); ++c) {
      scaled[c] = std::exp(scaled[c] - max_scaled);
      total += scaled[c];
    }
    auto out = probs.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) {
      out[c] = static_cast<float>(scaled[c] / total);
    }
  }
  return probs;
}

Matrix log_softmax(const Matrix& logits) {
  Matrix out(logits.rows(), logits.cols());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const auto row = logits.row(r);
    double max_logit = -1e300;
    for (const float z : row) {
      max_logit = std::max(max_logit, static_cast<double>(z));
    }
    double total = 0.0;
    for (const float z : row) total += std::exp(z - max_logit);
    const double log_norm = max_logit + std::log(total);
    auto out_row = out.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) {
      out_row[c] = static_cast<float>(row[c] - log_norm);
    }
  }
  return out;
}

LossResult softmax_cross_entropy(const Matrix& logits,
                                 std::span<const std::int32_t> labels) {
  if (labels.size() != logits.rows()) {
    throw std::invalid_argument("softmax_cross_entropy: label count");
  }
  const std::size_t batch = logits.rows();
  const std::size_t classes = logits.cols();
  const Matrix log_probs = log_softmax(logits);

  LossResult result;
  result.grad_logits.resize(batch, classes);
  const float inv_batch = 1.0f / static_cast<float>(batch);
  double total_loss = 0.0;
  for (std::size_t r = 0; r < batch; ++r) {
    const auto label = labels[r];
    if (label < 0 || static_cast<std::size_t>(label) >= classes) {
      throw std::invalid_argument("softmax_cross_entropy: label out of range");
    }
    total_loss -= log_probs(r, static_cast<std::size_t>(label));
    auto grad_row = result.grad_logits.row(r);
    const auto lp_row = log_probs.row(r);
    for (std::size_t c = 0; c < classes; ++c) {
      grad_row[c] = std::exp(lp_row[c]) * inv_batch;
    }
    grad_row[static_cast<std::size_t>(label)] -= inv_batch;
  }
  result.loss = total_loss / static_cast<double>(batch);
  return result;
}

namespace {

/// True when score a ranks strictly above score b: a larger number, or any
/// number against NaN. Equal numbers (-0 and +0 included) tie, as do two
/// NaNs.
template <typename Float>
bool ranks_above(Float a, Float b) noexcept {
  return a > b || (b != b && a == a);
}

/// One pass over the scores with the best so far in top[0..kept), sorted.
/// A score enters only when it ranks above the last kept one, so a later
/// index loses every tie and the slots never reorder equal scores.
template <typename Float>
std::size_t topk_impl(std::span<const Float> scores,
                      std::span<std::size_t> top) noexcept {
  const std::size_t k = std::min(top.size(), scores.size());
  std::size_t kept = 0;
  Float last{};  // scores[top[k - 1]] once every slot is kept
  for (std::size_t i = 0; k > 0 && i < scores.size(); ++i) {
    const Float score = scores[i];
    std::size_t slot = kept;
    if (kept == k) {
      if (!ranks_above(score, last)) continue;
      slot = k - 1;
    } else {
      ++kept;
    }
    for (; slot > 0 && ranks_above(score, scores[top[slot - 1]]); --slot) {
      top[slot] = top[slot - 1];
    }
    top[slot] = i;
    if (kept == k) last = scores[top[k - 1]];
  }
  return k;
}

template <typename Float>
std::vector<std::size_t> topk_vector(std::span<const Float> scores,
                                     std::size_t k) {
  std::vector<std::size_t> top(std::min(k, scores.size()));
  topk_impl(scores, std::span<std::size_t>(top));
  return top;
}

}  // namespace

std::size_t topk_into(std::span<const float> scores,
                      std::span<std::size_t> top) noexcept {
  return topk_impl(scores, top);
}

std::size_t topk_into(std::span<const double> scores,
                      std::span<std::size_t> top) noexcept {
  return topk_impl(scores, top);
}

std::vector<std::size_t> topk_indices(std::span<const float> scores,
                                      std::size_t k) {
  return topk_vector(scores, k);
}

std::vector<std::size_t> topk_indices(std::span<const double> scores,
                                      std::size_t k) {
  return topk_vector(scores, k);
}

std::vector<std::vector<std::size_t>> topk_rows(const Matrix& scores,
                                                std::size_t k) {
  std::vector<std::vector<std::size_t>> out;
  out.reserve(scores.rows());
  for (std::size_t r = 0; r < scores.rows(); ++r) {
    out.push_back(topk_vector(scores.row(r), k));
  }
  return out;
}

}  // namespace pelican::nn
