#include "nn/quant_lstm.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "nn/activations.hpp"
#include "nn/parallel.hpp"

namespace pelican::nn {

QuantizedLstm::QuantizedLstm(QuantizedMatrix w_ih, QuantizedMatrix w_hh,
                             Matrix bias)
    : w_ih_(std::move(w_ih)), w_hh_(std::move(w_hh)), bias_(std::move(bias)) {
  if (w_ih_.rows() != w_hh_.rows() || w_ih_.rows() != 4 * w_hh_.cols() ||
      bias_.rows() != 1 || bias_.cols() != w_ih_.rows()) {
    throw std::invalid_argument("QuantizedLstm: inconsistent gate shapes");
  }
  set_trainable(false);
}

template <typename InputProduct>
Sequence QuantizedLstm::run_forward(std::size_t steps, std::size_t batch,
                                    std::size_t input_macs,
                                    InputProduct&& input_product) const {
  const std::size_t hidden = hidden_dim();
  const std::size_t width = 4 * hidden;
  Sequence output(steps, Matrix(batch, hidden));
  const float* bias = bias_.row(0).data();
  const std::span<const float> hh_scales = w_hh_.scales();

  const std::size_t tasks =
      row_tasks(batch, input_macs + steps * hidden * width);
  parallel_ranges(batch, tasks, [&](std::size_t r0, std::size_t r1) {
    const std::size_t rows = r1 - r0;
    std::vector<float> gates(rows * width);
    std::vector<float> c_prev(rows * hidden, 0.0f);
    std::vector<float> c_next(rows * hidden);
    std::vector<float> tanh_c(rows * hidden);  // scratch: no backward
    for (std::size_t t = 0; t < steps; ++t) {
      input_product(t, r0, r1, gates.data());
      if (t == 0) {
        // h_0 = +0, so every term of the recurrence chain is +0 * w = ±0
        // and the chain stays exactly +0; its finished value is +0 *
        // scale. Adding that value instead of running the product keeps
        // the bits of the full product, including -0 gates and non-finite
        // scales.
        for (std::size_t r = 0; r < rows; ++r) {
          float* g = gates.data() + r * width;
          for (std::size_t j = 0; j < width; ++j) g[j] += 0.0f * hh_scales[j];
        }
      } else {
        qgemm_rows(output[t - 1].data() + r0 * hidden, hidden, rows,
                   w_hh_, gates.data(), width, /*accumulate=*/true);
      }
      float* h_out = output[t].data() + r0 * hidden;
      for (std::size_t r = 0; r < rows; ++r) {
        lstm_gate_pass(gates.data() + r * width, bias,
                       c_prev.data() + r * hidden, c_next.data() + r * hidden,
                       tanh_c.data() + r * hidden, h_out + r * hidden,
                       hidden);
      }
      std::swap(c_prev, c_next);
    }
  });
  return output;
}

Sequence QuantizedLstm::infer(const Sequence& input) const {
  if (input.empty()) {
    throw std::invalid_argument("QuantizedLstm: empty input");
  }
  const std::size_t batch = input[0].rows();
  for (const Matrix& x : input) {
    if (x.cols() != input_dim() || x.rows() != batch) {
      throw std::invalid_argument("QuantizedLstm: shape mismatch");
    }
  }
  const std::size_t in = input_dim();
  return run_forward(
      input.size(), batch, input.size() * in * 4 * hidden_dim(),
      [&](std::size_t t, std::size_t r0, std::size_t r1, float* gates) {
        qgemm_rows(input[t].data() + r0 * in, in, r1 - r0, w_ih_, gates,
                   4 * hidden_dim(), /*accumulate=*/false);
      });
}

Sequence QuantizedLstm::infer(const SparseSequence& input) const {
  if (input.empty()) {
    throw std::invalid_argument("QuantizedLstm: empty sparse input");
  }
  const std::size_t batch = input[0].rows();
  std::size_t nnz = 0;
  for (const SparseRows& x : input) {
    if (x.cols() != input_dim() || x.rows() != batch) {
      throw std::invalid_argument("QuantizedLstm: sparse shape mismatch");
    }
    nnz += x.nnz();
  }
  return run_forward(
      input.size(), batch,
      nnz * 4 * hidden_dim() / std::max<std::size_t>(batch, 1),
      [&](std::size_t t, std::size_t r0, std::size_t r1, float* gates) {
        sparse_qgemm_rows(input[t], r0, r1, w_ih_, gates, 4 * hidden_dim());
      });
}

Sequence QuantizedLstm::backward(const Sequence& /*grad_output*/) {
  throw std::logic_error(
      "QuantizedLstm::backward: quantized layers are inference-only; train "
      "the fp32 original and re-publish");
}

std::unique_ptr<SequenceLayer> QuantizedLstm::clone() const {
  return std::make_unique<QuantizedLstm>(*this);
}

void QuantizedLstm::save(BinaryWriter& writer) const {
  writer.write_string(kind());
  w_ih_.save(writer);
  w_hh_.save(writer);
  writer.write_f32_span(bias_.flat());
}

std::unique_ptr<QuantizedLstm> QuantizedLstm::load(BinaryReader& reader) {
  QuantizedMatrix w_ih = QuantizedMatrix::load(reader);
  QuantizedMatrix w_hh = QuantizedMatrix::load(reader);
  Matrix bias(1, w_ih.rows());
  const auto b = reader.read_f32_vector();
  if (b.size() != bias.size()) {
    throw SerializeError("QuantizedLstm::load: bias size mismatch");
  }
  std::copy(b.begin(), b.end(), bias.data());
  return std::make_unique<QuantizedLstm>(std::move(w_ih), std::move(w_hh),
                                         std::move(bias));
}

}  // namespace pelican::nn
