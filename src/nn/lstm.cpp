#include "nn/lstm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/activations.hpp"

namespace pelican::nn {

Lstm::Lstm(std::size_t input_dim, std::size_t hidden_dim, Rng& rng)
    : w_ih_(Matrix::xavier(4 * hidden_dim, input_dim, rng)),
      w_hh_(Matrix::xavier(4 * hidden_dim, hidden_dim, rng)),
      bias_(1, 4 * hidden_dim, 0.0f),
      grad_w_ih_(4 * hidden_dim, input_dim, 0.0f),
      grad_w_hh_(4 * hidden_dim, hidden_dim, 0.0f),
      grad_bias_(1, 4 * hidden_dim, 0.0f) {
  // Forget-gate bias starts at 1 so early training does not erase state —
  // standard practice (Jozefowicz et al. 2015).
  const std::size_t h = hidden_dim;
  for (std::size_t j = 0; j < h; ++j) bias_(0, h + j) = 1.0f;
}

template <typename Cache, typename InputProduct>
Sequence Lstm::run_forward(std::size_t steps, std::size_t batch, Cache& cache,
                           InputProduct&& input_product) const {
  const std::size_t hidden = hidden_dim();

  if constexpr (kCaches<Cache>) {
    cache.clear();
    cache.resize(steps);
  }
  Sequence output(steps);

  Matrix h_prev(batch, hidden, 0.0f);
  Matrix c_prev(batch, hidden, 0.0f);

  // The recurrence weight is invariant across timesteps, so one pack is
  // shared by every step's product when the total work amortizes it: the
  // packed axpy kernel vectorizes across the 4H gate columns (nn/simd.hpp),
  // where the no-pack dot kernel is one serial chain per column — at batch
  // 1 this product is most of the step time. Very short batch-1 windows
  // stay on matmul_bt's dot kernel, which beats paying the pack. Both forms
  // compute each gate element's product chain from +0 and add it to the
  // input product once — identical bits, the matmul_bt accumulate contract.
  const bool pack_recurrence = batch * steps >= kGemmPackMinRows;
  Matrix w_hh_t;
  if (pack_recurrence) transposed(w_hh_, w_hh_t);
  Matrix hidden_chain;

  for (std::size_t t = 0; t < steps; ++t) {
    StepCache& step = cache[t];
    if constexpr (kCaches<Cache>) {
      step.prev_hidden = h_prev;
      step.prev_cell = c_prev;
    }

    // Pre-activations: gates = x W_ih^T + h_prev W_hh^T + b. The input
    // product is supplied by the caller (dense GEMM or sparse gather);
    // both leave gates with identical bits, so everything downstream is
    // shared.
    Matrix gates;
    input_product(t, step, gates);
    if (pack_recurrence) {
      matmul(h_prev, w_hh_t, hidden_chain);
      gates += hidden_chain;
    } else {
      matmul_bt(h_prev, w_hh_, gates, /*accumulate=*/true);
    }

    step.cell.resize(batch, hidden);
    step.tanh_cell.resize(batch, hidden);
    Matrix h_next(batch, hidden);

    // Bias add, gate activations, and the cell update in ONE sweep over the
    // gates buffer (nn/activations.hpp), the identical per-element
    // operation chain the unfused loop did.
    const float* bias = bias_.row(0).data();
    for (std::size_t r = 0; r < batch; ++r) {
      lstm_gate_pass(gates.data() + r * 4 * hidden, bias,
                     c_prev.data() + r * hidden,
                     step.cell.data() + r * hidden,
                     step.tanh_cell.data() + r * hidden,
                     h_next.data() + r * hidden, hidden);
    }

    step.gates = std::move(gates);
    h_prev = h_next;
    c_prev = step.cell;
    output[t] = std::move(h_next);
  }
  return output;
}

template <typename Cache>
Sequence Lstm::run_dense(const Sequence& input, Cache& cache) const {
  if (input.empty()) throw std::invalid_argument("Lstm: empty input");
  const std::size_t batch = input[0].rows();
  // Hoist the input-weight pack out of the timestep loop when the total
  // work amortizes it (matmul_bt would otherwise re-transpose w_ih_ every
  // step, and its small-batch fallback is the serial dot kernel); same bits
  // either way.
  Matrix w_ih_t;
  if (batch * input.size() >= kGemmPackMinRows) transposed(w_ih_, w_ih_t);
  return run_forward(input.size(), batch, cache,
                     [&](std::size_t t, StepCache& step, Matrix& gates) {
                       const Matrix& x = input[t];
                       if (x.cols() != input_dim() || x.rows() != batch) {
                         throw std::invalid_argument(
                             "Lstm: input shape mismatch");
                       }
                       if constexpr (kCaches<Cache>) step.input = x;
                       if (w_ih_t.empty()) {
                         matmul_bt(x, w_ih_, gates);
                       } else {
                         matmul(x, w_ih_t, gates);
                       }
                     });
}

template <typename Cache>
Sequence Lstm::run_sparse(const SparseSequence& input, Cache& cache) const {
  if (input.empty()) throw std::invalid_argument("Lstm: empty input");
  const std::size_t batch = input[0].rows();
  // One packed W_ih^T is shared by every timestep's gather when the total
  // gathered work amortizes it; tiny batches gather strided columns of
  // W_ih directly instead (sparse_matmul_bt makes the same choice per call,
  // but could not share the pack across timesteps).
  std::size_t total_nnz = 0;
  for (const SparseRows& x : input) total_nnz += x.nnz();
  Matrix w_ih_t;
  if (total_nnz >= input_dim()) w_ih_t = transposed(w_ih_);

  return run_forward(input.size(), batch, cache,
                     [&](std::size_t t, StepCache& step, Matrix& gates) {
                       const SparseRows& x = input[t];
                       if (x.cols() != input_dim() || x.rows() != batch) {
                         throw std::invalid_argument(
                             "Lstm: sparse input shape mismatch");
                       }
                       if constexpr (kCaches<Cache>) step.sparse_input = x;
                       if (w_ih_t.empty()) {
                         sparse_matmul_bt(x, w_ih_, gates);
                       } else {
                         sparse_matmul_pre_t(x, w_ih_t, gates);
                       }
                     });
}

Sequence Lstm::infer(const Sequence& input) const {
  NoCache none;
  return run_dense(input, none);
}

Sequence Lstm::infer(const SparseSequence& input) const {
  NoCache none;
  return run_sparse(input, none);
}

Sequence Lstm::forward(const Sequence& input, bool /*training*/) {
  return run_dense(input, cache_);
}

Sequence Lstm::forward_sparse(const SparseSequence& input, bool /*training*/) {
  return run_sparse(input, cache_);
}

Sequence Lstm::backward(const Sequence& grad_output) {
  if (grad_output.size() != cache_.size() || cache_.empty()) {
    throw std::invalid_argument("Lstm::backward: no matching forward cache");
  }
  const std::size_t steps = cache_.size();
  const std::size_t batch = cache_[0].gates.rows();
  const std::size_t hidden = hidden_dim();

  Sequence grad_input(steps);
  Matrix dh_next(batch, hidden, 0.0f);  // dL/dh_t carried from t+1
  Matrix dc_next(batch, hidden, 0.0f);  // dL/dc_t carried from t+1
  Matrix dgates(batch, 4 * hidden);

  for (std::size_t ti = steps; ti-- > 0;) {
    const StepCache& step = cache_[ti];

    // Total gradient on h_t: from this timestep's output plus recurrence.
    Matrix dh = grad_output[ti];
    if (dh.empty()) dh = Matrix(batch, hidden, 0.0f);
    dh += dh_next;

    for (std::size_t r = 0; r < batch; ++r) {
      const float* g = step.gates.data() + r * 4 * hidden;
      const float* tc = step.tanh_cell.data() + r * hidden;
      const float* cp = step.prev_cell.data() + r * hidden;
      const float* dh_row = dh.data() + r * hidden;
      float* dc_row = dc_next.data() + r * hidden;
      float* dg = dgates.data() + r * 4 * hidden;
      for (std::size_t j = 0; j < hidden; ++j) {
        const float gi = g[j];
        const float gf = g[hidden + j];
        const float gg = g[2 * hidden + j];
        const float go = g[3 * hidden + j];
        const float dho = dh_row[j];
        // dL/dc_t = carried dc + dh * o * (1 - tanh(c)^2)
        const float dc = dc_row[j] + dho * go * (1.0f - tc[j] * tc[j]);
        const float di = dc * gg;
        const float df = dc * cp[j];
        const float dgg = dc * gi;
        const float dgo = dho * tc[j];
        // Through gate nonlinearities to pre-activations.
        dg[j] = di * gi * (1.0f - gi);
        dg[hidden + j] = df * gf * (1.0f - gf);
        dg[2 * hidden + j] = dgg * (1.0f - gg * gg);
        dg[3 * hidden + j] = dgo * go * (1.0f - go);
        dc_row[j] = dc * gf;  // becomes dc_{t-1}
      }
    }

    // Parameter gradients accumulate across timesteps and minibatches.
    // The input-weight gradient reads whichever encoding the forward
    // cached; the sparse update touches only the nnz active columns.
    if (step.input.empty() && !step.sparse_input.empty()) {
      sparse_matmul_at(dgates, step.sparse_input, grad_w_ih_,
                       /*accumulate=*/true);
    } else {
      matmul_at(dgates, step.input, grad_w_ih_, /*accumulate=*/true);
    }
    matmul_at(dgates, step.prev_hidden, grad_w_hh_, /*accumulate=*/true);
    column_sums(dgates, grad_bias_.row(0));

    matmul(dgates, w_ih_, grad_input[ti]);
    matmul(dgates, w_hh_, dh_next);
  }
  return grad_input;
}

std::unique_ptr<SequenceLayer> Lstm::clone() const {
  auto copy = std::make_unique<Lstm>();
  copy->w_ih_ = w_ih_;
  copy->w_hh_ = w_hh_;
  copy->bias_ = bias_;
  copy->grad_w_ih_ = Matrix(w_ih_.rows(), w_ih_.cols());
  copy->grad_w_hh_ = Matrix(w_hh_.rows(), w_hh_.cols());
  copy->grad_bias_ = Matrix(1, bias_.cols());
  copy->set_trainable(trainable());
  return copy;
}

void Lstm::save(BinaryWriter& writer) const {
  writer.write_string(kind());
  writer.write_u64(input_dim());
  writer.write_u64(hidden_dim());
  writer.write_f32_span(w_ih_.flat());
  writer.write_f32_span(w_hh_.flat());
  writer.write_f32_span(bias_.flat());
  writer.write_u8(trainable() ? 1 : 0);
}

std::unique_ptr<Lstm> Lstm::load(BinaryReader& reader) {
  const std::uint64_t input_dim = reader.read_u64();
  const std::uint64_t hidden = reader.read_u64();
  // The stored vectors come first: the reader bounds their lengths by the
  // bytes left, so hostile header dimensions can only fail the comparison
  // below, never size an allocation.
  const std::vector<float> w_ih = reader.read_f32_vector();
  const std::vector<float> w_hh = reader.read_f32_vector();
  const std::vector<float> bias = reader.read_f32_vector();
  const std::uint64_t gates = checked_product(4, hidden, "Lstm::load");
  if (w_ih.size() != checked_product(gates, input_dim, "Lstm::load") ||
      w_hh.size() != checked_product(gates, hidden, "Lstm::load") ||
      bias.size() != gates) {
    throw SerializeError("Lstm::load: size mismatch");
  }

  auto layer = std::make_unique<Lstm>();
  layer->w_ih_.resize(gates, input_dim);
  layer->w_hh_.resize(gates, hidden);
  layer->bias_.resize(1, gates);
  std::copy(w_ih.begin(), w_ih.end(), layer->w_ih_.data());
  std::copy(w_hh.begin(), w_hh.end(), layer->w_hh_.data());
  std::copy(bias.begin(), bias.end(), layer->bias_.data());
  layer->grad_w_ih_.resize(gates, input_dim);
  layer->grad_w_hh_.resize(gates, hidden);
  layer->grad_bias_.resize(1, gates);
  layer->set_trainable(reader.read_u8() != 0);
  return layer;
}

}  // namespace pelican::nn
