#include "nn/lstm.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
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

namespace {

/// Whether row r of x holds the bits of row r - 1.
bool same_as_row_above(const Matrix& x, std::size_t r) {
  return std::memcmp(x.row(r).data(), x.row(r - 1).data(),
                     x.cols() * sizeof(float)) == 0;
}

/// Sparse rows compare columns and value bits, so +0 and -0 entries differ.
bool same_as_row_above(const SparseRows& x, std::size_t r) {
  return std::ranges::equal(
      x.row(r), x.row(r - 1),
      [](const SparseRows::Entry& a, const SparseRows::Entry& b) {
        return a.col == b.col && std::bit_cast<std::uint32_t>(a.val) ==
                                     std::bit_cast<std::uint32_t>(b.val);
      });
}

/// out = the rows `rows` of x, in order.
void gather_rows(const Matrix& x, std::span<const std::size_t> rows,
                 Matrix& out) {
  out.resize(rows.size(), x.cols());
  for (std::size_t j = 0; j < rows.size(); ++j) {
    std::copy_n(x.row(rows[j]).data(), x.cols(), out.row(j).data());
  }
}

void gather_rows(const SparseRows& x, std::span<const std::size_t> rows,
                 SparseRows& out) {
  out = SparseRows(rows.size(), x.cols());
  for (std::size_t j = 0; j < rows.size(); ++j) {
    for (const SparseRows::Entry& e : x.row(rows[j])) out.add(j, e.col, e.val);
  }
}

/// Row r of `rows` = row g of `groups` for each r in [start[g], start[g+1]).
void expand_groups(const Matrix& groups, std::span<const std::size_t> start,
                   Matrix& rows) {
  rows.resize(start.back(), groups.cols());
  for (std::size_t g = 0; g + 1 < start.size(); ++g) {
    for (std::size_t r = start[g]; r < start[g + 1]; ++r) {
      std::copy_n(groups.row(g).data(), groups.cols(), rows.row(r).data());
    }
  }
}

}  // namespace

template <typename Cache, typename Rows, typename InputProduct>
Sequence Lstm::run_forward(const std::vector<Rows>& input, Cache& cache,
                           InputProduct&& input_product) const {
  if (input.empty()) throw std::invalid_argument("Lstm: empty input");
  const std::size_t steps = input.size();
  const std::size_t batch = input[0].rows();
  for (const Rows& x : input) {
    if (x.cols() != input_dim() || x.rows() != batch) {
      throw std::invalid_argument("Lstm: input shape mismatch");
    }
  }
  const std::size_t hidden = hidden_dim();
  const std::size_t width = 4 * hidden;

  if constexpr (kCaches<Cache>) {
    cache.clear();
    cache.resize(steps);
  }
  Sequence output(steps);

  // The recurrence weight is invariant across timesteps, so one pack is
  // shared by every step's product when the total work amortizes it: the
  // packed axpy kernel vectorizes across the 4H gate columns (nn/simd.hpp),
  // where the no-pack dot kernel is one serial chain per column. Very short
  // batch-1 windows stay on matmul_bt's dot kernel, which beats paying the
  // pack. Both forms compute each gate element's product chain from +0 —
  // identical bits (nn/matrix.hpp) — and the step adds that chain to the
  // input product once, as matmul_bt's accumulate mode does.
  const bool pack_recurrence = batch * steps >= kGemmPackMinRows;
  Matrix w_hh_t;
  if (pack_recurrence) transposed(w_hh_, w_hh_t);

  // The previous step's groups as row boundaries: group g is the rows
  // [prev[g], prev[g + 1]), and its state is row g of h_prev and c_prev.
  // Before step 0 every row holds the zero state: one group, whose h and c
  // are both the +0 row c_prev starts as.
  std::vector<std::size_t> prev =
      batch > 0 ? std::vector<std::size_t>{0, batch}
                : std::vector<std::size_t>{0};
  std::vector<std::size_t> next;
  Matrix c_prev(1, hidden);
  const Matrix* h_prev = &c_prev;
  Matrix h_leaders;  // h_prev when groups are fewer than rows
  Rows x_leaders;    // the input product's rows, likewise
  Matrix gates, chain, c_next, tanh_c;
  const float* bias = bias_.row(0).data();

  for (std::size_t t = 0; t < steps; ++t) {
    // Refine the groups: a row starts a new one unless it shares the row
    // above's previous group and its input at t. Rows that are each their
    // own group already stay so, without a compare.
    const bool refine = prev.size() <= batch;
    if (refine) {
      next.clear();
      next.reserve(batch + 1);
      for (std::size_t g = 0; g + 1 < prev.size(); ++g) {
        next.push_back(prev[g]);
        for (std::size_t r = prev[g] + 1; r < prev[g + 1]; ++r) {
          if (!same_as_row_above(input[t], r)) next.push_back(r);
        }
      }
      next.push_back(batch);
    }
    const std::vector<std::size_t>& start = refine ? next : prev;
    const std::size_t groups = start.size() - 1;
    const std::span<const std::size_t> leaders(start.data(), groups);

    // Pre-activations: gates = x W_ih^T + h_prev W_hh^T + b, once per
    // group. The caller's input product (dense GEMM or sparse gather;
    // identical bits either way) runs on each group's first row, the
    // recurrence chain is one product row per previous group, and the bias
    // joins in the gate pass.
    const Rows* x = &input[t];
    if (groups < batch) {
      gather_rows(input[t], leaders, x_leaders);
      x = &x_leaders;
    }
    input_product(*x, gates);
    if (pack_recurrence) {
      matmul(*h_prev, w_hh_t, chain);
    } else {
      matmul_bt(*h_prev, w_hh_, chain);
    }

    // Bias add, gate activations and the cell update in one sweep per
    // group (nn/activations.hpp); its h goes to the group's first row of
    // the output and is copied to the others.
    c_next.resize(groups, hidden);
    tanh_c.resize(groups, hidden);
    Matrix& h_next = output[t];
    h_next.resize(batch, hidden);
    std::size_t p = 0;  // the previous group holding group g
    for (std::size_t g = 0; g < groups; ++g) {
      while (prev[p + 1] <= start[g]) ++p;
      float* gate_row = gates.row(g).data();
      const float* chain_row = chain.row(p).data();
      for (std::size_t j = 0; j < width; ++j) gate_row[j] += chain_row[j];
      float* h = h_next.row(start[g]).data();
      lstm_gate_pass(gate_row, bias, c_prev.row(p).data(),
                     c_next.row(g).data(), tanh_c.row(g).data(), h, hidden);
      for (std::size_t r = start[g] + 1; r < start[g + 1]; ++r) {
        std::copy_n(h, hidden, h_next.row(r).data());
      }
    }

    if constexpr (kCaches<Cache>) {
      StepCache& step = cache[t];
      if constexpr (std::is_same_v<Rows, Matrix>) {
        step.input = input[t];
      } else {
        step.sparse_input = input[t];
      }
      step.prev_hidden = t == 0 ? Matrix(batch, hidden) : output[t - 1];
      step.prev_cell = t == 0 ? Matrix(batch, hidden) : cache[t - 1].cell;
      expand_groups(gates, start, step.gates);
      expand_groups(c_next, start, step.cell);
      expand_groups(tanh_c, start, step.tanh_cell);
    }

    std::swap(c_prev, c_next);
    if (groups == batch) {
      h_prev = &h_next;
    } else {
      gather_rows(h_next, leaders, h_leaders);
      h_prev = &h_leaders;
    }
    if (refine) std::swap(prev, next);
  }
  return output;
}

template <typename Cache>
Sequence Lstm::run_dense(const Sequence& input, Cache& cache) const {
  // Hoist the input-weight pack out of the timestep loop when the total
  // work amortizes it (matmul_bt would otherwise re-transpose w_ih_ every
  // step, and its small-batch fallback is the serial dot kernel); same bits
  // either way.
  Matrix w_ih_t;
  if (!input.empty() && input[0].rows() * input.size() >= kGemmPackMinRows) {
    transposed(w_ih_, w_ih_t);
  }
  return run_forward(input, cache, [&](const Matrix& x, Matrix& gates) {
    if (w_ih_t.empty()) {
      matmul_bt(x, w_ih_, gates);
    } else {
      matmul(x, w_ih_t, gates);
    }
  });
}

template <typename Cache>
Sequence Lstm::run_sparse(const SparseSequence& input, Cache& cache) const {
  // One packed W_ih^T is shared by every timestep's gather when the total
  // gathered work amortizes it; tiny batches gather strided columns of
  // W_ih directly instead (sparse_matmul_bt makes the same choice per call,
  // but could not share the pack across timesteps).
  std::size_t total_nnz = 0;
  for (const SparseRows& x : input) total_nnz += x.nnz();
  Matrix w_ih_t;
  if (total_nnz >= input_dim()) w_ih_t = transposed(w_ih_);
  return run_forward(input, cache, [&](const SparseRows& x, Matrix& gates) {
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
