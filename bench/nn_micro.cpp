// Library-level microbenchmarks (google-benchmark): the kernels every
// experiment sits on — GEMM (packed dense + batch-1 column split), the LSTM
// forward in both encodings (dense vs one-hot SparseRows), softmax at the
// privacy layer's extreme temperatures, and batched black-box queries.
//
// Besides the google-benchmark output, main() times the ISSUE-4-tracked
// kernel comparisons with the harness Stopwatch and drops them as a Table
// JSON (build/bench_results/nn_micro.json) so the CI bench-trajectory
// artifact and tools/bench_diff.py see these kernels alongside the
// experiment benches.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "harness/results.hpp"
#include "nn/activations.hpp"
#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "nn/model.hpp"
#include "nn/quant_lstm.hpp"
#include "nn/sparse.hpp"

namespace {

using namespace pelican;
using namespace pelican::nn;

/// The seed's scalar libm sigmoid, the baseline of the lane nn::sigmoid.
float libm_sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

/// One-hot input in the mobility-encoding shape: four hot columns per row.
SparseSequence one_hot_input(std::size_t steps, std::size_t batch,
                             std::size_t dim, Rng& rng) {
  SparseSequence x(steps, SparseRows(batch, dim));
  for (auto& step : x) {
    step.reserve(4 * batch);
    for (std::size_t r = 0; r < batch; ++r) {
      for (std::size_t block = 0; block < 4; ++block) {
        const std::size_t lo = dim * block / 4;
        const std::size_t hi = dim * (block + 1) / 4;
        step.add(r, lo + rng.below(hi - lo), 1.0f);
      }
    }
  }
  return x;
}

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Matrix a = Matrix::randn(n, n, 1.0f, rng);
  const Matrix b = Matrix::randn(n, n, 1.0f, rng);
  Matrix out;
  for (auto _ : state) {
    matmul(a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulBtBatch1(benchmark::State& state) {
  // The single-query forward shape: one input row against a wide packed
  // weight (n outputs), the case the column-threaded split targets.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  const Matrix a = Matrix::randn(1, 256, 1.0f, rng);
  const Matrix w = Matrix::randn(n, 256, 1.0f, rng);
  Matrix out;
  for (auto _ : state) {
    matmul_bt(a, w, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 256 * n);
}
BENCHMARK(BM_MatmulBtBatch1)->Arg(256)->Arg(4096);

void BM_LstmForward(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  Lstm lstm(128, 64, rng);
  Sequence input(2, Matrix::randn(batch, 128, 1.0f, rng));
  for (auto _ : state) {
    auto out = lstm.forward(input, false);
    benchmark::DoNotOptimize(out.back().data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_LstmForward)->Arg(32)->Arg(256)->Arg(1024);

void BM_LstmForwardOneHot(benchmark::State& state) {
  // Sparse vs dense on the SAME one-hot input (range(1) selects the
  // encoding): the ISSUE 4 fast path. Results are bit-identical; only the
  // input product changes (nnz row gathers vs input_dim x 4H GEMM).
  const auto batch = static_cast<std::size_t>(state.range(0));
  const bool sparse = state.range(1) != 0;
  Rng rng(3);
  Lstm lstm(128, 64, rng);
  const SparseSequence input = one_hot_input(2, batch, 128, rng);
  const Sequence dense_input = to_dense(input);
  for (auto _ : state) {
    auto out = sparse ? lstm.forward_sparse(input, false)
                      : lstm.forward(dense_input, false);
    benchmark::DoNotOptimize(out.back().data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_LstmForwardOneHot)
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({32, 0})
    ->Args({32, 1})
    ->Args({1024, 0})
    ->Args({1024, 1});

void BM_QuantizedLstmForward(benchmark::State& state) {
  // fp32 Lstm vs its int8 QuantizedLstm on the same one-hot input
  // (range(1) selects the weight format). Both run the same activations,
  // so the delta isolates the weight-product change (int8 panel gathers +
  // int8-row recurrence vs fp32).
  const auto batch = static_cast<std::size_t>(state.range(0));
  const bool int8 = state.range(1) != 0;
  Rng rng(9);
  Lstm lstm(128, 64, rng);
  QuantizedLstm qlstm(QuantizedMatrix::quantize_rows(lstm.w_ih()),
                      QuantizedMatrix::quantize_rows(lstm.w_hh()),
                      lstm.bias());
  const SparseSequence input = one_hot_input(8, batch, 128, rng);
  for (auto _ : state) {
    auto out = int8 ? qlstm.infer(input) : lstm.infer(input);
    benchmark::DoNotOptimize(out.back().data());
  }
  state.SetItemsProcessed(state.iterations() * 8 * batch);
}
BENCHMARK(BM_QuantizedLstmForward)
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({32, 0})
    ->Args({32, 1})
    ->Args({256, 0})
    ->Args({256, 1});

void BM_LstmBackward(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  Lstm lstm(128, 64, rng);
  Sequence input(2, Matrix::randn(batch, 128, 1.0f, rng));
  Sequence dout(2);
  dout[1] = Matrix::randn(batch, 64, 1.0f, rng);
  for (auto _ : state) {
    (void)lstm.forward(input, false);
    auto dx = lstm.backward(dout);
    benchmark::DoNotOptimize(dx[0].data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_LstmBackward)->Arg(32)->Arg(256);

void BM_SoftmaxTemperature(benchmark::State& state) {
  Rng rng(4);
  const Matrix logits = Matrix::randn(256, 150, 2.0f, rng);
  const double temperature = state.range(0) == 0 ? 1.0 : 1e-3;
  for (auto _ : state) {
    auto probs = softmax(logits, temperature);
    benchmark::DoNotOptimize(probs.data());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_SoftmaxTemperature)->Arg(0)->Arg(1);

void BM_ModelQueryBatch(benchmark::State& state) {
  // The attack's inner loop: a batched candidate query through the
  // two-layer model (building-scale input dim), via the sparse encoding
  // the attack scorer now uses.
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  auto model = make_two_layer_lstm(127, 64, 40, 0.1, rng);
  Rng fill(6);
  SparseSequence input(2, SparseRows(batch, 127));
  for (auto& step : input) {
    for (std::size_t r = 0; r < batch; ++r) {
      step.add(r, fill.below(127), 1.0f);
    }
  }
  for (auto _ : state) {
    auto probs = model.predict_proba(input);
    benchmark::DoNotOptimize(probs.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ModelQueryBatch)->Arg(64)->Arg(512)->Arg(1024);

/// The seed's serving path, reproduced as the gate_fwd baseline: per-step
/// no-pack products (matmul_bt's batch-1 dot kernel — the seed had no
/// cross-timestep pack hoist) and the separate scalar bias/activation/
/// cell-update loops the fused gate pass replaced. write_kernel_table()
/// checks it bit-identical to today's inference before timing, so the row
/// measures the same function either side.
Sequence seed_forward_sparse(const Lstm& lstm, const SparseSequence& input) {
  const std::size_t hidden = lstm.hidden_dim();
  const std::size_t batch = input[0].rows();
  const float* bias = lstm.bias().row(0).data();
  Sequence output(input.size());
  Matrix h_prev(batch, hidden, 0.0f);
  Matrix c_prev(batch, hidden, 0.0f);
  for (std::size_t t = 0; t < input.size(); ++t) {
    Matrix gates;
    sparse_matmul_bt(input[t], lstm.w_ih(), gates);
    matmul_bt(h_prev, lstm.w_hh(), gates, /*accumulate=*/true);
    Matrix c_next(batch, hidden);
    Matrix h_next(batch, hidden);
    for (std::size_t r = 0; r < batch; ++r) {
      float* g = gates.data() + r * 4 * hidden;
      const float* cp = c_prev.data() + r * hidden;
      float* cn = c_next.data() + r * hidden;
      float* hn = h_next.data() + r * hidden;
      for (std::size_t j = 0; j < 4 * hidden; ++j) g[j] += bias[j];
      for (std::size_t j = 0; j < hidden; ++j) g[j] = libm_sigmoid(g[j]);
      for (std::size_t j = hidden; j < 2 * hidden; ++j) {
        g[j] = libm_sigmoid(g[j]);
      }
      for (std::size_t j = 2 * hidden; j < 3 * hidden; ++j)
        g[j] = std::tanh(g[j]);
      for (std::size_t j = 3 * hidden; j < 4 * hidden; ++j)
        g[j] = libm_sigmoid(g[j]);
      for (std::size_t j = 0; j < hidden; ++j) {
        cn[j] = g[hidden + j] * cp[j] + g[j] * g[2 * hidden + j];
        hn[j] = g[3 * hidden + j] * std::tanh(cn[j]);
      }
    }
    c_prev = std::move(c_next);
    h_prev = h_next;
    output[t] = std::move(h_next);
  }
  return output;
}

/// The gate pass as it was before the lane kernels: one fused scalar loop
/// with libm's std::exp and std::tanh, kept as the gate_pass rows' baseline
/// (checked bit-identical to lstm_gate_pass before timing).
void libm_gate_pass(float* gates, const float* bias, const float* c_prev,
                    float* c_out, float* tanh_c_out, float* h_out,
                    std::size_t hidden) {
  float* gi = gates;
  float* gf = gates + hidden;
  float* gg = gates + 2 * hidden;
  float* go = gates + 3 * hidden;
  for (std::size_t j = 0; j < hidden; ++j) {
    const float i = libm_sigmoid(gi[j] + bias[j]);
    const float f = libm_sigmoid(gf[j] + bias[hidden + j]);
    const float g = std::tanh(gg[j] + bias[2 * hidden + j]);
    const float o = libm_sigmoid(go[j] + bias[3 * hidden + j]);
    gi[j] = i;
    gf[j] = f;
    gg[j] = g;
    go[j] = o;
    const float c = f * c_prev[j] + i * g;
    const float tc = std::tanh(c);
    c_out[j] = c;
    tanh_c_out[j] = tc;
    h_out[j] = o * tc;
  }
}

/// Best-of-reps wall time of fn() in milliseconds. Minimum, not median:
/// these cases run tens of microseconds, so on a contended host any rep
/// can absorb a scheduler slice — the fastest rep is the least-perturbed
/// estimate of the kernel itself, and it is the stable statistic for the
/// CI trajectory.
template <typename Fn>
double time_ms(Fn&& fn, int reps = 9, int iters_per_rep = 20) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    for (int i = 0; i < iters_per_rep; ++i) fn();
    const double ms = watch.milliseconds() / iters_per_rep;
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

/// The CI-tracked kernel table: dense-vs-sparse LSTM forward at the
/// acceptance batch sizes plus the batch-1 GEMM, written via the same
/// Table::to_json path as every experiment bench.
void write_kernel_table() {
  Table table({"case", "baseline_ms", "fast_ms", "speedup"});
  Rng rng(42);
  Lstm lstm(128, 64, rng);

  for (const std::size_t batch : {std::size_t{1}, std::size_t{32},
                                  std::size_t{1024}}) {
    Rng data_rng(43);
    const SparseSequence sparse = one_hot_input(2, batch, 128, data_rng);
    const Sequence dense = to_dense(sparse);
    const double dense_ms =
        time_ms([&] { (void)lstm.forward(dense, false); });
    const double sparse_ms =
        time_ms([&] { (void)lstm.forward_sparse(sparse, false); });
    table.add_row({"lstm_fwd_onehot_b" + std::to_string(batch),
                   Table::num(dense_ms, 5), Table::num(sparse_ms, 5),
                   Table::num(dense_ms / sparse_ms, 2) + "x"});
  }

  {
    // Batch-1 GEMM, dot kernel vs the legacy branchy scalar loop it
    // replaced (kept here as the baseline so the delta stays visible in
    // the bench trajectory).
    Rng data_rng(44);
    const Matrix a = Matrix::randn(1, 256, 1.0f, data_rng);
    const Matrix w = Matrix::randn(1024, 256, 1.0f, data_rng);
    Matrix out;
    const auto legacy = [&] {
      out.resize(1, w.rows());
      for (std::size_t j = 0; j < w.rows(); ++j) {
        const float* b_row = w.data() + j * a.cols();
        float dot = 0.0f;
        for (std::size_t kk = 0; kk < a.cols(); ++kk) {
          const float av = a.data()[kk];
          if (av == 0.0f) continue;
          dot += av * b_row[kk];
        }
        out.data()[j] += dot;
      }
    };
    const double legacy_ms = time_ms(legacy);
    const double packed_ms = time_ms([&] { matmul_bt(a, w, out); });
    table.add_row({"gemm_bt_b1_256x1024", Table::num(legacy_ms, 5),
                   Table::num(packed_ms, 5),
                   Table::num(legacy_ms / packed_ms, 2) + "x"});
  }

  // The dense products at the shapes the workloads run, each against the
  // ascending-k triple loop whose bits it must return (nn/matrix.hpp):
  // gemm_b1024_k24_n96, the attack's layer-2/3 input product against a
  // packed panel; gemm_bt_b1024_k24_n12, its 12-location head;
  // gemm_at_k128_m96_n24, a weight gradient at the general model's batch
  // of 128.
  {
    Rng data_rng(51);
    const Matrix x = Matrix::randn(1024, 24, 1.0f, data_rng);
    const Matrix panel = Matrix::randn(24, 96, 1.0f, data_rng);
    const Matrix head = Matrix::randn(12, 24, 1.0f, data_rng);
    const Matrix dgates = Matrix::randn(128, 96, 1.0f, data_rng);
    const Matrix input = Matrix::randn(128, 24, 1.0f, data_rng);
    Matrix out, want;
    // want(i, j) = sum over kk of lhs(i, kk) * rhs(kk, j), one chain from
    // +0 per element.
    const auto triple_loop = [&](std::size_t m, std::size_t k, std::size_t n,
                                 auto lhs, auto rhs) {
      want.resize(m, n);
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          float total = 0.0f;
          for (std::size_t kk = 0; kk < k; ++kk) {
            total += lhs(i, kk) * rhs(kk, j);
          }
          want(i, j) = total;
        }
      }
    };
    const auto add_gemm_row = [&](const std::string& name, auto baseline,
                                  auto kernel) {
      baseline();
      kernel();
      if (out != want) {
        std::cerr << "WARNING: " << name
                  << " diverged from its ascending-k triple loop\n";
      }
      const double loop_ms = time_ms(baseline);
      const double kernel_ms = time_ms(kernel);
      table.add_row({name, Table::num(loop_ms, 5), Table::num(kernel_ms, 5),
                     Table::num(loop_ms / kernel_ms, 2) + "x"});
    };
    add_gemm_row(
        "gemm_b1024_k24_n96",
        [&] {
          triple_loop(1024, 24, 96, [&](auto i, auto kk) { return x(i, kk); },
                      [&](auto kk, auto j) { return panel(kk, j); });
        },
        [&] { matmul(x, panel, out); });
    add_gemm_row(
        "gemm_bt_b1024_k24_n12",
        [&] {
          triple_loop(1024, 24, 12, [&](auto i, auto kk) { return x(i, kk); },
                      [&](auto kk, auto j) { return head(j, kk); });
        },
        [&] { matmul_bt(x, head, out); });
    add_gemm_row(
        "gemm_at_k128_m96_n24",
        [&] {
          triple_loop(96, 128, 24,
                      [&](auto i, auto kk) { return dgates(kk, i); },
                      [&](auto kk, auto j) { return input(kk, j); });
        },
        [&] { matmul_at(dgates, input, out); });
  }

  // gate_fwd: the seed's serving path (seed_forward_sparse — checked
  // bit-identical to today's inference first) vs today's inference on the
  // same one-hot input. quant_fwd: fp32 vs int8 weights, the same
  // activations in both, so each row isolates the weight-format change.
  for (const std::size_t hidden : {std::size_t{64}, std::size_t{128}}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{32}}) {
      Rng gate_rng(45);
      Lstm gate_lstm(128, hidden, gate_rng);
      const SparseSequence input = one_hot_input(8, batch, 128, gate_rng);

      {
        const Sequence seed = seed_forward_sparse(gate_lstm, input);
        const Sequence today = gate_lstm.infer(input);
        if (seed.back() != today.back()) {
          std::cerr << "WARNING: seed replica diverged from inference "
                       "(gate_fwd baseline is not a faithful PR 5 path)\n";
        }
      }
      const double seed_ms =
          time_ms([&] { (void)seed_forward_sparse(gate_lstm, input); });
      const double today_ms = time_ms([&] { (void)gate_lstm.infer(input); });
      table.add_row({"gate_fwd_b" + std::to_string(batch) + "_h" +
                         std::to_string(hidden),
                     Table::num(seed_ms, 5), Table::num(today_ms, 5),
                     Table::num(seed_ms / today_ms, 2) + "x"});

      QuantizedLstm qlstm(QuantizedMatrix::quantize_rows(gate_lstm.w_ih()),
                          QuantizedMatrix::quantize_rows(gate_lstm.w_hh()),
                          gate_lstm.bias());
      const double fp32_ms = time_ms([&] { (void)gate_lstm.infer(input); });
      const double int8_ms = time_ms([&] { (void)qlstm.infer(input); });
      table.add_row({"quant_fwd_b" + std::to_string(batch) + "_h" +
                         std::to_string(hidden),
                     Table::num(fp32_ms, 5), Table::num(int8_ms, 5),
                     Table::num(fp32_ms / int8_ms, 2) + "x"});
    }
  }

  // tanh_lane_vs_libm: nn::tanh against std::tanh one call per element,
  // over the same 2^20 gate-like inputs (pre-activations ~ N(0, 2)), so
  // each column's milliseconds read as nanoseconds per element.
  {
    Rng data_rng(48);
    std::vector<float> inputs(std::size_t{1} << 20);
    for (float& v : inputs) v = data_rng.normal() * 2.0f;
    std::vector<float> out(inputs.size());
    const double libm_ms = time_ms(
        [&] {
          for (std::size_t i = 0; i < inputs.size(); ++i) {
            out[i] = std::tanh(inputs[i]);
          }
          benchmark::DoNotOptimize(out.data());
          benchmark::ClobberMemory();
        },
        5, 2);
    const double lane_ms = time_ms(
        [&] {
          std::copy(inputs.begin(), inputs.end(), out.begin());
          nn::tanh(out);
          benchmark::DoNotOptimize(out.data());
          benchmark::ClobberMemory();
        },
        5, 2);
    table.add_row({"tanh_lane_vs_libm", Table::num(libm_ms, 5),
                   Table::num(lane_ms, 5),
                   Table::num(libm_ms / lane_ms, 2) + "x"});
  }

  // sigmoid_lane_vs_libm: nn::sigmoid against the scalar libm sigmoid, on
  // the same kind of inputs and in the same units as tanh_lane_vs_libm.
  {
    Rng data_rng(50);
    std::vector<float> inputs(std::size_t{1} << 20);
    for (float& v : inputs) v = data_rng.normal() * 2.0f;
    std::vector<float> out(inputs.size());
    const double libm_ms = time_ms(
        [&] {
          for (std::size_t i = 0; i < inputs.size(); ++i) {
            out[i] = libm_sigmoid(inputs[i]);
          }
          benchmark::DoNotOptimize(out.data());
          benchmark::ClobberMemory();
        },
        5, 2);
    const double lane_ms = time_ms(
        [&] {
          std::copy(inputs.begin(), inputs.end(), out.begin());
          nn::sigmoid(out);
          benchmark::DoNotOptimize(out.data());
          benchmark::ClobberMemory();
        },
        5, 2);
    table.add_row({"sigmoid_lane_vs_libm", Table::num(libm_ms, 5),
                   Table::num(lane_ms, 5),
                   Table::num(libm_ms / lane_ms, 2) + "x"});
  }

  // gate_pass: lstm_gate_pass over 256 rows of the attacked (h24), routed
  // (h32) and engine (h128) hidden sizes, against the scalar libm loop it
  // replaced. Each call restores the pre-activations it overwrites.
  for (const std::size_t hidden : {std::size_t{24}, std::size_t{32},
                                   std::size_t{128}}) {
    constexpr std::size_t kRows = 256;
    const std::size_t width = 4 * hidden;
    Rng data_rng(49);
    std::vector<float> pre(kRows * width), bias(width), c_prev(kRows * hidden);
    for (float& v : pre) v = data_rng.normal() * 2.0f;
    for (float& v : bias) v = data_rng.normal() * 0.5f;
    for (float& v : c_prev) v = data_rng.normal();
    std::vector<float> gates(pre.size()), c(c_prev.size()),
        tanh_c(c_prev.size()), h(c_prev.size());
    const auto run = [&](auto pass) {
      std::copy(pre.begin(), pre.end(), gates.begin());
      for (std::size_t r = 0; r < kRows; ++r) {
        pass(gates.data() + r * width, bias.data(),
             c_prev.data() + r * hidden, c.data() + r * hidden,
             tanh_c.data() + r * hidden, h.data() + r * hidden, hidden);
      }
      benchmark::DoNotOptimize(h.data());
      benchmark::ClobberMemory();
    };
    run(libm_gate_pass);
    const std::vector<float> libm_h = h;
    run(lstm_gate_pass);
    if (libm_h != h) {
      std::cerr << "WARNING: the libm gate pass diverged from "
                   "lstm_gate_pass (this libm's tanhf is not fdlibm's, or "
                   "its expf not glibc's FMA build?)\n";
    }
    const double libm_ms = time_ms([&] { run(libm_gate_pass); });
    const double lane_ms = time_ms([&] { run(lstm_gate_pass); });
    table.add_row({"gate_pass_h" + std::to_string(hidden),
                   Table::num(libm_ms, 5), Table::num(lane_ms, 5),
                   Table::num(libm_ms / lane_ms, 2) + "x"});
  }

  // quant_model: the whole served model (one-hot input, 2-step windows, LSTM
  // hidden 128 and a 150-class head, the serving benchmark's shape), fp32 vs
  // its int8 publish. int8 must be at least as fast at every batch size.
  {
    Rng model_rng(46);
    SequenceClassifier fp32 = make_one_layer_lstm(250, 128, 150, 0.0, model_rng);
    SequenceClassifier int8 = quantize_for_serving(fp32);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{32},
                                    std::size_t{256}}) {
      Rng data_rng(47);
      const SparseSequence input = one_hot_input(2, batch, 250, data_rng);
      const double fp32_ms = time_ms([&] { (void)fp32.infer(input); });
      const double int8_ms = time_ms([&] { (void)int8.infer(input); });
      table.add_row({"quant_model_b" + std::to_string(batch),
                     Table::num(fp32_ms, 5), Table::num(int8_ms, 5),
                     Table::num(fp32_ms / int8_ms, 2) + "x"});
    }
  }

  // topk_b32_c150: top-3 of 32 rows of 150 logits, the engine workload's
  // rank stage. Baseline: one allocating index partial_sort per row, the
  // ranking nn::topk_rows' single pass replaced (same order, same ids).
  {
    Rng data_rng(52);
    const Matrix logits = Matrix::randn(32, 150, 1.0f, data_rng);
    std::vector<std::vector<std::size_t>> sorted;
    std::vector<std::vector<std::size_t>> ranked;
    const auto partial_sort_rows = [&] {
      sorted.clear();
      for (std::size_t r = 0; r < logits.rows(); ++r) {
        const auto row = logits.row(r);
        std::vector<std::size_t> order(row.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::partial_sort(order.begin(), order.begin() + 3, order.end(),
                          [&](std::size_t a, std::size_t b) {
                            if (row[a] != row[b]) return row[a] > row[b];
                            return a < b;
                          });
        order.resize(3);
        sorted.push_back(std::move(order));
      }
      benchmark::DoNotOptimize(sorted.data());
    };
    const auto single_pass = [&] {
      ranked = topk_rows(logits, 3);
      benchmark::DoNotOptimize(ranked.data());
    };
    partial_sort_rows();
    single_pass();
    if (sorted != ranked) {
      std::cerr << "WARNING: topk_rows diverged from the partial_sort "
                   "ranking\n";
    }
    const double sort_ms = time_ms(partial_sort_rows);
    const double pass_ms = time_ms(single_pass);
    table.add_row({"topk_b32_c150", Table::num(sort_ms, 5),
                   Table::num(pass_ms, 5),
                   Table::num(sort_ms / pass_ms, 2) + "x"});
  }

  std::cout << table;
  pelican::bench::write_bench_json("nn_micro", table);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_kernel_table();
  return 0;
}
