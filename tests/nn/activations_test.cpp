#include "nn/activations.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "nn/lstm.hpp"
#include "nn/sparse.hpp"

namespace pelican::nn {
namespace {

/// Bit-level float equality: EXPECT_EQ on floats treats -0.0f == 0.0f and
/// fails to distinguish NaN payloads; the determinism contract is about
/// bits, so compare bits.
bool same_bits(float a, float b) {
  std::uint32_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

std::vector<float> grid(float lo, float hi, std::size_t n) {
  std::vector<float> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = lo + (hi - lo) * static_cast<float>(i) / (n - 1);
  }
  return xs;
}

// The awkward lengths: below / just above / well above kSimdWidth
// (nn/simd.hpp) with a nonzero tail in every case (for width 4: tails of 1,
// 1, 3).
const std::size_t kTailSizes[] = {17, 33, 127};

TEST(Activations, SigmoidIsTheOneDefinition) {
  // The hoisted scalar sigmoid (formerly file-local in lstm.cpp).
  EXPECT_FLOAT_EQ(sigmoid(0.0f), 0.5f);
  for (const float x : grid(-20.0f, 20.0f, 101)) {
    EXPECT_TRUE(same_bits(sigmoid(x), 1.0f / (1.0f + std::exp(-x)))) << x;
  }
  EXPECT_GT(sigmoid(5.0f), 0.99f);
  EXPECT_LT(sigmoid(-5.0f), 0.01f);
}

TEST(Activations, FusedGatePassExactMatchesUnfusedReference) {
  Rng rng(3);
  for (const std::size_t hidden : kTailSizes) {
    std::vector<float> gates(4 * hidden), bias(4 * hidden), c_prev(hidden);
    for (auto& v : gates) v = rng.normal() * 2.0f;
    for (auto& v : bias) v = rng.normal() * 0.5f;
    for (auto& v : c_prev) v = rng.normal();

    // Unfused reference: bias add sweep, then the seed's scalar gate loop.
    std::vector<float> ref_gates = gates;
    for (std::size_t i = 0; i < 4 * hidden; ++i) ref_gates[i] += bias[i];
    std::vector<float> ref_c(hidden), ref_tanh_c(hidden), ref_h(hidden);
    for (std::size_t j = 0; j < hidden; ++j) {
      const float i_g = sigmoid(ref_gates[j]);
      const float f_g = sigmoid(ref_gates[hidden + j]);
      const float g_g = std::tanh(ref_gates[2 * hidden + j]);
      const float o_g = sigmoid(ref_gates[3 * hidden + j]);
      ref_gates[j] = i_g;
      ref_gates[hidden + j] = f_g;
      ref_gates[2 * hidden + j] = g_g;
      ref_gates[3 * hidden + j] = o_g;
      ref_c[j] = f_g * c_prev[j] + i_g * g_g;
      ref_tanh_c[j] = std::tanh(ref_c[j]);
      ref_h[j] = o_g * ref_tanh_c[j];
    }

    std::vector<float> c(hidden), tanh_c(hidden), h(hidden);
    lstm_gate_pass(gates.data(), bias.data(), c_prev.data(), c.data(),
                   tanh_c.data(), h.data(), hidden);
    for (std::size_t i = 0; i < 4 * hidden; ++i) {
      EXPECT_TRUE(same_bits(gates[i], ref_gates[i])) << hidden << ":" << i;
    }
    for (std::size_t j = 0; j < hidden; ++j) {
      EXPECT_TRUE(same_bits(c[j], ref_c[j])) << hidden << ":" << j;
      EXPECT_TRUE(same_bits(tanh_c[j], ref_tanh_c[j])) << hidden << ":" << j;
      EXPECT_TRUE(same_bits(h[j], ref_h[j])) << hidden << ":" << j;
    }
  }
}

SparseSequence one_hot(std::size_t steps, std::size_t batch, std::size_t dim,
                       Rng& rng) {
  SparseSequence x(steps, SparseRows(batch, dim));
  for (auto& step : x) {
    for (std::size_t r = 0; r < batch; ++r) step.add(r, rng.below(dim), 1.0f);
  }
  return x;
}

TEST(Activations, LstmSparseDenseBitIdenticalAtSimdTailSizes) {
  // The SIMD-tail regression: hidden sizes that leave every tail length of
  // the vectorized GEMM kernels, through the full fused pass.
  for (const std::size_t hidden : kTailSizes) {
    Rng rng(100 + hidden);
    Lstm lstm(19, hidden, rng);
    const SparseSequence sparse = one_hot(3, 5, 19, rng);
    const Sequence dense = to_dense(sparse);
    const Sequence out_d = lstm.forward(dense, false);
    const Sequence out_s = lstm.forward_sparse(sparse, false);
    ASSERT_EQ(out_d.size(), out_s.size());
    for (std::size_t t = 0; t < out_d.size(); ++t) {
      for (std::size_t i = 0; i < out_d[t].size(); ++i) {
        EXPECT_TRUE(same_bits(out_d[t].flat()[i], out_s[t].flat()[i]))
            << " h=" << hidden << " t=" << t;
      }
    }
  }
}

}  // namespace
}  // namespace pelican::nn
