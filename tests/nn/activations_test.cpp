#include "nn/activations.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "nn/lstm.hpp"
#include "nn/simd.hpp"
#include "nn/sparse.hpp"
#include "support/fdlibm_tanhf.hpp"
#include "support/glibc_expf.hpp"

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

using testing::bits_of;
using testing::fdlibm_tanhf;
using testing::float_from_bits;
using testing::glibc_expf;

/// The scalar sigmoid the lane kernel must match: the seed's gate-loop
/// formula over the scalar glibc expf reference.
float reference_sigmoid(float x) { return 1.0f / (1.0f + glibc_expf(-x)); }

TEST(Activations, SigmoidIsTheOneDefinition) {
  std::vector<float> xs = grid(-20.0f, 20.0f, 101);
  xs.insert(xs.end(), {0.0f, 5.0f, -5.0f});
  std::vector<float> ys = xs;
  sigmoid(ys);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_TRUE(same_bits(ys[i], reference_sigmoid(xs[i]))) << xs[i];
    EXPECT_GT(ys[i], 0.0f) << xs[i];
    EXPECT_LE(ys[i], 1.0f) << xs[i];
  }
  EXPECT_EQ(ys[101], 0.5f);
  EXPECT_GT(ys[102], 0.99f);
  EXPECT_LT(ys[103], 0.01f);
}

/// A strided sweep over all 2^32 bit patterns: every 4093rd, about a
/// million inputs, across every exponent and both signs.
std::vector<float> strided_sweep() {
  std::vector<float> xs;
  for (std::uint64_t b = 0; b < (std::uint64_t{1} << 32); b += 4093) {
    xs.push_back(float_from_bits(static_cast<std::uint32_t>(b)));
  }
  return xs;
}

/// expm1f's reduction count for x = 2|a| above 1.5 ln2, as fdlibm computes
/// it; tanh's negative arguments -2|a| get its negation.
int reduction_count(std::uint32_t abs_bits) {
  const float a = float_from_bits(abs_bits);
  return static_cast<int>(float_from_bits(0x3fb8aa3b) * (a + a) + 0.5f);
}

/// Every edge of tanhf's and expm1f's branches, 1 ulp either side, in both
/// signs: zeros and subnormals, the 2^-55 and 1.0 and 22 cut-offs, 2^-26
/// (expm1's |x| < 2^-25 return), expm1's 0.5 ln2 and 1.5 ln2 reduction
/// edges (its argument is 2|a|), the first |a| of every reduction count k,
/// infinities, and quiet and signalling NaNs with payloads.
std::vector<float> boundaries() {
  std::vector<std::uint32_t> magnitudes = {
      0x00000000, 0x00000001, 0x00000002, 0x00400000, 0x007fffff,
      0x00800000, 0x00800001, 0x24000000, 0x32800000, 0x3e317218,
      0x3f051592, 0x3f800000, 0x4115b844, 0x41b00000, 0x7f7fffff};
  for (int k = 2; k <= 63; ++k) {
    // k first reaches k near |a| = (k - 0.5) ln2 / 2; walk to the exact ulp.
    std::uint32_t b = bits_of((static_cast<float>(k) - 0.5f) * 0.34657359f);
    while (reduction_count(b) >= k) --b;
    while (reduction_count(b) < k) ++b;
    magnitudes.push_back(b);
  }
  std::vector<float> xs;
  for (const std::uint32_t m : magnitudes) {
    for (const std::uint32_t b : {m - 1, m, m + 1}) {
      if (b > 0x7f7fffffu) continue;  // the wrap below 0 and past max finite
      xs.push_back(float_from_bits(b));
      xs.push_back(float_from_bits(b | 0x80000000u));
    }
  }
  for (const std::uint32_t b :
       {0x7f800000u, 0xff800000u,                            // +-inf
        0x7fc00000u, 0xffc00000u, 0x7fc00001u, 0xffffffffu,  // quiet NaNs
        0x7f800001u, 0xff800001u, 0x7fa00000u, 0x7fbfffffu}) {  // signalling
    xs.push_back(float_from_bits(b));
  }
  return xs;
}

using Kernel = void (*)(std::span<float>) noexcept;

/// Runs `kernel` (nn::tanh or nn::sigmoid) over `xs` from kSimdWidth start
/// offsets, so that every input sits in every lane position once (and
/// every ragged tail length runs), and counts the results whose bits
/// differ from `expected`.
std::size_t kernel_mismatches(Kernel kernel, const char* name,
                              const std::vector<float>& xs,
                              const std::vector<float>& expected) {
  std::size_t mismatches = 0;
  for (std::size_t shift = 0; shift < kSimdWidth; ++shift) {
    std::vector<float> lanes(shift, 0.5f);
    lanes.insert(lanes.end(), xs.begin(), xs.end());
    kernel(lanes);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (same_bits(lanes[shift + i], expected[i])) continue;
      if (++mismatches <= 5) {
        ADD_FAILURE() << name << std::hex << "(0x" << bits_of(xs[i])
                      << ") in lane " << std::dec
                      << (shift + i) % kSimdWidth << ": kernel 0x" << std::hex
                      << bits_of(lanes[shift + i]) << ", expected 0x"
                      << bits_of(expected[i]);
      }
    }
  }
  return mismatches;
}

TEST(Activations, TanhKernelMatchesScalarFdlibmBitForBit) {
  for (const std::vector<float>& xs : {boundaries(), strided_sweep()}) {
    std::vector<float> expected(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      expected[i] = fdlibm_tanhf(xs[i]);
    }
    EXPECT_EQ(kernel_mismatches(nn::tanh, "tanh", xs, expected), 0u)
        << xs.size() << " inputs";
  }
}

TEST(Activations, TanhKernelMatchesLibmWhereLibmIsFdlibm) {
  if (!testing::libm_tanhf_is_fdlibm()) {
    GTEST_SKIP() << "this libm's tanhf is not fdlibm's (it differs at the "
                    "probe inputs), so its bits are not the kernel's";
  }
  for (const std::vector<float>& xs : {boundaries(), strided_sweep()}) {
    std::vector<float> expected(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) expected[i] = std::tanh(xs[i]);
    EXPECT_EQ(kernel_mismatches(nn::tanh, "tanh", xs, expected), 0u)
        << xs.size() << " inputs";
  }
}

/// Every edge of expf's branches, for its argument -x and 1 ulp either
/// side, in both signs (so each edge of the sigmoid's own argument too):
/// zeros and subnormals, |x| = 88 (where its |x| >= 88 branch starts), the
/// overflow edge 0x1.62e42ep6, the underflow edges -0x1.9fe368p6 and
/// -0x1.9d1d9ep6 (glibc's errno-only edge, on the main path here), the two
/// inputs where glibc's FMA and SSE2 builds differ, infinities, and quiet
/// and signalling NaNs with payloads.
std::vector<float> expf_boundaries() {
  const std::uint32_t magnitudes[] = {
      0x00000000, 0x00000001, 0x00000002, 0x00400000, 0x007fffff,
      0x00800000, 0x00800001, 0x42b00000, bits_of(0x1.62e42ep6f),
      bits_of(0x1.9fe368p6f), bits_of(0x1.9d1d9ep6f), 0x4202422f,
      0x427c65d9, 0x7f7fffff};
  std::vector<float> xs;
  for (const std::uint32_t m : magnitudes) {
    for (const std::uint32_t b : {m - 1, m, m + 1}) {
      if (b > 0x7f7fffffu) continue;  // the wrap below 0 and past max finite
      xs.push_back(float_from_bits(b));
      xs.push_back(float_from_bits(b | 0x80000000u));
    }
  }
  for (const std::uint32_t b :
       {0x7f800000u, 0xff800000u,                            // +-inf
        0x7fc00000u, 0xffc00000u, 0x7fc00001u, 0xffffffffu,  // quiet NaNs
        0x7f800001u, 0xff800001u, 0x7fa00000u, 0x7fbfffffu}) {  // signalling
    xs.push_back(float_from_bits(b));
  }
  return xs;
}

TEST(Activations, SigmoidKernelMatchesScalarGlibcBitForBit) {
  for (const std::vector<float>& xs : {expf_boundaries(), strided_sweep()}) {
    std::vector<float> expected(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      expected[i] = reference_sigmoid(xs[i]);
    }
    EXPECT_EQ(kernel_mismatches(nn::sigmoid, "sigmoid", xs, expected), 0u)
        << xs.size() << " inputs";
  }
}

TEST(Activations, SigmoidKernelMatchesLibmWhereLibmIsGlibcFma) {
  if (!testing::libm_expf_is_glibc_fma()) {
    GTEST_SKIP() << "this libm's expf is not glibc's FMA build (it differs "
                    "at the probe input), so its bits are not the kernel's";
  }
  for (const std::vector<float>& xs : {expf_boundaries(), strided_sweep()}) {
    std::vector<float> expected(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      expected[i] = 1.0f / (1.0f + std::exp(-xs[i]));
    }
    EXPECT_EQ(kernel_mismatches(nn::sigmoid, "sigmoid", xs, expected), 0u)
        << xs.size() << " inputs";
  }
}

TEST(Activations, FusedGatePassExactMatchesUnfusedReference) {
  // Every hidden size up to 37 runs every ragged tail length of the tanh
  // kernel at widths 4, 8 and 16 (nn/simd.hpp).
  Rng rng(3);
  for (std::size_t hidden = 1; hidden <= 37; ++hidden) {
    std::vector<float> gates(4 * hidden), bias(4 * hidden), c_prev(hidden);
    for (auto& v : gates) v = rng.normal() * 2.0f;
    for (auto& v : bias) v = rng.normal() * 0.5f;
    for (auto& v : c_prev) v = rng.normal();

    // Unfused reference: bias add sweep, then the seed's scalar gate loop,
    // with the scalar glibc expf and fdlibm tanhf as its libm.
    std::vector<float> ref_gates = gates;
    for (std::size_t i = 0; i < 4 * hidden; ++i) ref_gates[i] += bias[i];
    std::vector<float> ref_c(hidden), ref_tanh_c(hidden), ref_h(hidden);
    for (std::size_t j = 0; j < hidden; ++j) {
      const float i_g = reference_sigmoid(ref_gates[j]);
      const float f_g = reference_sigmoid(ref_gates[hidden + j]);
      const float g_g = fdlibm_tanhf(ref_gates[2 * hidden + j]);
      const float o_g = reference_sigmoid(ref_gates[3 * hidden + j]);
      ref_gates[j] = i_g;
      ref_gates[hidden + j] = f_g;
      ref_gates[2 * hidden + j] = g_g;
      ref_gates[3 * hidden + j] = o_g;
      ref_c[j] = f_g * c_prev[j] + i_g * g_g;
      ref_tanh_c[j] = fdlibm_tanhf(ref_c[j]);
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
