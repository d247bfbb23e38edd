// Pointwise activation kernels: the single shared definitions of sigmoid and
// tanh for the whole library, and the fused LSTM gate-activation +
// cell-update pass that Lstm and QuantizedLstm run per row.
//
// sigmoid is 1 / (1 + std::exp(-x)), the scalar libm call the seed's gate
// loop made. tanh is a lane-parallel port of fdlibm's float tanhf and
// expm1f, which is what glibc's tanhf runs (2.36 was disassembled): every
// lane computes every branch and keeps its own by mask, so each lane
// returns exactly the bits that scalar tanhf returns, NaN payloads
// included, at every kSimdWidth (nn/simd.hpp). The forward is therefore
// bit-identical to the historical scalar-libm forward wherever the
// platform's tanhf is fdlibm's, and its bits no longer depend on the libm
// elsewhere; the serving bit-identity contract (nn/matrix.hpp) extends
// over both.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>

namespace pelican::nn {

/// THE logistic sigmoid — hoisted out of lstm.cpp so there is exactly one
/// definition (and one test) in the library.
[[nodiscard]] inline float sigmoid(float x) noexcept {
  return 1.0f / (1.0f + std::exp(-x));
}

/// THE hyperbolic tangent, in place over `xs`: fdlibm tanhf's bits for
/// every input, computed kSimdWidth lanes at a time (a ragged tail runs
/// the same kernel on a padded vector).
void tanh(std::span<float> xs) noexcept;

/// Fused LSTM gate pass for ONE row of a (batch x 4H) pre-activation
/// buffer: consumes gates laid out [i | f | g | o] (each `hidden` wide),
/// adds `bias` (length 4H) while activating — fusing what used to be a
/// separate add_row_broadcast pass over the whole gates buffer — and writes
/// the cell update of the same row:
///
///   i = sigmoid(g_i + b_i)   f = sigmoid(g_f + b_f)
///   g = tanh(g_g + b_g)      o = sigmoid(g_o + b_o)
///   c = f * c_prev + i * g   tanh_c = tanh(c)   h = o * tanh_c
///
/// `gates` is overwritten with the post-activation values (what backward
/// consumes). Both tanh run through nn::tanh over the whole row, so the row
/// is swept a few times while it sits in cache. This is bit-identical to
/// the unfused bias-then-activate sequence: g + b is the identical float
/// add, and each element's operation chain is unchanged (activations.cpp
/// is built with -ffp-contract=off, so no a * b + c is fused).
void lstm_gate_pass(float* gates, const float* bias, const float* c_prev,
                    float* c_out, float* tanh_c_out, float* h_out,
                    std::size_t hidden);

}  // namespace pelican::nn
