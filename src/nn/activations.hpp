// Pointwise activation kernels: the single shared definition of sigmoid for
// the whole library and the fused LSTM gate-activation + cell-update pass
// that Lstm and QuantizedLstm run per row.
//
// Both use scalar std::exp / std::tanh, exactly the arithmetic the seed's
// gate loop performed, so they are bit-identical to the historical forward
// for every input — the serving bit-identity contract (nn/matrix.hpp)
// extends over them.
#pragma once

#include <cmath>
#include <cstddef>

namespace pelican::nn {

/// THE logistic sigmoid — hoisted out of lstm.cpp so there is exactly one
/// definition (and one test) in the library.
[[nodiscard]] inline float sigmoid(float x) noexcept {
  return 1.0f / (1.0f + std::exp(-x));
}

/// Fused LSTM gate pass for ONE row of a (batch x 4H) pre-activation
/// buffer: consumes gates laid out [i | f | g | o] (each `hidden` wide),
/// adds `bias` (length 4H) during the activation sweep — fusing what used
/// to be a separate add_row_broadcast pass over the whole gates buffer —
/// and writes the cell update in the same sweep:
///
///   i = sigmoid(g_i + b_i)   f = sigmoid(g_f + b_f)
///   g = tanh(g_g + b_g)      o = sigmoid(g_o + b_o)
///   c = f * c_prev + i * g   tanh_c = tanh(c)   h = o * tanh_c
///
/// `gates` is overwritten with the post-activation values (what backward
/// consumes). This is bit-identical to the unfused bias-then-activate
/// sequence: g + b is the identical float add, and each element's
/// operation chain is unchanged — only the number of sweeps over memory
/// drops.
void lstm_gate_pass(float* gates, const float* bias, const float* c_prev,
                    float* c_out, float* tanh_c_out, float* h_out,
                    std::size_t hidden);

}  // namespace pelican::nn
