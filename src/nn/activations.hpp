// Pointwise activation kernels: the single shared definitions of sigmoid and
// tanh for the whole library, and the fused LSTM gate-activation +
// cell-update pass that Lstm and QuantizedLstm run per row.
//
// Both are lane-parallel ports of the glibc code the seed's scalar gate
// loop called, computed kSimdWidth lanes at a time (nn/simd.hpp): a vector
// computes every branch its lanes need and each lane keeps its own by
// mask, so each lane returns exactly the bits the scalar routine returns,
// NaN payloads included, at every width.
//  - tanh ports fdlibm's float tanhf and expm1f, which is what glibc's
//    tanhf runs (2.36 was disassembled).
//  - sigmoid is 1 / (1 + expf(-x)) with glibc 2.36's expf (e_expf.c)
//    ported to double lanes. glibc picks one of two expf builds at run
//    time, FMA (CPUs with FMA and AVX2) or SSE2, which differ at two
//    inputs; the kernel returns the FMA build's bits at both.
// The gate pass thus calls no libm function. Its forward is bit-identical
// to the historical scalar-libm forward wherever glibc runs its FMA expf,
// and its bits no longer depend on the host elsewhere; the serving
// bit-identity contract (nn/matrix.hpp) extends over every host.
#pragma once

#include <cstddef>
#include <span>

namespace pelican::nn {

/// THE logistic sigmoid, in place over `xs`: 1 / (1 + expf(-x)) with
/// glibc's FMA expf bits for every input, computed kSimdWidth lanes at a
/// time (a ragged tail runs the same kernel on a padded vector).
void sigmoid(std::span<float> xs) noexcept;

/// THE hyperbolic tangent, in place over `xs`: fdlibm tanhf's bits for
/// every input, computed kSimdWidth lanes at a time (a ragged tail runs
/// the same kernel on a padded vector).
void tanh(std::span<float> xs) noexcept;

/// Fused LSTM gate pass for ONE row of a (batch x 4H) pre-activation
/// buffer: consumes gates laid out [i | f | g | o] (each `hidden` wide),
/// adds `bias` (length 4H) to the row before activating it — fusing what
/// used to be a separate add_row_broadcast pass over the whole gates
/// buffer — and writes the cell update of the same row:
///
///   i = sigmoid(g_i + b_i)   f = sigmoid(g_f + b_f)
///   g = tanh(g_g + b_g)      o = sigmoid(g_o + b_o)
///   c = f * c_prev + i * g   tanh_c = tanh(c)   h = o * tanh_c
///
/// `gates` is overwritten with the post-activation values (what backward
/// consumes). The sigmoids run through nn::sigmoid (i and f as one span)
/// and both tanh through nn::tanh, so the row is swept a few times while
/// it sits in cache. This is bit-identical to the unfused
/// bias-then-activate sequence: g + b is the identical float add, and each
/// element's operation chain is unchanged (every target is built with
/// -ffp-contract=off, so no a * b + c is fused).
void lstm_gate_pass(float* gates, const float* bias, const float* c_prev,
                    float* c_out, float* tanh_c_out, float* h_out,
                    std::size_t hidden);

}  // namespace pelican::nn
