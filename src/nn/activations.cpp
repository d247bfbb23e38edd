#include "nn/activations.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#include "nn/simd.hpp"

// This file builds with -ffp-contract=off (src/nn/CMakeLists.txt): an
// FMA-capable -march would otherwise fuse a * b + c here and change bits.

namespace pelican::nn {

namespace {

using simd::vfloat;
using simd::vint;
using simd::vmask;
using simd::vuint;

constexpr float from_bits(std::uint32_t bits) {
  return std::bit_cast<float>(bits);
}

// fdlibm's expm1f constants, as glibc's libm holds them.
constexpr float kInvLn2 = from_bits(0x3fb8aa3b);
constexpr float kLn2Hi = from_bits(0x3f317180);
constexpr float kLn2Lo = from_bits(0x3717f7d1);
constexpr float kQ1 = from_bits(0xbd088889);
constexpr float kQ2 = from_bits(0x3ad00d01);
constexpr float kQ3 = from_bits(0xb8a670cd);
constexpr float kQ4 = from_bits(0x36867e54);
constexpr float kQ5 = from_bits(0xb457edbb);

/// fdlibm tanhf in every lane. expm1f is inlined and cut to the two ranges
/// tanhf feeds it: x = 2|a| in [2, 44] when |a| >= 1, and x = -2|a| in
/// (-2, 0] below that, so its reduction count k is 0 or -1..-3 there and
/// 3..63 here. Each branch runs in every lane in glibc's operation order,
/// and the lane keeps its own by mask. tanhf's special cases for
/// |a| < 2^-55, |a| >= 22 and NaN fold into the other paths, which give
/// the same bits there (noted at each).
[[gnu::always_inline]] inline vfloat tanh_lanes(vfloat a) noexcept {
  constexpr std::int32_t kSignBit = std::numeric_limits<std::int32_t>::min();
  const vint ia = std::bit_cast<vint>(a);
  const vint ix = ia & std::numeric_limits<std::int32_t>::max();
  const vmask ge1 = ix >= 0x3f800000;  // |a| >= 1

  // expm1's argument. |a| >= 22 returns +-(1 - 1e-30), which is +-1 once
  // rounded; clamping |a| to 22 makes the main path return exactly that,
  // and keeps inf and NaN away from the integer conversion.
  const vfloat clamped = std::bit_cast<vfloat>(
      simd::select(ix < 0x41b00000, ix, simd::broadcast(0x41b00000)));
  const vfloat twice = clamped + clamped;
  const vint hx = std::bit_cast<vint>(twice);
  const vint x_sign =
      simd::select(ge1, simd::broadcast(0), simd::broadcast(kSignBit));
  const vfloat x = std::bit_cast<vfloat>(hx | x_sign);

  // Reduction x = k ln2 + r, with r = hi - lo carried to c. Above 1.5 ln2
  // k = (int)(x / ln2 +- 0.5); above 0.5 ln2 (only negative x lands
  // there) k = -1, whose hi and lo the general form computes bit for bit;
  // below it k = 0, where r = x and c = +0.
  const vfloat half = std::bit_cast<vfloat>(
      std::bit_cast<vint>(simd::broadcast(0.5f)) | x_sign);
  const vint k = simd::select(
      hx >= 0x3f851592, simd::to_int(x * kInvLn2 + half),
      simd::select(hx > 0x3eb17218, simd::broadcast(-1), simd::broadcast(0)));
  const vfloat kf = simd::to_float(k);
  const vfloat hi = x - kf * kLn2Hi;
  const vfloat lo = kf * kLn2Lo;
  const vfloat r = hi - lo;
  const vfloat c = (hi - r) - lo;

  const vfloat hfx = r * 0.5f;
  const vfloat hxs = r * hfx;
  const vfloat r1 =
      hxs * (hxs * (hxs * (hxs * (hxs * kQ5 + kQ4) + kQ3) + kQ2) + kQ1) + 1.0f;
  const vfloat t = 3.0f - r1 * hfx;
  const vfloat e = hxs * ((r1 - t) / (6.0f - r * t));

  // k = 0 returns r - (r * e - hxs): with c = +0 that is r - e2 bit for
  // bit. k = -1 returns 0.5 * (r - e2) - 0.5.
  const vfloat e2 = (r * (e - c) - c) - hxs;
  const vfloat w = r - e2;
  const vfloat em_small = simd::select(k == -1, 0.5f * w - 0.5f, w);
  // The other k scale by 2^k through the exponent bits, in unsigned lanes
  // since k can be negative. k <= -2 and k > 56 return
  // 2^k (1 - (e2 - r)) - 1, k < 23 returns 2^k ((1 - 2^-k) - (e2 - r)),
  // and the rest 2^k ((r - (e2 + 2^-k)) + 1).
  const vuint ku = std::bit_cast<vuint>(k);
  const vfloat two_mk = std::bit_cast<vfloat>((127u - ku) << 23);
  const vmask wide = (k < -1) | (k > 56);
  const vfloat y_unscaled = simd::select(
      (k > 22) & (k < 57), (r - (e2 + two_mk)) + 1.0f,
      (1.0f - simd::select(wide, simd::broadcast(0.0f), two_mk)) - (e2 - r));
  const vfloat y =
      std::bit_cast<vfloat>(std::bit_cast<vuint>(y_unscaled) + (ku << 23));
  // Below |x| = 2^-25 expm1 returns x itself.
  const vfloat em = simd::select(
      hx < 0x33000000, x,
      simd::select((k > -2) & (k < 1), em_small,
                   y - simd::select(wide, simd::broadcast(1.0f),
                                    simd::broadcast(0.0f))));

  // tanh = 1 - 2 / (em + 2) for |a| >= 1 and -em / (em + 2) below, here
  // 0 - em / (em + 2): the same bits but for a zero's sign, which the sign
  // step sets. Both are positive, so OR-ing a's sign bit negates. tanhf
  // returns a * (1 + a), which is a, for |a| < 2^-55; so does this path
  // (em = x = -2|a|, and x / (x + 2) = x / 2), zeros included.
  const vfloat z =
      simd::select(ge1, simd::broadcast(1.0f), simd::broadcast(0.0f)) -
      simd::select(ge1, simd::broadcast(2.0f), em) / (em + 2.0f);
  // NaN lanes: any arithmetic returns the NaN quieted, as tanhf's 1/a + 1.
  return simd::select(ix > 0x7f800000, a + a,
                      std::bit_cast<vfloat>(std::bit_cast<vint>(z) |
                                            (ia & kSignBit)));
}

}  // namespace

void tanh(std::span<float> xs) noexcept {
  float* p = xs.data();
  const std::size_t n = xs.size();
  std::size_t j = 0;
  for (; j + kSimdWidth <= n; j += kSimdWidth) {
    simd::store(p + j, tanh_lanes(simd::load(p + j)));
  }
  if (j < n) {
    float padded[kSimdWidth] = {};
    std::copy(p + j, p + n, padded);
    simd::store(padded, tanh_lanes(simd::load(padded)));
    std::copy_n(padded, n - j, p + j);
  }
}

void lstm_gate_pass(float* gates, const float* bias, const float* c_prev,
                    float* c_out, float* tanh_c_out, float* h_out,
                    std::size_t hidden) {
  float* gi = gates;
  float* gf = gates + hidden;
  float* gg = gates + 2 * hidden;
  float* go = gates + 3 * hidden;
  for (std::size_t j = 0; j < hidden; ++j) {
    gi[j] = sigmoid(gi[j] + bias[j]);
    gf[j] = sigmoid(gf[j] + bias[hidden + j]);
    gg[j] += bias[2 * hidden + j];
    go[j] = sigmoid(go[j] + bias[3 * hidden + j]);
  }
  tanh({gg, hidden});
  for (std::size_t j = 0; j < hidden; ++j) {
    c_out[j] = gf[j] * c_prev[j] + gi[j] * gg[j];
  }
  std::copy_n(c_out, hidden, tanh_c_out);
  tanh({tanh_c_out, hidden});
  for (std::size_t j = 0; j < hidden; ++j) h_out[j] = go[j] * tanh_c_out[j];
}

}  // namespace pelican::nn
