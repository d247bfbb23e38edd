#include "nn/activations.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>

#include "nn/simd.hpp"

// Every target builds with -ffp-contract=off (root CMakeLists.txt): an
// FMA-capable -march would otherwise fuse a * b + c here and change bits.

namespace pelican::nn {

namespace {

using simd::vdouble;
using simd::vfloat;
using simd::vint;
using simd::vmask;
using simd::vuint;
using simd::vulong;

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

// glibc 2.36 expf's constants (e_expf.c and __exp2f_data, N = 32).
constexpr double kInvLn2N = 0x1.71547652b82fep0 * 32;
constexpr double kShift = 0x1.8p52;
constexpr double kExpC0 = 0x1.c6af84b912394p-5 / 32 / 32 / 32;
constexpr double kExpC1 = 0x1.ebfce50fac4f3p-3 / 32 / 32;
constexpr double kExpC2 = 0x1.62e42ff0c52d6p-1 / 32;
/// bits(2^(i/32)) - (i << 47), so that adding k << 47 for any k = i
/// (mod 32) gives 2^(k/32) (printed once from exp2l).
constexpr std::uint64_t kExp2Table[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540};
/// The two inputs at which glibc's FMA expf (the build glibc picks on CPUs
/// with FMA and AVX2) rounds one ulp above its SSE2 build, which this
/// kernel's unfused operation order reproduces; and the FMA build's bits.
constexpr std::array<std::array<std::uint32_t, 2>, 2> kFmaExpfPatch = {{
    {0x4202422f, 0x56fc9f1c},
    {0xc27c65d9, 0x11fa2993},
}};

/// glibc expf's main path in every double lane, in its operation order:
/// x 32 / ln2 = k + r, and
/// exp(x) = 2^(k/32) 2^(r/32) ~= s (C0 r^3 + C1 r^2 + C2 r + 1).
[[gnu::always_inline]] inline vdouble expf_main(vdouble x) noexcept {
  const vdouble z = kInvLn2N * x;
  const vdouble shifted = z + kShift;  // rounds z to an integer k
  const vulong ki = std::bit_cast<vulong>(shifted);
  const vdouble r = z - (shifted - kShift);
  const vdouble s = std::bit_cast<vdouble>(
      simd::lookup(kExp2Table, ki % 32) + (ki << 47));
  const vdouble p = kExpC0 * r + kExpC1;
  const vdouble r2 = r * r;
  const vdouble y = kExpC2 * r + 1.0;
  return (p * r2 + y) * s;
}

/// glibc expf in every lane. Every input with |x| <= 32 takes the main
/// path. A vector holding a larger |x| also runs expf's |x| >= 88 and NaN
/// branch and the FMA build's two inputs (both above 32) by mask; gate
/// pre-activations almost never reach that far.
[[gnu::always_inline]] inline vfloat expf_lanes(vfloat x) noexcept {
  const vint bits = std::bit_cast<vint>(x);
  const vint abs_bits = bits & std::numeric_limits<std::int32_t>::max();
  vfloat e = simd::in_double<expf_main>(x);
  if (simd::any(abs_bits > 0x42000000)) [[unlikely]] {
    for (const auto& [input, result] : kFmaExpfPatch) {
      e = simd::select(bits == static_cast<std::int32_t>(input),
                       simd::broadcast(from_bits(result)), e);
    }
    // Above log(0x1p128) expf overflows to inf, and below log(0x1p-150)
    // (-inf included) it underflows to +0; NaN returns x + x.
    e = simd::select(
        x > 0x1.62e42ep6f,
        simd::broadcast(std::numeric_limits<float>::infinity()), e);
    e = simd::select(x < -0x1.9fe368p6f, simd::broadcast(0.0f), e);
    e = simd::select(abs_bits > 0x7f800000, x + x, e);
  }
  return e;
}

/// 1 / (1 + expf(-x)) in every lane.
[[gnu::always_inline]] inline vfloat sigmoid_lanes(vfloat x) noexcept {
  return 1.0f / (1.0f + expf_lanes(-x));
}

/// Runs the lane kernel over `xs` in place, kSimdWidth at a time; a ragged
/// tail runs the same kernel on a padded vector.
template <vfloat (*kLanes)(vfloat) noexcept>
[[gnu::always_inline]] inline void apply_lanes(std::span<float> xs) noexcept {
  float* p = xs.data();
  const std::size_t n = xs.size();
  std::size_t j = 0;
  for (; j + kSimdWidth <= n; j += kSimdWidth) {
    simd::store(p + j, kLanes(simd::load(p + j)));
  }
  if (j < n) {
    float padded[kSimdWidth] = {};
    std::copy(p + j, p + n, padded);
    simd::store(padded, kLanes(simd::load(padded)));
    std::copy_n(padded, n - j, p + j);
  }
}

}  // namespace

void sigmoid(std::span<float> xs) noexcept { apply_lanes<sigmoid_lanes>(xs); }

void tanh(std::span<float> xs) noexcept { apply_lanes<tanh_lanes>(xs); }

void lstm_gate_pass(float* gates, const float* bias, const float* c_prev,
                    float* c_out, float* tanh_c_out, float* h_out,
                    std::size_t hidden) {
  float* gi = gates;
  float* gf = gates + hidden;
  float* gg = gates + 2 * hidden;
  float* go = gates + 3 * hidden;
  for (std::size_t j = 0; j < 4 * hidden; ++j) gates[j] += bias[j];
  sigmoid({gi, 2 * hidden});  // i and f are adjacent
  tanh({gg, hidden});
  sigmoid({go, hidden});
  for (std::size_t j = 0; j < hidden; ++j) {
    c_out[j] = gf[j] * c_prev[j] + gi[j] * gg[j];
  }
  std::copy_n(c_out, hidden, tanh_c_out);
  tanh({tanh_c_out, hidden});
  for (std::size_t j = 0; j < hidden; ++j) h_out[j] = go[j] * tanh_c_out[j];
}

}  // namespace pelican::nn
