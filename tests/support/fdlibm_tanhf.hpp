// A plain scalar rewrite of fdlibm's float tanhf and expm1f, the code
// glibc's libm runs for tanhf (sysdeps/ieee754/flt-32/s_tanhf.c and
// s_expm1f.c). It is the reference nn::tanh (nn/activations.hpp) must match
// bit for bit, and it shares no code with that kernel: expm1f keeps every
// branch, including those tanhf never reaches.
//
// Build what includes this with -ffp-contract=off, as the kernel is: a
// fused a * b + c would change the reference's bits.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

namespace pelican::testing {

inline float float_from_bits(std::uint32_t bits) {
  return std::bit_cast<float>(bits);
}

inline std::uint32_t bits_of(float x) { return std::bit_cast<std::uint32_t>(x); }

/// Adds k to y's exponent field, as fdlibm's SET_FLOAT_WORD(y, i + (k<<23)).
inline float scale_exponent(float y, std::int32_t k) {
  return float_from_bits(bits_of(y) + (static_cast<std::uint32_t>(k) << 23));
}

inline float fdlibm_expm1f(float x) {
  const float one = 1.0f;
  const float huge = 1.0e+30f;
  const float tiny = 1.0e-30f;
  const float o_threshold = float_from_bits(0x42b17180);
  const float ln2_hi = float_from_bits(0x3f317180);
  const float ln2_lo = float_from_bits(0x3717f7d1);
  const float invln2 = float_from_bits(0x3fb8aa3b);
  const float q1 = float_from_bits(0xbd088889);
  const float q2 = float_from_bits(0x3ad00d01);
  const float q3 = float_from_bits(0xb8a670cd);
  const float q4 = float_from_bits(0x36867e54);
  const float q5 = float_from_bits(0xb457edbb);

  std::uint32_t hx = bits_of(x);
  const bool negative = (hx & 0x80000000u) != 0;
  hx &= 0x7fffffffu;

  // Huge and non-finite arguments.
  if (hx >= 0x4195b844u) {        // |x| >= 27 ln2
    if (hx >= 0x42b17218u) {      // |x| >= 88.72
      if (hx > 0x7f800000u) return x + x;  // NaN
      if (hx == 0x7f800000u) return negative ? -1.0f : x;
      if (x > o_threshold) return huge * huge;  // overflow
    }
    if (negative) return tiny - one;  // -1 with inexact
  }

  // Argument reduction.
  float hi = 0.0f;
  float lo = 0.0f;
  float c = 0.0f;
  std::int32_t k = 0;
  if (hx > 0x3eb17218u) {         // |x| > 0.5 ln2
    if (hx < 0x3f851592u) {       // and |x| < 1.5 ln2
      if (!negative) {
        hi = x - ln2_hi;
        lo = ln2_lo;
        k = 1;
      } else {
        hi = x + ln2_hi;
        lo = -ln2_lo;
        k = -1;
      }
    } else {
      k = static_cast<std::int32_t>(invln2 * x + (negative ? -0.5f : 0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * ln2_hi;        // t * ln2_hi is exact here
      lo = t * ln2_lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000u) {  // |x| < 2^-25: x itself
    const float t = huge + x;
    return x - (t - (huge + x));
  }

  // x is now in the primary range.
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      one + hxs * (q1 + hxs * (q2 + hxs * (q3 + hxs * (q4 + hxs * q5))));
  float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);
  e = x * (e - c) - c;
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k == 1) {
    if (x < -0.25f) return -2.0f * (e - (x + 0.5f));
    return one + 2.0f * (x - e);
  }
  if (k <= -2 || k > 56) {        // exp(x) - 1 suffices
    float y = one - (e - x);
    y = k == 128 ? y * 2.0f * 0x1p127f : scale_exponent(y, k);
    return y - one;
  }
  float y = 0.0f;
  if (k < 23) {
    t = float_from_bits(0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    y = t - (e - x);
  } else {
    t = float_from_bits(static_cast<std::uint32_t>(0x7f - k) << 23);  // 2^-k
    y = x - (e + t);
    y += one;
  }
  return scale_exponent(y, k);
}

inline float fdlibm_tanhf(float x) {
  const float one = 1.0f;
  const float two = 2.0f;
  const float tiny = 1.0e-30f;
  const std::uint32_t jx = bits_of(x);
  const bool negative = (jx & 0x80000000u) != 0;
  const std::uint32_t ix = jx & 0x7fffffffu;

  if (ix >= 0x7f800000u) {        // inf or NaN
    return negative ? one / x - one : one / x + one;
  }
  float z = 0.0f;
  if (ix < 0x41b00000u) {         // |x| < 22
    if (ix == 0) return x;        // +-0
    if (ix < 0x24000000u) return x * (one + x);  // |x| < 2^-55
    if (ix >= 0x3f800000u) {      // |x| >= 1
      const float t = fdlibm_expm1f(two * (negative ? -x : x));
      z = one - two / (t + two);
    } else {
      const float t = fdlibm_expm1f(-two * (negative ? -x : x));
      z = -t / (t + two);
    }
  } else {                        // |x| >= 22: +-1
    z = one - tiny;
  }
  return negative ? -z : z;
}

/// Inputs where fdlibm tanhf is not correctly rounded: its result is one
/// ulp below tanh computed in double and rounded once. They cover the
/// k = 0, -1 and -2 reductions below |x| = 1 and two above it. A libm whose
/// tanhf returns fdlibm_tanhf's bits at all of them runs fdlibm's code; a
/// correctly rounded one (CORE-MATH) returns none of them.
inline constexpr std::uint32_t kFdlibmProbeInputs[] = {
    0x3e4cccceu,  // 0.200000018
    0x3eccccceu,  // 0.400000036
    0x3f333333u,  // 0.699999988
    0x3fc0001eu,  // 1.50000358
    0x40a00a3bu,  // 5.00124884
    0xbe99999au,  // -0.300000012
    0xc020014cu,  // -2.50007915
};

/// Whether this platform's std::tanh(float) is fdlibm's tanhf. The probes
/// pass through a volatile: GCC folds std::tanh of a constant at build
/// time, correctly rounded, which would hide the libm.
inline bool libm_tanhf_is_fdlibm() {
  for (const std::uint32_t probe : kFdlibmProbeInputs) {
    const volatile float x = float_from_bits(probe);
    if (bits_of(std::tanh(x)) != bits_of(fdlibm_tanhf(x))) return false;
  }
  return true;
}

}  // namespace pelican::testing
