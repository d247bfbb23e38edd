// A plain scalar rewrite of glibc's expf (2.36,
// sysdeps/ieee754/flt-32/e_expf.c with its __exp2f_data table), the code
// behind std::exp(float) on x86-64. It is the reference nn::sigmoid's lane
// expf (nn/activations.hpp) must match bit for bit, and it shares no code
// with that kernel: its 2^(i/32) table is computed here from std::exp2l,
// where the kernel holds hex literals.
//
// glibc builds expf twice on x86-64 and picks one at run time: an FMA build
// on CPUs with FMA and AVX2, and an SSE2 build elsewhere. This rewrite is
// the SSE2 build's operation order (build what includes it with
// -ffp-contract=off, as the kernel is), plus the two inputs where the FMA
// build rounds differently (kFmaExpfPatch), so it returns the FMA build's
// bits on every input.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

namespace pelican::testing {

/// The two inputs (as bits) at which glibc's FMA expf differs from its
/// SSE2 expf, and the FMA build's result at each; the SSE2 build returns
/// one ulp less at both.
inline constexpr std::array<std::array<std::uint32_t, 2>, 2> kFmaExpfPatch = {{
    {0x4202422fu, 0x56fc9f1cu},  // expf(32.5646935)
    {0xc27c65d9u, 0x11fa2993u},  // expf(-63.0994606)
}};

/// __exp2f_data.tab: bits(2^(i/32)) - (i << 47), so that adding k << 47 for
/// k = i (mod 32) gives 2^(k/32).
inline const std::array<std::uint64_t, 32>& glibc_exp2f_table() {
  static const std::array<std::uint64_t, 32> table = [] {
    std::array<std::uint64_t, 32> t{};
    for (std::uint64_t i = 0; i < t.size(); ++i) {
      const double v = static_cast<double>(
          std::exp2l(static_cast<long double>(i) / 32.0L));
      t[i] = std::bit_cast<std::uint64_t>(v) - (i << 47);
    }
    return t;
  }();
  return table;
}

inline float glibc_expf(float x) {
  constexpr double kInvLn2N = 0x1.71547652b82fep0 * 32;
  constexpr double kShift = 0x1.8p52;
  constexpr double kC0 = 0x1.c6af84b912394p-5 / 32 / 32 / 32;
  constexpr double kC1 = 0x1.ebfce50fac4f3p-3 / 32 / 32;
  constexpr double kC2 = 0x1.62e42ff0c52d6p-1 / 32;

  const std::uint32_t bits = std::bit_cast<std::uint32_t>(x);
  for (const auto& [input, result] : kFmaExpfPatch) {
    if (bits == input) return std::bit_cast<float>(result);
  }
  const std::uint32_t abstop = (bits >> 20) & 0x7ff;
  if (abstop >= (std::bit_cast<std::uint32_t>(88.0f) >> 20)) {
    // |x| >= 88 or NaN.
    if (bits == 0xff800000u) return 0.0f;  // -inf
    if (abstop >= 0x7f8) return x + x;     // inf or NaN
    if (x > 0x1.62e42ep6f) return 0x1p97f * 0x1p97f;     // overflow: inf
    if (x < -0x1.9fe368p6f) return 0x1p-95f * 0x1p-95f;  // underflow: 0
  }

  // x * 32 / ln2 = k + r with r in [-1/2, 1/2] and integer k.
  const double z = kInvLn2N * static_cast<double>(x);
  double kd = z + kShift;
  const std::uint64_t ki = std::bit_cast<std::uint64_t>(kd);
  kd -= kShift;
  const double r = z - kd;

  // exp(x) = 2^(k/32) * 2^(r/32) ~= s * (C0 r^3 + C1 r^2 + C2 r + 1).
  const std::uint64_t t = glibc_exp2f_table()[ki % 32] + (ki << 47);
  const double s = std::bit_cast<double>(t);
  const double p = kC0 * r + kC1;
  const double r2 = r * r;
  double y = kC2 * r + 1;
  y = p * r2 + y;
  y = y * s;
  return static_cast<float>(y);
}

/// Whether this platform's std::exp(float) is glibc's FMA expf: the SSE2
/// build (and any other libm) differs at the first patched input. The
/// probe passes through a volatile: GCC folds std::exp of a constant at
/// build time, correctly rounded, which would hide the libm.
inline bool libm_expf_is_glibc_fma() {
  const volatile float x = std::bit_cast<float>(kFmaExpfPatch[0][0]);
  return std::bit_cast<std::uint32_t>(std::exp(x)) == kFmaExpfPatch[0][1];
}

}  // namespace pelican::testing
