// pelican_tanh_exhaustive — checks the lane activation kernels
// (nn/activations.hpp), nn::tanh and nn::sigmoid, bit for bit, over all
// 2^32 float bit patterns, NaN payloads included:
//
//   $ pelican_tanh_exhaustive
//   tanh reference:    4294967296 inputs, 0 mismatches
//   tanh libm:         4294967296 inputs, 0 mismatches
//   sigmoid reference: 4294967296 inputs, 0 mismatches
//   sigmoid libm:      4294967296 inputs, 0 mismatches
//   <seconds> s on <threads> threads
//
// The "reference" lines compare against the scalar rewrites the unit test
// keeps: fdlibm tanhf/expm1f (tests/support/fdlibm_tanhf.hpp) and, for
// the sigmoid 1 / (1 + expf(-x)), glibc's expf
// (tests/support/glibc_expf.hpp). The "libm" lines compare against
// std::tanh and 1.0f / (1.0f + std::exp(-x)), each only where the
// platform's routine is the one the kernel ports (the probes the unit test
// uses: fdlibm's tanhf, glibc's FMA expf), and report it as skipped
// elsewhere. nn_activations_test runs all four comparisons on a strided
// sweep; this tool covers every input (~40 s on 4 threads). Exits 1 on any
// mismatch.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "nn/activations.hpp"
#include "support/fdlibm_tanhf.hpp"
#include "support/glibc_expf.hpp"

namespace {

using pelican::testing::bits_of;
using pelican::testing::fdlibm_tanhf;
using pelican::testing::float_from_bits;
using pelican::testing::glibc_expf;

constexpr std::uint64_t kInputs = std::uint64_t{1} << 32;
constexpr std::uint64_t kChunk = 1 << 16;

/// One kernel checked against its scalar reference and, where the libm
/// runs the same routine, against the libm.
struct Check {
  const char* name;
  void (*kernel)(std::span<float>) noexcept;
  float (*reference)(float);
  float (*libm)(float);
  bool with_libm;
  const char* libm_differs;  ///< why the libm line is skipped
  std::atomic<std::uint64_t> reference_mismatches{0};
  std::atomic<std::uint64_t> libm_mismatches{0};
};

float reference_tanh(float x) { return fdlibm_tanhf(x); }
float libm_tanh(float x) { return std::tanh(x); }
float reference_sigmoid(float x) { return 1.0f / (1.0f + glibc_expf(-x)); }
float libm_sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

void report(const char* name, const char* against, std::uint32_t input,
            float kernel, float expected) {
  std::fprintf(stderr,
               "%s %s mismatch: %s(0x%08x) = 0x%08x, expected 0x%08x\n",
               name, against, name, input, bits_of(kernel), bits_of(expected));
}

/// Checks the chunks first, first + stride, ... and adds to each check's
/// counts.
void check_chunks(std::uint64_t first, std::uint64_t stride,
                  std::span<Check> checks) {
  std::vector<float> in(kChunk);
  std::vector<float> out(kChunk);
  for (std::uint64_t chunk = first; chunk * kChunk < kInputs;
       chunk += stride) {
    const std::uint64_t base = chunk * kChunk;
    for (std::uint64_t i = 0; i < kChunk; ++i) {
      in[i] = float_from_bits(static_cast<std::uint32_t>(base + i));
    }
    for (Check& check : checks) {
      out = in;
      check.kernel(out);
      std::uint64_t reference = 0;
      std::uint64_t libm = 0;
      for (std::uint64_t i = 0; i < kChunk; ++i) {
        const std::uint32_t input = static_cast<std::uint32_t>(base + i);
        const float expected = check.reference(in[i]);
        if (bits_of(out[i]) != bits_of(expected) && ++reference <= 3) {
          report(check.name, "reference", input, out[i], expected);
        }
        if (check.with_libm) {
          const float from_libm = check.libm(in[i]);
          if (bits_of(out[i]) != bits_of(from_libm) && ++libm <= 3) {
            report(check.name, "libm", input, out[i], from_libm);
          }
        }
      }
      check.reference_mismatches += reference;
      check.libm_mismatches += libm;
    }
  }
}

}  // namespace

int main() {
  const auto start = std::chrono::steady_clock::now();
  std::array<Check, 2> checks = {{
      {"tanh", pelican::nn::tanh, reference_tanh, libm_tanh,
       pelican::testing::libm_tanhf_is_fdlibm(),
       "this libm's tanhf is not fdlibm's"},
      {"sigmoid", pelican::nn::sigmoid, reference_sigmoid, libm_sigmoid,
       pelican::testing::libm_expf_is_glibc_fma(),
       "this libm's expf is not glibc's FMA build"},
  }};
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 16u);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back(check_chunks, t, threads, std::span<Check>(checks));
  }
  for (std::thread& worker : workers) worker.join();
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();

  bool ok = true;
  for (const Check& check : checks) {
    std::printf("%-18s %llu inputs, %llu mismatches\n",
                (std::string(check.name) + " reference:").c_str(),
                static_cast<unsigned long long>(kInputs),
                static_cast<unsigned long long>(
                    check.reference_mismatches.load()));
    if (check.with_libm) {
      std::printf("%-18s %llu inputs, %llu mismatches\n",
                  (std::string(check.name) + " libm:").c_str(),
                  static_cast<unsigned long long>(kInputs),
                  static_cast<unsigned long long>(
                      check.libm_mismatches.load()));
    } else {
      std::printf("%-18s skipped (%s)\n",
                  (std::string(check.name) + " libm:").c_str(),
                  check.libm_differs);
    }
    ok = ok && check.reference_mismatches == 0 && check.libm_mismatches == 0;
  }
  std::printf("%.1f s on %u threads\n", seconds, threads);
  return ok ? 0 : 1;
}
