// pelican_tanh_exhaustive — checks nn::tanh (nn/activations.hpp), bit for
// bit, over all 2^32 float bit patterns, NaN payloads included:
//
//   $ pelican_tanh_exhaustive
//   reference: 4294967296 inputs, 0 mismatches
//   libm:      4294967296 inputs, 0 mismatches
//   <seconds> s on <threads> threads
//
// "reference" is the scalar fdlibm tanhf/expm1f rewrite the unit test keeps
// (tests/support/fdlibm_tanhf.hpp); "libm" is std::tanh, checked only where
// the platform's tanhf is fdlibm's (the same probe the unit test uses), and
// reported as skipped elsewhere. nn_activations_test runs both comparisons
// on a strided sweep; this tool covers every input (~30 s on 4 threads).
// Exits 1 on any mismatch.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "nn/activations.hpp"
#include "support/fdlibm_tanhf.hpp"

namespace {

using pelican::testing::bits_of;
using pelican::testing::fdlibm_tanhf;
using pelican::testing::float_from_bits;

constexpr std::uint64_t kInputs = std::uint64_t{1} << 32;
constexpr std::uint64_t kChunk = 1 << 16;

struct Counts {
  std::atomic<std::uint64_t> reference{0};
  std::atomic<std::uint64_t> libm{0};
};

void report(const char* against, std::uint32_t input, float kernel,
            float expected) {
  std::fprintf(stderr, "%s mismatch: tanh(0x%08x) = 0x%08x, expected 0x%08x\n",
               against, input, bits_of(kernel), bits_of(expected));
}

/// Checks the chunks first, first + stride, ... and adds to `counts`.
void check_chunks(std::uint64_t first, std::uint64_t stride, bool libm,
                  Counts& counts) {
  std::vector<float> in(kChunk);
  std::vector<float> out(kChunk);
  for (std::uint64_t chunk = first; chunk * kChunk < kInputs;
       chunk += stride) {
    const std::uint64_t base = chunk * kChunk;
    for (std::uint64_t i = 0; i < kChunk; ++i) {
      in[i] = float_from_bits(static_cast<std::uint32_t>(base + i));
    }
    out = in;
    pelican::nn::tanh(out);
    std::uint64_t reference = 0;
    std::uint64_t from_libm = 0;
    for (std::uint64_t i = 0; i < kChunk; ++i) {
      const std::uint32_t input = static_cast<std::uint32_t>(base + i);
      const float expected = fdlibm_tanhf(in[i]);
      if (bits_of(out[i]) != bits_of(expected)) {
        if (++reference <= 3) report("reference", input, out[i], expected);
      }
      if (libm) {
        const float from_std = std::tanh(in[i]);
        if (bits_of(out[i]) != bits_of(from_std)) {
          if (++from_libm <= 3) report("libm", input, out[i], from_std);
        }
      }
    }
    counts.reference += reference;
    counts.libm += from_libm;
  }
}

}  // namespace

int main() {
  const auto start = std::chrono::steady_clock::now();
  const bool libm = pelican::testing::libm_tanhf_is_fdlibm();
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 16u);
  Counts counts;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back(check_chunks, t, threads, libm, std::ref(counts));
  }
  for (std::thread& worker : workers) worker.join();
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();

  std::printf("reference: %llu inputs, %llu mismatches\n",
              static_cast<unsigned long long>(kInputs),
              static_cast<unsigned long long>(counts.reference.load()));
  if (libm) {
    std::printf("libm:      %llu inputs, %llu mismatches\n",
                static_cast<unsigned long long>(kInputs),
                static_cast<unsigned long long>(counts.libm.load()));
  } else {
    std::printf("libm:      skipped (this libm's tanhf is not fdlibm's)\n");
  }
  std::printf("%.1f s on %u threads\n", seconds, threads);
  return counts.reference == 0 && counts.libm == 0 ? 0 : 1;
}
