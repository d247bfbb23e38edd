// Fixture: an nn kernel violating the determinism contract in all six ways
// the lint detects in source: four that break the ascending-k chain and two
// function-level code-generation switches (the build-flag classes fire on
// CMakeLists.txt beside it). Never compiled; used only by
// tests/lint/lint_selftest.sh.
#include <numeric>
#include <vector>

namespace fixture {

double unordered_sum(const std::vector<double>& xs) {
  // Violation 1: std::reduce accumulates in unspecified order.
  return std::reduce(xs.begin(), xs.end(), 0.0);
}

double omp_sum(const std::vector<double>& xs) {
  double sum = 0.0;
  // Violation 2: OpenMP reduction reassociates the chain.
#pragma omp parallel for reduction(+ : sum)
  for (std::size_t k = 0; k < xs.size(); ++k) sum += xs[k];
  return sum;
}

double descending_dot(const std::vector<double>& a,
                      const std::vector<double>& b) {
  double acc = 0.0;
  // Violation 3: descending-k loop reverses the accumulation chain.
  for (std::size_t k = a.size(); k-- > 0;) acc += a[k] * b[k];
  return acc;
}

double policy_sum(const std::vector<double>& xs) {
  // Violation 4: an execution policy makes the accumulation reorderable.
  return std::reduce(std::execution::par_unseq, xs.begin(), xs.end(), 0.0);
}

// Violation 5: a per-function switch fuses a * b + c into one rounding.
__attribute__((optimize("fp-contract=fast"))) float fused(float a, float b,
                                                          float c) {
  return a * b + c;
}

// Violation 6: a per-function ISA level.
__attribute__((target("avx512f"))) float wide(float a) { return a; }

}  // namespace fixture
