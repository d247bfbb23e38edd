// Fixture: an nn kernel violating the ascending-k accumulation contract in
// all four ways the determinism lint detects in source (the build-flag
// classes fire on CMakeLists.txt beside it). Never compiled; used only by
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

}  // namespace fixture
