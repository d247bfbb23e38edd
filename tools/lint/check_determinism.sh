#!/usr/bin/env bash
# Determinism-contract lint for the nn kernels.
#
# The serving stack promises bit-identical results regardless of batch size,
# thread count, and quantization path (README "Performance architecture").
# That promise rests on ONE accumulation discipline: every output element is
# accumulated in ascending-k order, single-threaded within an element, with
# no reassociation, and on a code generation that keeps each operation's
# IEEE rounding. This lint greps src/nn for the constructs that break the
# first:
#
#   * #pragma omp            — OpenMP parallel reductions reassociate;
#                              parallelism belongs in common/thread_pool,
#                              which splits ELEMENTS, never one element's sum
#   * std::reduce /
#     std::transform_reduce  — unordered accumulation by contract
#   * std::execution         — execution policies make std::accumulate and
#                              friends reorderable too
#   * descending-k loops     — `for (k = n; k-- > 0;)` style accumulation
#                              reverses the chain and changes the bits;
#                              backward TIME iteration (BPTT's `ti`) is fine,
#                              so only induction variables named `k` trip this
#
# and, in the same sources, the function-level switches that break the
# second:
#
#   * an optimize(...) attribute or #pragma GCC optimize naming fast-math,
#     associative-math, unsafe-math-optimizations, Ofast or
#     fp-contract=fast|on: the build flags below, scoped to one function
#     (quant.cpp's tree-vectorize and vect-cost-model switches and
#     matrix.cpp's align-loops pass: they keep each operation's rounding)
#   * a target(...) attribute or #pragma GCC target: a per-function ISA
#     level forks the code generation the root CMakeLists.txt sets
#
# and every git-tracked CMake file (CMakeLists.txt, *.cmake; outside a git
# checkout, every one below the root but build trees and lint fixtures),
# skipping comment lines, for the build flags that break the second:
#
#   * -ffast-math, -Ofast, -fassociative-math, -funsafe-math-optimizations,
#     -ffp-contract=fast or =on, in any CMake file: they reassociate sums
#     or fuse a * b + c into one rounding
#   * -march=, -mfma or -ffp-contract in any CMake file but the root
#     CMakeLists.txt: the root sets the ISA level and -ffp-contract=off
#     once for every target, and a per-target or per-file setting forks the
#     code generation the kernels' bits rest on
#
# --root DIR  lint a tree other than the repo root (self-tests point this at
#             fixture trees under tests/lint/).
set -u

root="."
while [[ $# -gt 0 ]]; do
  case "$1" in
    --root) root="$2"; shift 2 ;;
    *) echo "usage: $0 [--root DIR]" >&2; exit 2 ;;
  esac
done
cd "$root" || exit 2

if [[ ! -d src/nn ]]; then
  echo "determinism lint: no src/nn under $(pwd)" >&2
  exit 2
fi

status=0
report() {  # report <label> <grep-output>
  if [[ -n "$2" ]]; then
    echo "determinism violation ($1):"
    echo "$2"
    status=1
  fi
}

files=$(find src/nn -name '*.hpp' -o -name '*.cpp')

report "OpenMP pragma reassociates accumulation" \
  "$(grep -Hn '#pragma[[:space:]]\+omp' $files)"
report "std::reduce / std::transform_reduce accumulate unordered" \
  "$(grep -Hn 'std::\(transform_\)\?reduce[[:space:]]*(' $files)"
report "std::execution policies make accumulation reorderable" \
  "$(grep -Hn 'std::execution::' $files)"
# Loops whose induction variable is k and which step downward:
# `for (... k-- ...)`, `for (...; --k)`, `for (...; k -= ...)`. The time
# axis may iterate backward (BPTT's `ti--`) — only `k`, the accumulation
# axis by convention (matrix.hpp), trips this.
report "descending-k loop reverses the accumulation chain" \
  "$(grep -Hn 'for[[:space:]]*(.*\(k--\|--k\|k[[:space:]]*-=\)' $files)"
# `optimize (` / `__optimize__(` / `gnu::optimize(` or the pragma, with an
# unsafe option on the same line (one line of a multi-line attribute names
# its own options).
report "unsafe-math function attribute or pragma reassociates or fuses arithmetic" \
  "$(grep -HnE '((^|[^[:alnum:]_])_*optimize_*[[:space:]]*\(|#[[:space:]]*pragma[[:space:]]+GCC[[:space:]]+optimize).*(fast-math|associative-math|unsafe-math-optimizations|Ofast|fp-contract=(fast|on))' $files)"
# target("...") / __target__("...") / target_clones("...") or the pragma.
report "per-function ISA target attribute or pragma forks the code generation" \
  "$(grep -HnE '(^|[^[:alnum:]_])_*target(_clones)?_*[[:space:]]*\([[:space:]]*"|#[[:space:]]*pragma[[:space:]]+GCC[[:space:]]+target' $files)"

if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  cmake_files=$(git ls-files -- '*CMakeLists.txt' '*.cmake' \
    ':!:tests/lint/fixtures')
else
  cmake_files=$(find . \( -name 'build*' -o -name .git -o \
    -path ./tests/lint/fixtures \) -prune -o \
    \( -name CMakeLists.txt -o -name '*.cmake' \) -print | sed 's|^\./||')
fi
flag_grep() {  # flag_grep <regex> <files...>: matches outside comment lines
  [[ $# -gt 1 ]] || return 0
  grep -HnE -e "$1" "${@:2}" | grep -vE '^[^:]+:[0-9]+:[[:space:]]*#'
}
report "unsafe-math build flag reassociates or fuses arithmetic" \
  "$(flag_grep '-f(fast-math|associative-math|unsafe-math-optimizations)|-Ofast|-ffp-contract=(fast|on)' $cmake_files)"
report "ISA or contraction flag set outside the root CMakeLists.txt" \
  "$(flag_grep '-march=|-mfma|-ffp-contract' $(grep -vx CMakeLists.txt <<<"$cmake_files"))"

if [[ $status -eq 0 ]]; then
  echo "determinism OK: nn kernels accumulate in ascending-k order, serially per element; no CMake file or function-level switch loosens floating-point code generation"
fi
exit $status
