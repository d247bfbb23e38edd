#!/usr/bin/env bash
# Self-test for the tools/lint family: each lint must PASS on the real tree
# and FAIL on the fixture tree seeded with the violation it exists to catch.
# A lint that stops firing on its fixture has rotted (pattern drift, path
# change) and would silently wave real violations through — this test is the
# canary. Run from the repo root (ctest sets WORKING_DIRECTORY).
set -u

failures=0

expect() {  # expect <pass|fail> <description> <command...>
  local want="$1" what="$2"
  shift 2
  if output=$("$@" 2>&1); then got=pass; else got=fail; fi
  if [[ "$got" != "$want" ]]; then
    echo "lint_selftest: expected $want, got $got: $what"
    echo "$output" | sed 's/^/    /'
    failures=$((failures + 1))
  else
    echo "ok ($want): $what"
  fi
}

F=tests/lint/fixtures

# The real tree is clean under every lint.
expect pass "layering lint on the real tree" \
  tools/lint/check_layering.sh
expect pass "determinism lint on the real tree" \
  tools/lint/check_determinism.sh
expect pass "wire-format lint on the real tree" \
  tools/lint/check_wire_version.sh

# Each fixture trips exactly the lint it was built for.
expect fail "layering lint flags an upward include (nn -> serve)" \
  tools/lint/check_layering.sh --root "$F/layering_violation"
expect fail "layering lint flags an unregistered src/ directory" \
  tools/lint/check_layering.sh --root "$F/unregistered_layer"
expect fail "determinism lint flags unordered-accumulation kernels" \
  tools/lint/check_determinism.sh --root "$F/nondeterministic_kernel"
expect fail "wire lint flags a frame change without a version bump" \
  tools/lint/check_wire_version.sh --root "$F/wire_unbumped"

# The determinism fixture must trip every pattern class, not just one —
# each `report` label names a distinct construct.
det_output=$(tools/lint/check_determinism.sh --root "$F/nondeterministic_kernel" 2>&1)
for label in "OpenMP" "std::reduce" "std::execution" "descending-k" \
             "unsafe-math build flag" "ISA or contraction flag" \
             "unsafe-math function attribute" "per-function ISA target"; do
  if ! grep -q "$label" <<<"$det_output"; then
    echo "lint_selftest: determinism lint no longer detects: $label"
    failures=$((failures + 1))
  fi
done

if [[ $failures -eq 0 ]]; then
  echo "lint_selftest OK: all lints pass the real tree and fail their fixtures"
  exit 0
fi
echo "lint_selftest: $failures check(s) failed"
exit 1
