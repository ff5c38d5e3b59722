#!/usr/bin/env bash
# One-command local gate: everything CI's correctness and analysis jobs
# run, in dependency order, against a single build tree. Run from the
# repo root (or anywhere; the script cd's home first):
#
#   tools/run_checks.sh            # build + tests + lints + analyzer
#   tools/run_checks.sh --fpe      # same, with the FPE tripwire armed
#   tools/run_checks.sh --no-build # reuse ./build as-is (fast re-lint)
#
# Steps that need tools this machine lacks (clang-tidy, cppcheck, the
# clang++ -Wthread-safety leg) are skipped with a notice, never
# silently: the analyzer and lint.py are dependency-free and always
# run, so the repo-specific gates cannot be skipped anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

FPE=OFF
BUILD=1
for arg in "$@"; do
  case "$arg" in
    --fpe) FPE=ON ;;
    --no-build) BUILD=0 ;;
    *) echo "usage: tools/run_checks.sh [--fpe] [--no-build]" >&2; exit 2 ;;
  esac
done

step() { printf '\n=== %s ===\n' "$*"; }
failures=0
skipped=()

if [ "$BUILD" = 1 ]; then
  step "configure (compile database exported, MNSIM_FPE=$FPE)"
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    -DMNSIM_WERROR=ON -DMNSIM_FPE="$FPE"
  step "build"
  cmake --build build -j "$(nproc)"
fi

step "ctest (C++ suite + tooling suites + compile-fail harness)"
(cd build && ctest --output-on-failure -j "$(nproc)") || failures=$((failures+1))

step "mnsim-analyze (semantic rules, SARIF)"
python3 tools/analyze -p build --sarif build/mnsim-analyze.sarif \
  || failures=$((failures+1))

step "tools/lint.py (source conventions)"
python3 tools/lint.py || failures=$((failures+1))

step "clang -Wthread-safety (MN_* capability annotations)"
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-tsafety -S . -DMNSIM_WERROR=ON \
    -DCMAKE_CXX_COMPILER=clang++ >/dev/null
  cmake --build build-tsafety -j "$(nproc)" || failures=$((failures+1))
else
  echo "clang++ not installed; skipping (CI still runs it)"
  skipped+=(clang-thread-safety)
fi

step "clang-tidy"
if command -v run-clang-tidy >/dev/null 2>&1; then
  run-clang-tidy -p build -quiet "$(pwd)/src/.*\.cpp\$" || failures=$((failures+1))
else
  echo "clang-tidy not installed; skipping (CI still runs it)"
  skipped+=(clang-tidy)
fi

step "cppcheck"
if command -v cppcheck >/dev/null 2>&1; then
  cppcheck --enable=warning,performance,portability \
    --inline-suppr --error-exitcode=1 --std=c++20 \
    --suppress=missingIncludeSystem -I src src || failures=$((failures+1))
else
  echo "cppcheck not installed; skipping (CI still runs it)"
  skipped+=(cppcheck)
fi

step "mnsim check (shipped examples, warnings as errors)"
if [ -x build/examples/mnsim_cli ]; then
  ./build/examples/mnsim_cli check --werror \
    examples/configs/*.ini examples/networks/*.ini || failures=$((failures+1))
else
  echo "mnsim_cli not built; skipping example pre-flight"
  skipped+=(mnsim-check)
fi

step "summary"
if [ "${#skipped[@]}" -gt 0 ]; then
  echo "skipped (tool unavailable): ${skipped[*]}"
fi
if [ "$failures" -gt 0 ]; then
  echo "run_checks: $failures gate(s) FAILED"
  exit 1
fi
echo "run_checks: all gates passed"
