#!/usr/bin/env bash
#
# One-stop local verification: warnings-as-errors build + tests,
# ASan/UBSan build + tests, the contracts-off zero-cost probe, and
# clang-tidy when available. Mirrors the CI matrix so a clean run here
# means a clean run there.
#
# Usage:
#   tools/run_checks.sh            # the standard battery
#   RUN_TSAN=1 tools/run_checks.sh # additionally run the TSan suite
#
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc)
failures=0

step() { printf '\n==== %s ====\n' "$*"; }

build_and_test() {
    local preset=$1
    cmake --preset "$preset" >/dev/null
    cmake --build --preset "$preset" -j "$jobs"
    ctest --preset "$preset" -j "$jobs"
}

step "werror: -Wall -Wextra -Werror build + full test suite"
build_and_test werror

step "asan: AddressSanitizer + UBSan build + full test suite"
build_and_test asan

if [[ "${RUN_TSAN:-0}" != "0" ]]; then
    step "tsan: ThreadSanitizer build + full test suite"
    build_and_test tsan
else
    step "tsan: skipped (set RUN_TSAN=1 to enable)"
fi

step "nocontracts: contracts compiled out, suite still green"
build_and_test nocontracts

# Zero-cost probe: with GRAPHENE_CONTRACTS=OFF the contract message
# strings must not survive into the instrumented libraries. Pick a
# message that only exists as a contract argument.
probe_string="tracked row fell to the spillover floor"
if grep -aq "$probe_string" build-nocontracts/src/core/libgraphene_core.a; then
    echo "FAIL: contract strings present in a contracts-off build"
    failures=$((failures + 1))
else
    echo "OK: no contract residue in the contracts-off core library"
fi
if ! grep -aq "$probe_string" build-werror/src/core/libgraphene_core.a; then
    echo "FAIL: probe string missing from the checked build" \
         "(probe is stale — update it)"
    failures=$((failures + 1))
fi

step "obsoff: observability compiled out, suite still green"
build_and_test obsoff

# Zero-size probe: the obs-off build's fig8 artifact must be
# byte-identical to the instrumented build's — tracing can never
# perturb results, and compiling it out can never change them.
step "obsoff: fig8 artifact parity against the instrumented build"
cmake --preset default >/dev/null
cmake --build --preset default -j "$jobs" --target fig8_overhead
./build-obsoff/bench/fig8_overhead --windows 0.02 --jobs "$jobs" \
    --no-progress --json build-obsoff/fig8-parity.jsonl >/dev/null
./build/bench/fig8_overhead --windows 0.02 --jobs "$jobs" \
    --no-progress --json build/fig8-parity.jsonl >/dev/null
if cmp -s build-obsoff/fig8-parity.jsonl build/fig8-parity.jsonl; then
    echo "OK: obs-off and instrumented fig8 JSONL are byte-identical"
else
    echo "FAIL: obs-off fig8 JSONL diverges from the instrumented build"
    failures=$((failures + 1))
fi

step "graphene_analyze: static analysis (self-tests + whole tree)"
cmake --preset default >/dev/null
cmake --build --preset default -j "$jobs" --target graphene_analyze
./build/tools/analyze/graphene_analyze --self-test tools/analyze/fixtures
./build/tools/analyze/graphene_analyze --root . \
    --json build/analyze-findings.json

step "perf gate: previous commit vs working tree, measured"
tools/perf_gate.py HEAD~1

step "clang-tidy: bugprone / performance / core-guidelines"
if command -v clang-tidy >/dev/null 2>&1; then
    cmake --preset default -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    mapfile -t sources < <(find src -name '*.cc' | sort)
    if command -v run-clang-tidy >/dev/null 2>&1; then
        run-clang-tidy -p build -quiet "${sources[@]}"
    else
        clang-tidy -p build --quiet "${sources[@]}"
    fi
else
    echo "skipped: clang-tidy not installed"
fi

if [[ "$failures" -ne 0 ]]; then
    echo
    echo "$failures check(s) FAILED"
    exit 1
fi
echo
echo "all checks passed"
