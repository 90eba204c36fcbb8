#!/usr/bin/env bash
# Full local gate: fast tier-1 tests first (plus the scenario-matrix smoke
# subset and the end-to-end benchmark's self-test), then the chaos suite,
# then an ASan/UBSan pass over the whole test suite in separate build trees. The full protocol x scenario matrix
# (ctest -L scenario) runs in --release.
#
#   scripts/check.sh            # tier-1 + scenario smoke + benchmark self-test
#                               # + chaos + sanitizers
#   scripts/check.sh --quick    # tier-1 + scenario smoke (CI on every push)
#   scripts/check.sh --release  # tier-1 in a Release tree + benchmark
#                               # self-test + benchmark compare
#                               # against BENCH_core.json, so optimization-
#                               # level-only bugs and perf regressions surface
#                               # before perf work lands. Raise
#                               # GDVR_BENCH_TOLERANCE (default 0.25) on noisy
#                               # shared hosts.
#   scripts/check.sh --coverage # opt-in: tier-1 under gcov instrumentation,
#                               # failing if src/ line coverage drops below
#                               # the committed COVERAGE_baseline.txt
#
# Build directories: build/ (plain), build-asan/, build-ubsan/, build-tsan/,
# build-rel/ (--release), build-cov/ (--coverage). Created on demand, reused
# across runs.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
RELEASE=0
[[ "${1:-}" == "--quick" ]] && QUICK=1
[[ "${1:-}" == "--release" ]] && RELEASE=1
if [[ "${1:-}" == "--coverage" ]]; then
  exec scripts/coverage.sh --check
fi

JOBS="$(nproc 2>/dev/null || echo 4)"

configure_and_build() {
  local dir="$1"; shift
  cmake -S . -B "$dir" -DGDVR_WERROR=ON "$@" >/dev/null
  cmake --build "$dir" -j "$JOBS"
}

if [[ "$RELEASE" == 1 ]]; then
  echo "== tier-1 (Release build) =="
  configure_and_build build-rel -DCMAKE_BUILD_TYPE=Release
  ctest --test-dir build-rel -LE 'chaos|scenario' --output-on-failure -j "$JOBS"
  echo "== full scenario matrix (Release) =="
  # Every protocol x every workload generator: invariants + thread/engine
  # digest determinism. The default gate runs only the smoke subset.
  ctest --test-dir build-rel -L scenario --output-on-failure -j "$JOBS"
  echo "== engine-sweep smoke (serial vs sharded, Release) =="
  # Drives the full VPoD protocol through the sharded engine and asserts
  # message-count equality against the serial oracle (the GDVR_ASSERTs in
  # the sweep); the wall-clock columns surface gross engine regressions.
  ./build-rel/bench/fig15_16_scalability --engine-sweep --smoke
  echo "== end-to-end benchmark self-test =="
  # Builds perfbench/ against this checkout's src/ and runs every workload
  # tiny, so a src/ change that breaks the benchmark fails here.
  python3 perfbench/run.py --self-test
  echo "== benchmark compare vs BENCH_core.json (Release) =="
  # Full suite at the snapshot's min_time; fails on >GDVR_BENCH_TOLERANCE
  # real_time regressions against the committed baseline.
  scripts/bench.sh --compare
  echo "release checks passed"
  exit 0
fi

echo "== tier-1 (plain build) =="
configure_and_build build
# Everything except the chaos and scenario labels: the fast suite that must
# always pass. The scenario matrix contributes its smoke subset here; the
# full matrix runs in --release.
ctest --test-dir build -LE 'chaos|scenario' --output-on-failure -j "$JOBS"

echo "== scenario smoke (plain build) =="
ctest --test-dir build -L scenario -R ScenarioMatrixSmoke --output-on-failure -j "$JOBS"

if [[ "$QUICK" == 1 ]]; then
  echo "quick mode: skipping chaos + sanitizer passes"
  exit 0
fi

echo "== end-to-end benchmark self-test =="
python3 perfbench/run.py --self-test

echo "== chaos suite (plain build) =="
ctest --test-dir build -L chaos --output-on-failure

echo "== churn soak (plain build) =="
ctest --test-dir build -L soak --output-on-failure

for san in address undefined; do
  dir="build-${san:0:1}san"
  [[ "$san" == address ]] && dir=build-asan || dir=build-ubsan
  echo "== tier-1 under ${san} sanitizer (${dir}) =="
  configure_and_build "$dir" -DGDVR_SANITIZE="$san"
  ctest --test-dir "$dir" -LE chaos --output-on-failure -j "$JOBS"
done

# The concurrency the fast suite exercises lives in the eval layer's
# parallel audits and the sharded simulator engine; drive the long-running
# labels (which audit continuously under churn) plus the sharded-engine
# group through TSan to catch data races the single-label runs miss.
echo "== chaos + soak + sharded engine under thread sanitizer (build-tsan) =="
configure_and_build build-tsan -DGDVR_SANITIZE=thread
ctest --test-dir build-tsan -L 'chaos|soak|parallel' --output-on-failure

echo "all checks passed"
