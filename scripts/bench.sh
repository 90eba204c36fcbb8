#!/usr/bin/env bash
# Release-build the microbenchmark suite and write a JSON snapshot to
# BENCH_core.json at the repo root. Commit the refreshed snapshot alongside
# performance work so regressions show up in review diffs.
#
#   scripts/bench.sh                 # full suite, BENCH_core.json
#   scripts/bench.sh --quick         # fast smoke pass, no JSON rewrite
#   scripts/bench.sh --filter REGEX  # subset, no JSON rewrite
#   scripts/bench.sh --compare       # run the suite and diff real_time against
#                                    # the committed BENCH_core.json; exits
#                                    # nonzero if any benchmark regressed by
#                                    # more than GDVR_BENCH_TOLERANCE (default
#                                    # 0.25 = 25%). No JSON rewrite.
#
# Snapshot and compare runs both use --benchmark_repetitions=3 and score each
# benchmark by its best (minimum) real_time across repetitions -- wall time,
# because cpu_time counts only the main thread and so under-reports every
# benchmark that fans work out to worker threads. On a shared or
# single-core host, scheduler noise only ever adds time, so min-of-3 is a far
# more stable estimator than a single sample: one-shot runs here drift up to
# ~1.3x run-to-run, which made a 25% gate flag a rotating set of untouched
# benchmarks. Best-of-3 vs best-of-3 keeps the gate meaningful.
#   scripts/bench.sh --profile       # GDVR_PROFILE=1 run: appends the scoped
#                                    # timer report (Delaunay build, overlay
#                                    # recompute, dijkstra) to stderr;
#                                    # no JSON rewrite (timers add overhead)
#
# The run's google-benchmark library_build_type is checked from the JSON
# context: a non-release benchmark library inflates timer overhead, so the
# script warns loudly when the snapshot or comparison was produced against a
# debug library. (Distro packages often ship debug; the warning annotates
# rather than refuses so the suite stays runnable on such hosts -- compare
# runs are still valid as long as baseline and candidate used the same
# library, which the context line in BENCH_core.json records.)
#
# Build directory: build-rel/ (Release; created on demand, reused).
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
FILTER=""
PROFILE=0
COMPARE=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) QUICK=1; shift ;;
    --filter) FILTER="$2"; shift 2 ;;
    --profile) PROFILE=1; shift ;;
    --compare) COMPARE=1; shift ;;
    *) echo "usage: scripts/bench.sh [--quick] [--filter REGEX] [--compare] [--profile]" >&2; exit 2 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 4)"
cmake -S . -B build-rel -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-rel -j "$JOBS" --target micro_core

warn_debug_lib() {
  # $1: a benchmark JSON file. Non-fatal: annotate when the benchmark library
  # itself was not a release build (timer overhead is inflated).
  python3 - "$1" <<'EOF'
import json, sys
ctx = json.load(open(sys.argv[1])).get("context", {})
bt = ctx.get("library_build_type", "unknown")
if bt != "release":
    print(f"WARNING: google-benchmark library_build_type={bt!r} (not 'release');"
          " absolute timings carry extra overhead. Compare only against"
          " snapshots recorded with the same library.", file=sys.stderr)
EOF
}

if [[ "$COMPARE" == 1 ]]; then
  if [[ ! -f BENCH_core.json ]]; then
    echo "--compare: no BENCH_core.json baseline at repo root" >&2
    exit 2
  fi
  TMP_JSON="$(mktemp /tmp/bench_compare_XXXX.json)"
  trap 'rm -f "$TMP_JSON"' EXIT
  ./build-rel/bench/micro_core --benchmark_min_time=0.05 \
      --benchmark_repetitions=3 \
      --benchmark_out="$TMP_JSON" --benchmark_out_format=json
  warn_debug_lib "$TMP_JSON"
  python3 - BENCH_core.json "$TMP_JSON" "${GDVR_BENCH_TOLERANCE:-0.25}" <<'EOF'
import json, sys

base_path, cand_path, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])

def load(p):
    # Score each benchmark by its best (min) real_time across repetitions:
    # on an otherwise-idle host, noise only inflates timings, so the minimum
    # is the most stable per-run estimator. Single-sample snapshots (older
    # baselines) degenerate to their one entry.
    out = {}
    for b in json.load(open(p))["benchmarks"]:
        if b.get("run_type", "iteration") != "iteration":
            continue
        prev = out.get(b["name"])
        if prev is None or b["real_time"] < prev["real_time"]:
            out[b["name"]] = b
    return out

base, cand = load(base_path), load(cand_path)

regressed = []
new_names = []
print(f"\n{'benchmark':<42} {'base':>12} {'now':>12} {'ratio':>7}")
for name, c in cand.items():
    b = base.get(name)
    if b is None:
        # Benchmarks added since the snapshot have nothing to compare
        # against; summarized in one line below instead of flag rows.
        new_names.append(name)
        continue
    ratio = c["real_time"] / b["real_time"] if b["real_time"] > 0 else float("inf")
    flag = ""
    if ratio > 1.0 + tol:
        flag = "  << REGRESSION"
        regressed.append((name, ratio))
    print(f"{name:<42} {b['real_time']:>12.0f} {c['real_time']:>12.0f} {ratio:>7.2f}{flag}")
for name in base:
    if name not in cand:
        print(f"{name:<42}   (missing from this run)")
if new_names:
    shown = ", ".join(sorted(new_names)[:6])
    more = f" (+{len(new_names) - 6} more)" if len(new_names) > 6 else ""
    print(f"{len(new_names)} benchmark(s) not in the baseline snapshot "
          f"(no comparison): {shown}{more}")

if regressed:
    print(f"\n{len(regressed)} benchmark(s) regressed more than "
          f"{tol:.0%} vs {base_path}:", file=sys.stderr)
    for name, ratio in regressed:
        print(f"  {name}: {ratio:.2f}x baseline real_time", file=sys.stderr)
    print("Re-run to rule out host noise; if real, fix it or re-snapshot with"
          " scripts/bench.sh and justify the new baseline in the commit.",
          file=sys.stderr)
    sys.exit(1)
print(f"\nno real_time regressions beyond {tol:.0%}")
EOF
  exit 0
fi

# NB: this benchmark version wants a plain double for --benchmark_min_time
# (no "s" suffix).
ARGS=(--benchmark_min_time=0.05)
SNAPSHOT=0
if [[ "$QUICK" == 1 ]]; then
  ARGS=(--benchmark_min_time=0.01)
elif [[ -z "$FILTER" && "$PROFILE" == 0 ]]; then
  ARGS+=(--benchmark_repetitions=3
         --benchmark_out=BENCH_core.json --benchmark_out_format=json)
  SNAPSHOT=1
fi
[[ -n "$FILTER" ]] && ARGS+=(--benchmark_filter="$FILTER")

if [[ "$PROFILE" == 1 ]]; then
  GDVR_PROFILE=1 ./build-rel/bench/micro_core "${ARGS[@]}"
else
  ./build-rel/bench/micro_core "${ARGS[@]}"
fi
if [[ "$SNAPSHOT" == 1 ]]; then
  warn_debug_lib BENCH_core.json
  echo "wrote BENCH_core.json"
fi
