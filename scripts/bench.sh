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
#   scripts/bench.sh --compare-rev REV [--filter REGEX]
#                                    # A/B against a git revision in one window:
#                                    # exports REV with git archive into a temp
#                                    # dir (deleted on exit), builds its
#                                    # micro_core (Release) into build-rel-base/,
#                                    # then runs both binaries over the same rows
#                                    # in 8 rounds at 0.2 s per row, alternating
#                                    # which goes first (about 6 minutes for the
#                                    # full suite). Each row is scored by its
#                                    # median real_time over the rounds; exits
#                                    # nonzero if any row's this-tree/REV ratio
#                                    # exceeds 1 + GDVR_BENCH_TOLERANCE. Each
#                                    # flagged row also prints both sides'
#                                    # min-max over the rounds, so host drift
#                                    # (overlapping ranges, one wild round) can
#                                    # be told from a shift of the whole range.
#                                    # Rows present on one side only are listed.
#                                    # It also builds both sides' gdv_sim and
#                                    # runs `--periods 3 --pairs 200 --seed 3`
#                                    # at --nodes 200 and 400 twice on each,
#                                    # printing whether stdout is byte-identical
#                                    # and every wall time (informational: it
#                                    # never changes the exit status).
#                                    # `--compare-rev HEAD` measures the working
#                                    # tree against its last commit; no JSON
#                                    # rewrite.
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
# Build directories: build-rel/ (Release; created on demand, reused) and, for
# --compare-rev, build-rel-base/ (rebuilt from the exported revision each run).
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
FILTER=""
PROFILE=0
COMPARE=0
COMPARE_REV=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) QUICK=1; shift ;;
    --filter) FILTER="$2"; shift 2 ;;
    --profile) PROFILE=1; shift ;;
    --compare) COMPARE=1; shift ;;
    --compare-rev) COMPARE_REV="$2"; shift 2 ;;
    *) echo "usage: scripts/bench.sh [--quick] [--filter REGEX] [--compare]" \
            "[--compare-rev REV] [--profile]" >&2; exit 2 ;;
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

if [[ -n "$COMPARE_REV" ]]; then
  BASE_SRC="$(mktemp -d)"
  RUNS="$(mktemp -d)"
  trap 'rm -rf "$BASE_SRC" "$RUNS"' EXIT
  git archive "$COMPARE_REV" | tar -x -C "$BASE_SRC"
  # The tree's CMake cache names the source directory, which is new on every
  # run, so the base build starts from scratch.
  rm -rf build-rel-base
  cmake -S "$BASE_SRC" -B build-rel-base -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build-rel-base -j "$JOBS" --target micro_core gdv_sim
  cmake --build build-rel -j "$JOBS" --target gdv_sim
  # Rounds and per-row time: 3 rounds at 0.05 s let host drift of up to
  # 1.8x on one side flag a rotating set of untouched small kernels at
  # 1.3-1.4x; the median of 8 rounds at 0.2 s holds identical code within
  # the 25% tolerance.
  ROUNDS=8
  ROW_ARGS=(--benchmark_min_time=0.2)
  [[ -n "$FILTER" ]] && ROW_ARGS+=(--benchmark_filter="$FILTER")
  for round in $(seq "$ROUNDS"); do
    # Alternate which binary runs first, so a drift in host load over the
    # window lands on both sides.
    if (( round % 2 == 1 )); then sides=(base change); else sides=(change base); fi
    for side in "${sides[@]}"; do
      [[ "$side" == base ]] && bin=./build-rel-base/bench/micro_core || bin=./build-rel/bench/micro_core
      echo "== round $round: $side ==" >&2
      "$bin" "${ROW_ARGS[@]}" --benchmark_out="$RUNS/$side-$round.json" \
          --benchmark_out_format=json >/dev/null
    done
  done
  # End to end, informational: does the change keep gdv_sim's output byte
  # for byte, and what does each side take? Two runs per side and N, in
  # the order base, change, change, base so that a drift in host load
  # lands on both; the wall times are a hint, not a verdict.
  for nodes in 200 400; do
    declare -A walls=([base]="" [change]="")
    for side in base change change base; do
      [[ "$side" == base ]] && bin=./build-rel-base/examples/gdv_sim || bin=./build-rel/examples/gdv_sim
      start="$(date +%s.%N)"
      "$bin" --nodes "$nodes" --periods 3 --pairs 200 --seed 3 >"$RUNS/gdv_sim-$side-$nodes.txt"
      walls[$side]+="$(awk -v a="$start" -v b="$(date +%s.%N)" 'BEGIN { printf " %.2f", b - a }')"
    done
    cmp -s "$RUNS/gdv_sim-base-$nodes.txt" "$RUNS/gdv_sim-change-$nodes.txt" &&
      same="byte-identical" || same="DIFFERENT"
    echo "gdv_sim --nodes $nodes --periods 3 --pairs 200 --seed 3: stdout $same;" \
         "wall (s) ${COMPARE_REV:0:12}${walls[base]}, this tree${walls[change]}"
  done
  warn_debug_lib "$RUNS/change-1.json"
  python3 - "$RUNS" "$COMPARE_REV" "${GDVR_BENCH_TOLERANCE:-0.25}" <<'EOF'
import glob, json, os, statistics, sys

runs, rev, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])

def load(side):
    # Every round's real_time per row: wall time, because cpu_time counts
    # only the main thread of benchmarks that fan out to workers.
    times, units = {}, {}
    for path in sorted(glob.glob(os.path.join(runs, side + "-*.json"))):
        for b in json.load(open(path))["benchmarks"]:
            if b.get("run_type", "iteration") == "iteration":
                times.setdefault(b["name"], []).append(b["real_time"])
                units[b["name"]] = b.get("time_unit", "ns")
    return times, units

(base, units), (change, _) = load("base"), load("change")

def spread(ts):
    return f"{min(ts):.4g}-{max(ts):.4g}"

regressed = []
print(f"\n{'benchmark':<42} {rev[:12]:>14} {'this tree':>14} {'ratio':>7}")
for name in change:
    if name not in base:
        continue
    # Each row is scored by its median over the rounds.
    b, c, unit = statistics.median(base[name]), statistics.median(change[name]), units[name]
    ratio = c / b if b > 0 else float("inf")
    flag = ""
    if ratio > 1.0 + tol:
        flag = "  << REGRESSION"
        regressed.append((name, ratio, f"{rev[:12]} {spread(base[name])} {unit}, "
                                       f"this tree {spread(change[name])} {unit}"))
    print(f"{name:<42} {b:>11.4g} {unit:<2} {c:>11.4g} {unit:<2} {ratio:>7.2f}{flag}")
    if flag:
        print(f"{'':<4}min-max over {len(base[name])} / {len(change[name])} rounds: "
              f"{regressed[-1][2]}")
for name in sorted(set(base) - set(change)):
    print(f"{name:<42}   (only in {rev})")
for name in sorted(set(change) - set(base)):
    print(f"{name:<42}   (only in this tree)")

if regressed:
    print(f"\n{len(regressed)} benchmark(s) slower than {rev} by more than {tol:.0%}:",
          file=sys.stderr)
    for name, ratio, ranges in regressed:
        print(f"  {name}: {ratio:.2f}x (min-max: {ranges})", file=sys.stderr)
    sys.exit(1)
print(f"\nno real_time regressions beyond {tol:.0%} against {rev}")
EOF
  exit 0
fi

if [[ "$COMPARE" == 1 ]]; then
  if [[ ! -f BENCH_core.json ]]; then
    echo "--compare: no BENCH_core.json baseline at repo root" >&2
    exit 2
  fi
  TMP_JSON="$(mktemp "${TMPDIR:-/tmp}/bench_compare_XXXX.json")"
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
