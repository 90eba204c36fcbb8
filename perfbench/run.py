#!/usr/bin/env python3
"""End-to-end GDVR benchmark.

Builds the gdvr_bench driver from the sources in this checkout (CMake,
RelWithDebInfo, into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench), runs one workload in its own process and prints
that process's result as the last line of standard output:

  python3 perfbench/run.py --workload construct --seed 3 --seconds 10 --trace 0
  python3 perfbench/run.py --self-test

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes the traced pass's spans next to the build).
The result is checked against BENCHMARK.json: every metric it lists must
be present, with its unit, and nothing else. --self-test runs every workload
at a tiny size, traced and untraced, and checks the same. Any failure to
build, run or report exits non-zero without printing a result.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures and builds gdvr_bench; returns the binary's path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "--target", "gdvr_bench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))
    return os.path.join(out, "gdvr_bench")


def check_result(result, expected):
    """Checks a result object against the metric list it must report."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError("result keys %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        raise BenchError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise BenchError("%s is not a whole number" % key)
    if result["attempted"] < 1:
        raise BenchError("nothing attempted")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(want):
        missing = sorted(set(want) - set(metrics))
        extra = sorted(set(metrics) - set(want))
        raise BenchError("metrics missing %s, unexpected %s" % (missing, extra))
    for name, unit in want.items():
        m = metrics[name]
        if m.get("unit") != unit:
            raise BenchError("%s has unit %r, expected %r" % (name, m.get("unit"), unit))
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError("%s has no finite value" % name)


def run_workload(binary, spec, workload, seed, seconds, trace, tiny=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, "%s-%d.json" % (workload, seed))]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        raise BenchError("%s exited with %d" % (workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s printed nothing" % workload)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise BenchError("%s: unreadable result line: %s" % (workload, e))
    check_result(result, spec["per_layer" if trace else "end_to_end"])
    return lines[:-1], result


def self_test(binary, spec):
    """Tiny pass of every workload, untraced and traced."""
    ok = True
    for w in spec["workloads"]:
        for trace in (False, True):
            label = "%s trace=%d" % (w["name"], trace)
            try:
                _, result = run_workload(binary, spec, w["name"], 3, 0, trace, tiny=True)
                if not result["correct"]:
                    raise BenchError("output checks failed")
                print("ok    %s: %d metrics, %d checks" %
                      (label, len(result["metrics"]), result["attempted"]))
            except BenchError as e:
                ok = False
                print("FAIL  %s: %s" % (label, e))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if not args.self_test and args.workload not in names:
            raise BenchError("--workload must be one of %s" % names)
        binary = build()
        if args.self_test:
            return 0 if self_test(binary, spec) else 1
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        header, result = run_workload(binary, spec, args.workload, args.seed, seconds,
                                      args.trace == 1)
    except (BenchError, OSError, ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    for line in header:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
