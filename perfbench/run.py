#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the library from src/) with CMake under
.bench_build/, runs the benchmark's self-tests once per build, then runs one
workload.  An untraced run is split into PARTS processes that each measure
an equal share of --seconds; each end-to-end metric is the median over the
parts, because the same program on this kind of shared host runs at speeds
that differ by up to a third from one process to the next while staying
steady within a process.  A traced run is one process.  Artifact files and
spans land in .bench_out/.  The last line of standard output is the run's
JSON result; everything else goes to standard error.  Exits non-zero,
without printing a result, when the sources are missing, the build or
self-tests fail, or the run's output is malformed.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
PARTS = 5
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def build():
    for needed in ("src/CMakeLists.txt", "bench/bench_common.h"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"library sources not found: {needed} is missing")
    out = build_dir()
    # Configured on every run, not only the first: the run header's git SHA
    # is read at configure time and must follow the checkout's HEAD.
    if not run_quiet(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S):
        fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_quiet(["cmake", "--build", out, "-j", jobs], BUILD_TIMEOUT_S):
        fail("build failed")
    binary = os.path.join(out, "perfbench")
    stamp = os.path.join(out, "selftest.ok")
    if (not os.path.isfile(stamp)
            or os.path.getmtime(stamp) < os.path.getmtime(binary)):
        if not run_quiet([binary, "--selftest"], RUN_TIMEOUT_S):
            fail("self-tests failed")
        with open(stamp, "w", encoding="utf-8") as f:
            f.write("ok\n")
    return binary


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail(f"result line is not JSON: {line!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has the wrong keys: {sorted(result)}")
    if not isinstance(result["correct"], bool):
        fail("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"'{key}' is not a whole number")
    if result["attempted"] < 1:
        fail("nothing was attempted")
    declared = declared_metrics(trace)
    metrics = result["metrics"]
    if declared is not None:
        if set(metrics) != set(declared):
            fail(f"metrics differ from BENCHMARK.json: got {sorted(metrics)}")
        for name, unit in declared.items():
            if metrics[name].get("unit") != unit:
                fail(f"metric {name} has unit {metrics[name].get('unit')}, want {unit}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            fail(f"metric {name} is malformed: {m}")
    return result


def run_part(cmd, deadline):
    """Runs one perfbench process; returns its last stdout line."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"run exceeded {RUN_TIMEOUT_S} s")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        fail(f"perfbench exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed no result")
    return lines[-1]


def combine(results):
    """One result from the parts: sums of counts, medians of metrics."""
    metrics = {}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values), "unit": m["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--out-dir", out_dir]
    # A SIGTERM to this script still stops and reaps the benchmark process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.trace == 1:
        line = run_part(cmd + ["--seconds", str(args.seconds)], deadline)
        check_result(line, True)
        print(line)
        return 0
    parts = max(1, min(PARTS, args.seconds))
    results = []
    for i in range(parts):
        line = run_part(cmd + ["--seconds", repr(args.seconds / parts), "--part", str(i)],
                        deadline)
        results.append(check_result(line, False))
    result = combine(results)
    summary = os.path.join(out_dir, f"{args.workload}_seed{args.seed}_trace0.json")
    with open(summary, "w", encoding="utf-8") as f:
        json.dump({"parts": results, "result": result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
