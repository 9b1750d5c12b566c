#!/usr/bin/env python3
"""Builds the repository benchmark and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout. The first run configures and builds
perfbench/ (the program's sources plus the benchmark, optimized) under
$CARGO_TARGET_DIR, or .bench_build at the checkout root when it is unset;
later runs only rebuild what changed. Each run first passes the benchmark's
self-tests, then runs the workload and prints its detail followed, as the
last line, by one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json, with --trace 1 its per_layer metrics (a layer the workload
does not exercise reads 0). The exit code is nonzero, with no result line,
when the sources are missing, the build or self-tests fail, or the run does
not finish in time; it is 1, after the result line, when any output was
wrong.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_prod_mix", "http_short_long")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; fails the run on error."""
    try:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if result.returncode != 0:
        fail("failed: " + " ".join(cmd))


def build(bdir):
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", bdir, "-j", jobs], BUILD_TIMEOUT_S)


def select_metrics(measured, trace):
    """The metrics BENCHMARK.json lists for this mode, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    selected = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        got = measured.get(name)
        if got is None:
            if not trace:
                fail("end-to-end metric %s was not measured" % name, 3)
            got = {"value": 0, "unit": unit}
        if got["unit"] != unit:
            fail("metric %s measured in %s, listed in %s" % (name, got["unit"], unit), 3)
        selected[name] = got
    return selected


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 0 < args.seconds <= 120:
        fail("--seconds must be in (0, 120]")

    for needed in ("src/core/compiler.h", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s not found in %s" % (needed, ROOT))
    bdir = build_dir()
    build(bdir)
    run_quiet([os.path.join(bdir, "perfbench_selftest")], 60)

    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir]
    start = time.monotonic()
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                                universal_newlines=True)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = result.stdout.rstrip("\n").split("\n")
    if result.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(result.stdout)
        fail("workload exited with code %d" % result.returncode, 3)
    report = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print("  (run took %.1f s)" % (time.monotonic() - start))
    final = {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": select_metrics(report["metrics"], args.trace),
    }
    print(json.dumps(final))
    sys.stdout.flush()
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
