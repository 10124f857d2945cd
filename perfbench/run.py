#!/usr/bin/env python3
"""Builds and runs one svx end-to-end benchmark workload.

    python3 perfbench/run.py --workload read-s10 --seed 1 --seconds 10 --trace 0

Builds the driver (perfbench/driver.cc, linked against the svx library from
this checkout's src/) in Release mode under .bench_build/, runs the named
workload once and prints the driver's report. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. See perfbench/README.md for the workloads and the metrics.

Exits non-zero without printing a result when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "svx_perfbench")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no svx sources next to {HERE}; nothing to build")
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "svx_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail(f"build step timed out: {' '.join(cmd)}")
        if done.returncode != 0:
            fail(f"build step failed ({done.returncode}): {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="read-s10, read-s300-budget or mixed-s100")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    store = os.path.join(BUILD_ROOT, "store", f"{args.workload}-{os.getpid()}")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--store", store, "--out", os.path.join(BUILD_ROOT, "traces")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run timed out after {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(store, ignore_errors=True)

    result = None
    for line in done.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        fail(f"driver exited with {done.returncode} and printed no result")
    print(json.dumps(result), flush=True)
    sys.exit(0 if done.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
