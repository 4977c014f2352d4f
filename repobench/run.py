#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

Usage (from the repository root):
    python3 repobench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds the cosr library and the benchmark binary (repobench/CMakeLists.txt)
into .bench_build/ (or $CARGO_TARGET_DIR) on first use, runs the workload
in its own process and prints the result JSON object as the last line of
standard output:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1. Exits
nonzero, without a result line, when the build or the run fails, and with
the result line when an output check failed (then "correct" is false).
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
# The build tree lives in the checkout; CARGO_TARGET_DIR names it when set.
BUILD_DIR = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")
BINARY = os.path.join(CMAKE_DIR, "repobench")
WORKLOADS = ("core-churn", "db-blocks", "service-tenants")
# A run must end within 180 s. The benchmark binary's own budget is
# --seconds of rounds plus its counting pass.
RUN_TIMEOUT_S = 170


def fail(message):
    print("repobench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "cosr", "cosr.h")):
        fail("library sources not found under " +
             os.path.join(REPO_ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"] + generator
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.run(["cmake", "--build", CMAKE_DIR, "-j", jobs],
                          stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return BINARY


def declared_metrics(trace):
    """The metric names and units BENCHMARK.json declares, or None."""
    path = os.path.join(REPO_ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    table = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in table}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    scratch = os.path.join(BUILD_DIR, "scratch", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("workload printed no result (exit code %d)" % proc.returncode)
    result = json.loads(lines[-1])
    declared = declared_metrics(args.trace == 1)
    if declared is not None:
        reported = {name: m["unit"] for name, m in result["metrics"].items()}
        if reported != declared:
            fail("reported metrics differ from BENCHMARK.json: %s" %
                 sorted(set(reported.items()) ^ set(declared.items())))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
