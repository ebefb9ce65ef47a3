#!/usr/bin/env python3
"""Builds and runs the LearnShapley pipeline benchmark.

Run from the repository root:

    python3 pipebench/run.py --workload imdb|academic --seed N \
        --seconds S --trace 0|1

The first run configures and compiles the library and the benchmark binary
(Release) under $CARGO_TARGET_DIR, or .bench_build/ when it is unset; later
runs rebuild only what changed. Build output goes to standard error. The
binary's last output line is the result JSON; this script checks its shape
and its metric names against BENCHMARK.json and prints it again as the last
line of standard output. The exit code is the binary's: 1 means a
correctness gate failed, 2 bad arguments or missing sources, 3 a tree that
is not an optimized build.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The binary measures for --seconds plus set-up and replays; it must finish
# well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=1):
    print(f"pipebench: {message}", file=sys.stderr)
    sys.exit(code)


def run_build_step(cmd):
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"build step failed: {' '.join(cmd)}")


def build(build_root):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found beside the benchmark", 2)
    cmake_dir = os.path.join(build_root, "pipebench")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        run_build_step(["cmake", "-S", HERE, "-B", cmake_dir,
                        "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", cmake_dir, "--target", "pipebench",
                    "-j", jobs])
    return os.path.join(cmake_dir, "pipebench")


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    binary = build(build_root)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_root, "pipebench_work")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
        # A failed gate is also named on standard error, where a caller
        # that keeps only the result line still sees it.
        if line.startswith("GATE FAILED"):
            print(f"pipebench: {line}", file=sys.stderr)
    if proc.returncode != 0:
        print(lines[-1], file=sys.stderr)
        fail(f"benchmark exited with {proc.returncode}", proc.returncode)

    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} are not {sorted(RESULT_KEYS)}")
    expected = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if expected is not None and got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, or units differ")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
