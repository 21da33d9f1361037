#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
simulator and the benchmark in Release mode under .bench_build/; later calls
rebuild only what changed. The benchmark's result is the last line of
standard output, one JSON object. Traced runs (--trace 1) also write
per-layer JSON and a Chrome trace under .bench_out/. --self-test builds and
runs the benchmark's own unit tests instead.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")


def build(target):
    """Configures (once) and builds `target`; build logs go to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(BUILD_DIR, target)


def main(argv):
    if argv == ["--self-test"]:
        binary = build("perfbench_test")
        if binary is None:
            print("perfbench: build failed", file=sys.stderr)
            return 1
        return subprocess.run([binary], cwd=ROOT).returncode

    binary = build("perfbench")
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary, *argv, "--out-dir", OUT_DIR],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
