#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/CMakeLists.txt (the library straight from src/ plus the
benchmark) into .bench_build/perfbench; later runs only rebuild what
changed. Build output goes to standard error, so the last line of
standard output is always the benchmark's JSON result. Temporary stores
and the traced run's span dump live under .bench_build/work.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("wire_mixed", "answers_full", "delta_durable", "frontier_solve")
# A run, build excluded, ends within three minutes or fails.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", source, "-B", build_dir] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", build_dir, "--", "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "serve", "service.h")):
        return fail("no library sources under %s/src: run from the root "
                    "of a full checkout" % root)
    if shutil.which("cmake") is None:
        return fail("cmake not found")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if not build(root, build_dir):
        return fail("build failed")
    work_dir = os.path.join(root, ".bench_build", "work")
    os.makedirs(work_dir, exist_ok=True)

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", args.trace,
               "--work-dir", work_dir]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        return fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
