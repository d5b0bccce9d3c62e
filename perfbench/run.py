#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload small-writes --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is a CMake project of its own (perfbench/CMakeLists.txt)
that compiles the library from ../src in Release mode with
APIO_DEBUG_CHECKS off.  It builds into $CARGO_TARGET_DIR (default
.bench_build) under the current directory and keeps its span dumps
and self-test files there.

The last line of standard output is the benchmark's JSON result; build
output goes to standard error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCES = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("small-writes", "many-steps-cached")
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir, target, env):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release", "-DAPIO_DEBUG_CHECKS=OFF"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            fail("configure failed")
    step = ["cmake", "--build", build_dir, "-j", jobs, "--target", target]
    if subprocess.run(step, stdout=sys.stderr, env=env).returncode:
        fail("build failed")
    return os.path.join(build_dir, target)


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys")
    if result["correct"] and not result["metrics"]:
        raise ValueError(f"no metrics in a correct {'traced' if trace else 'untraced'} run")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own self-test")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        fail("--workload is required")
    if not os.path.exists(os.path.join(SOURCES, "CMakeLists.txt")):
        fail(f"library sources not found at {SOURCES}")

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    work_dir = os.path.join(build_root, "perfbench-work")
    tmp_dir = os.path.join(build_root, "tmp")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    build_dir = os.path.join(build_root, "perfbench")

    try:
        if args.selftest:
            binary = build(build_dir, "perfbench_selftest", env)
            sys.exit(subprocess.run([binary, os.path.join(work_dir, "selftest")],
                                    env=env, timeout=RUN_TIMEOUT_S).returncode)

        binary = build(build_dir, "perfbench", env)
        command = [binary, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--work-dir", work_dir]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.rstrip("\n").split("\n")
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        if proc.returncode != 0:
            fail(f"benchmark exited with code {proc.returncode}", 1)
        try:
            check_result(lines[-1], args.trace)
        except (ValueError, KeyError) as err:
            fail(f"malformed result line: {err}", 1)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(os.path.join(work_dir, "selftest"), ignore_errors=True)


if __name__ == "__main__":
    main()
