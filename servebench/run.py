#!/usr/bin/env python3
"""Builds and runs the rt3 serving benchmark.

Usage (from the repository root):

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 servebench/run.py --self-test

The benchmark is a CMake package of its own (servebench/CMakeLists.txt)
that compiles the rt3 library from the repository's sources.  It is built
into $CARGO_TARGET_DIR (default .bench_build) on first use, then run once
per call.  The last line of stdout is the run's JSON result; its metric
names and units are checked against BENCHMARK.json before it is printed.
Exit codes: 0 correct, 1 a correctness check failed, 2 anything else.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def fail(message):
    print("servebench: " + message, file=sys.stderr)
    sys.exit(2)


def build(target):
    """Configures (once) and builds `target`; returns the build directory."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no rt3 sources at " + os.path.join(ROOT, needed))
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the build directory too.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S,
                                  check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return build_dir


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        build_dir = build("servebench_tests")
        sys.exit(subprocess.run(
            [os.path.join(build_dir, "servebench_tests")],
            timeout=RUN_TIMEOUT_S, check=False).returncode)
    if not args.workload:
        fail("--workload is required")

    build_dir = build("servebench")
    cmd = [os.path.join(build_dir, "servebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        # The traced run writes its spans under .servebench/ in the root.
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              check=False, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail("benchmark exited with %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
        got = {name: m["unit"] for name, m in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        fail("unreadable result line: %s" % e)
    want = expected_metrics(args.trace == "1")
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, unexpected %s"
             % (sorted(set(want.items()) - set(got.items())),
                sorted(set(got.items()) - set(want.items()))))
    print(lines[-1])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
