#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload list-read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

It configures and builds perfbench/ with CMake into $CARGO_TARGET_DIR
(default .bench_build) under the current directory, then runs the
perfbench binary.  Build output goes to stderr, so the binary's last
stdout line (the JSON result) is the last line this script prints.  The
exit status is the binary's: 0 when every check passed, 1 when one
failed, and 2 without any result when the build or the arguments are
wrong.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("list-read", "queue-pairs", "map-update")


def build(build_dir):
    """Configure (once) and build; returns False on any failure."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", "2"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true",
                    help="run the checkers' self-test instead")
    args = ap.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not args.self_test and not 1 <= args.seconds <= 120:
        ap.error("--seconds must be within 1..120")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    if not build(build_dir):
        return 2

    if args.self_test:
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest")]
                              ).returncode
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, "trace-%s-%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=170).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded 170 s", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
