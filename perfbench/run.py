#!/usr/bin/env python3
"""Build the srbd serving benchmark from source and run one workload.

    python3 perfbench/run.py --workload hot8|hot12|cold12 --seed N \
        --seconds S --trace 0|1

Run from the repository root. Every call configures and builds
perfbench/ (and the library sources it needs from src/) with CMake
into .bench_build/ ($CARGO_TARGET_DIR when set); after the first
build that only checks the tree is current. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. With --trace 1 the
span log is written to .bench_build/spans/<workload>-seed<N>.csv.
Exits nonzero, without a result, when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One run must end within 180 s; a build may take far longer.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    # Configuring an up-to-date tree again costs well under a second and
    # repairs one left half-configured.
    steps = [["cmake", "-S", HERE, "-B", out_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out_dir, "--target", "srb_perfbench",
              "-j", jobs]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            print("perfbench: %s" % e, file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    out_dir = build_dir()
    if not build(out_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(out_dir, "srb_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(out_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.csv" % (args.workload, args.seed))]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
