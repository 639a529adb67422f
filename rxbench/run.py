#!/usr/bin/env python3
"""Build and run the receiver benchmark.

    python3 rxbench/run.py --workload <farm_pair|stream_n3|offset_mc> \\
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
repository's libraries and the benchmark (Release) into .bench_build/rxbench;
later calls rebuild only what changed. Build output goes to stderr, so the
benchmark's last line of standard output is its JSON result. The exit code
is the benchmark's: 0 when every check passed, non-zero otherwise.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "rxbench")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("rxbench: build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=["farm_pair", "stream_n3", "offset_mc"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    build()
    cmd = [os.path.join(BUILD, "rxbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    sys.stdout.flush()
    # The benchmark is the only process started here; run() waits for it.
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
