#!/usr/bin/env python3
"""Builds the Gerenuk benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload ml_iter --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The engine libraries (src/) and the
benchmark driver are built with CMake into $CARGO_TARGET_DIR, or .bench_build
when that is unset; the first run builds everything, later runs only check
that the build is current. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Chrome traces of --trace 1 runs land in
<build dir>/traces/.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ml_iter", "shuffle_text", "service_open")
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "gerenuk_perfbench", "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "gerenuk_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no engine sources at %s; run from a full checkout"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2

    out_dir = os.path.join(build_dir, "traces")
    tmp_dir = os.path.join(build_dir, "tmp")  # keeps any shuffle spill file in the checkout
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", out_dir]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S,
                              env=dict(os.environ, TMPDIR=tmp_dir)).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
