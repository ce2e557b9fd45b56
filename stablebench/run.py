#!/usr/bin/env python3
"""Builds the benchmark harness from the checkout's sources and runs it.

    python3 stablebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The harness and the library sources
under src/ are compiled once (Release) into the build directory named by
CARGO_TARGET_DIR, default .bench_build; later runs rebuild only what
changed. Build output goes to standard error; the harness prints the
result as the last line of standard output.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run ends well inside three minutes; a hung one is stopped here.
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    make = ["cmake", "--build", build_dir, "-j", jobs,
            "--target", "stablebench"]
    return subprocess.run(make, stdout=sys.stderr).returncode == 0


def main():
    build_dir = os.path.join(ROOT,
                             os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(build_dir):
        print("stablebench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(build_dir, "stablebench")
    try:
        return subprocess.run([exe] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("stablebench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
