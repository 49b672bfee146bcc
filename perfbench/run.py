#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles the
library from src/) into .bench_build/ with CMake, then runs the benchmark
binary and relays its output; its last stdout line is the JSON result.
Build output goes to stderr. Exits non-zero, without a result line, when
the build or the run fails.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
SCRATCH = os.path.join(BUILD, "scratch")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "event_sim.h")):
        sys.exit("perfbench: run from the repository root (src/ not found)")
    configure = ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"],
                   check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    binary = os.path.join(BUILD, "perfbench")
    # The child is waited for on every path, including interruption.
    with subprocess.Popen([binary, *sys.argv[1:], "--scratch", SCRATCH]) as child:
        try:
            return child.wait()
        except BaseException:
            child.kill()
            child.wait()
            raise


if __name__ == "__main__":
    sys.exit(main())
