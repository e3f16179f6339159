#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload check|fault|explore|serve \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/main.exe (and the
libraries it links) with dune into .bench_build/, then runs it with the
same arguments. The benchmark's last stdout line is one JSON object;
the exit code is the benchmark's (non-zero on a build failure, a usage
error or a failed correctness check).
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def main():
    root = os.getcwd()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: run from the repository root (dune-project and lib/ not found)\n")
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", root, "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
