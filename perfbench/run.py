#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the dpart pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload <compile|timestep|durable|service> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (which builds the library
from src/) with CMake into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later runs only re-check the build. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. Checkpoints, trace
files and other scratch output stay under <build dir>/work.
"""

import os
import shutil
import subprocess
import sys


def build(source, build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", source, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j",
         str(min(4, os.cpu_count() or 1))],
        stdout=sys.stderr, check=True)


def main():
    source = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(source, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    work = os.path.join(build_dir, "work")
    os.makedirs(work, exist_ok=True)
    binary = os.path.join(build_dir, "perfbench")
    return subprocess.run([binary] + sys.argv[1:] + ["--work-dir", work]).returncode


if __name__ == "__main__":
    sys.exit(main())
