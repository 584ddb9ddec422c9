#!/usr/bin/env python3
"""Build padbench from this checkout's sources, then run one workload.

    python3 padbench/run.py --workload <rpc-mix|nic-share|gridccm-redist> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 padbench/run.py --self-test

The build goes to .bench_build/padbench at the root of the checkout; the
first run configures and compiles (a minute or two), later runs only check
that the binary is current. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "padbench")
BINARY = os.path.join(BUILD, "padbench")


def run_quiet(cmd):
    """Run a build step with its output on stderr; exit on failure."""
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    if done.returncode != 0:
        sys.exit("padbench: build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("padbench: no Padico sources next to the benchmark (src/ is missing)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator)
    run_quiet(["cmake", "--build", BUILD, "--target", "padbench", "-j", "4"])


def main():
    build()
    sys.stdout.flush()
    os.execv(BINARY, [BINARY] + sys.argv[1:])


if __name__ == "__main__":
    main()
