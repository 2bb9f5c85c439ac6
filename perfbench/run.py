#!/usr/bin/env python3
"""The repository benchmark: build the benchmark binary, run one workload, print the result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the source tree. Configures and builds perfbench/ (which
pulls in the simulator libraries from the tree) as a Release build under
.bench_build/, then runs the binary with the same arguments. The binary
prints the run conditions, output digests and, as its last stdout line, the
JSON result. The exit status is the binary's: non-zero when an output check
or an operation failed, or when the build failed (then nothing is printed to
stdout). See perfbench/README.md.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "perfbench")
# The binary measures for --seconds and then checks outputs; anything past
# this is a stall, and the benchmark must end well within three minutes.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build():
    source = os.path.dirname(os.path.abspath(__file__))
    steps = [["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", "4"]]
    # Configure once; the build step re-runs it when a CMakeLists.txt changes.
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", source, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            print(f"perfbench: build step failed: {error}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(step)}", file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    try:
        done = subprocess.run([BINARY] + sys.argv[1:], timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
