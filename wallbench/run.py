#!/usr/bin/env python3
"""Builds the wall-clock benchmark driver from source and runs one workload.

Usage (from the repository root):

    python3 wallbench/run.py --workload sweep4 --seed 1 --seconds 15 --trace 0

The driver (wallbench.cpp) is configured with CMake into
$CARGO_TARGET_DIR/wallbench (default .bench_build/wallbench), built
incrementally, then run with the same arguments. All build output goes to
stderr, so the last line of stdout is the driver's JSON result. Exits non-zero
without printing a result when the sources are missing, the build fails or
the driver fails.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("sweep4", "cover2", "serve")
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 720
RUN_TIMEOUT_S = 170


def fail(message):
    print("wallbench: " + message, file=sys.stderr)
    sys.exit(1)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in [1, 60]")
    return args


def run(cmd, timeout, **kwargs):
    """Runs `cmd` in a process group of its own; returns (exit code, stdout).

    On timeout kills the whole group, compilers under the build tool
    included, waits for the command to end and fails.
    """
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    return proc.returncode, out


def build(root):
    """Configures once, then rebuilds incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to wallbench/")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "wallbench")
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append((["cmake", "-S", os.path.join(root, "wallbench"), "-B", build_dir,
                       "-DCMAKE_BUILD_TYPE=Release"], CONFIGURE_TIMEOUT_S))
    steps.append((["cmake", "--build", build_dir, "--target", "wallbench", "-j4"],
                  BUILD_TIMEOUT_S))
    for cmd, timeout in steps:
        code, _ = run(cmd, timeout, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if code != 0:
            fail("failed (exit %d): %s" % (code, " ".join(cmd)))
    return os.path.join(build_dir, "wallbench")


def main():
    args = parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    code, out = run(cmd, RUN_TIMEOUT_S, cwd=root, stdout=subprocess.PIPE, text=True)
    if code != 0:
        fail("driver exited with %d" % code)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
