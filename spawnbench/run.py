#!/usr/bin/env python3
"""Builds and runs the SpawnService end-to-end benchmark.

Usage, from the repository root:

    python3 spawnbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds spawnbench.cc, together with the forklift
libraries it links (compiled from src/), into .bench_build/ at the repository
root; later calls only re-check the build. Build output goes to stderr. The
program's stdout is passed through unchanged: its last line is the JSON result,
and the exit status is the program's (non-zero when verification failed).
Further flags (e.g. --expect-wrong-exit) are handed to the program as given.
"""
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "spawnbench")
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM = os.path.join(BUILD, "spawnbench")
# A run measures at most 60 s plus set-up and teardown; a program that has not
# finished by then is hung.
TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"spawnbench: build failed: {e}", file=sys.stderr)
        return 2
    # The program leads its own process group, so a hung run can be stopped
    # together with the zygotes it forked.
    proc = subprocess.Popen([PROGRAM] + sys.argv[1:], cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("spawnbench: timed out", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 3


if __name__ == "__main__":
    sys.exit(main())
