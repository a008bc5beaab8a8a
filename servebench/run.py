#!/usr/bin/env python3
"""Builds and runs the serving-path benchmark.

    python3 servebench/run.py --workload cold_miss --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the
repository's libraries plus the driver under .bench_build/servebench;
later calls rebuild incrementally. Build output goes to stderr, so the
last line of stdout is the driver's JSON result. Exits non-zero, without
a result, when the build or the run fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
RUN_TIMEOUT_S = 175


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(configure, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "--target", "servebench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD, "servebench")


def main(argv):
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"servebench: build failed: {e}", file=sys.stderr)
        return 2
    work_dir = os.path.join(BUILD, "work")
    os.makedirs(work_dir, exist_ok=True)
    try:
        proc = subprocess.run([binary, *argv, "--work-dir", work_dir],
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("servebench: run timed out", file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
