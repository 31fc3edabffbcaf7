#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload armed-sim|interactive|replay \
        --seed N --seconds S --trace 0|1

Run from the root of the checkout. The first call configures and builds
libhgdb and the benchmark (Release) under .bench_build/perfbench; later
calls rebuild only what changed. Build output goes to standard error, so
the last line of standard output is the benchmark's JSON result. Any
further arguments (--perturb KIND) are passed through to the benchmark.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return None
    step = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work_dir = os.path.join(BUILD_ROOT, "perfbench-work.%d" % os.getpid())
    command = [binary] + sys.argv[1:] + [
        "--work-dir", work_dir,
        "--trace-dir", os.path.join(BUILD_ROOT, "perfbench-traces")]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
