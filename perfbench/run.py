#!/usr/bin/env python3
"""Builds and runs the serving benchmark.

    python3 perfbench/run.py --workload xmark_read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Paths resolve from this file, so any working directory works. The first run
compiles the engine sources (../src) and the benchmark into .bench_build/ at
the repository root; later runs only rebuild what changed. Build output goes
to stderr, so the last stdout line is the benchmark's JSON result. The
benchmark's scratch store and span files also live under .bench_build/.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "perfbench"


def build():
    """Configures and builds; returns False when either step fails."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", jobs, "--target",
              "perfbench", "perfbench_gate_test"]]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as error:
            print(f"build failed: {error}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print("build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def run(argv, capture=False):
    """Runs a benchmark binary to completion, stopping it if we are stopped."""
    child = subprocess.Popen(argv, stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = child.communicate()
    finally:
        if child.poll() is None:
            child.send_signal(signal.SIGTERM)
            child.wait()
    return child.returncode, (out.decode() if capture else "")


def bench_argv(args):
    return [str(BUILD / "perfbench"), *args, "--scratch", str(OUT / "run"),
            "--span-dir", str(OUT / "spans")]


def self_test():
    """Gate unit test, then a short real run with a corrupted expected hash
    (must fail with correct=false) and the same run uncorrupted (must pass)."""
    code, _ = run([str(BUILD / "perfbench_gate_test")])
    if code != 0:
        return 1
    short = ["--workload", "xmark_read", "--seed", "1", "--seconds", "1",
             "--trace", "0"]
    code, out = run(bench_argv(short + ["--corrupt-oracle"]), capture=True)
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if code == 0 or result.get("correct") is not False:
        print("self-test FAILED: a corrupted expected hash did not trip the "
              f"gate (exit {code}, result {result})")
        return 1
    code, out = run(bench_argv(short), capture=True)
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if code != 0 or result.get("correct") is not True:
        print(f"self-test FAILED: clean run exit {code}, result {result}")
        return 1
    print("self-test passed: corrupted hash tripped the gate; clean run "
          "verified")
    return 0


def main():
    args = sys.argv[1:]
    if not build():
        return 2
    if args == ["--self-test"]:
        return self_test()
    # A run that was killed leaves its store directory behind; runs in one
    # checkout are sequential, so anything here now is stale.
    shutil.rmtree(OUT / "run", ignore_errors=True)
    code, _ = run(bench_argv(args))
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
