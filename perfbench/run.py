#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload kv_mixed_durable --seed 1 --seconds 30 --trace 0

Builds the benchmark program (perfbench/CMakeLists.txt, which compiles the
libraries under src/) in Release mode into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs the checkers' self-test, then runs one
workload. The workload's report goes to standard output, ending with one JSON
line: {"correct", "attempted", "failed", "metrics"}. Build output goes to
standard error. Exits non-zero without a result when the build, the
self-test or the workload fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("kv_mixed_durable", "failover_kill", "sim_paper_scale")
RUN_TIMEOUT_S = 170


def build(source_dir, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", source_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.getcwd()
    source_dir = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    data_dir = os.path.join(root, ".bench_data")
    try:
        binary = build(source_dir, build_dir)
        subprocess.run([binary, "--selftest"], check=True, stdout=sys.stderr, timeout=60)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build or self-test failed: {e}", file=sys.stderr)
        return 1

    os.makedirs(data_dir, exist_ok=True)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--data", data_dir],
            timeout=RUN_TIMEOUT_S)
        return proc.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: workload timed out", file=sys.stderr)
        return 1
    finally:
        # The program removes its own run directory; this catches a crash.
        shutil.rmtree(data_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
