#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload paper_mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles the library from src/) into $CARGO_TARGET_DIR,
default .bench_build; later runs rebuild incrementally. The benchmark binary
prints notes, a full record line (machine fingerprint, all metrics), and as
its last line the result object {"correct", "attempted", "failed",
"metrics"}. Records are also kept under .bench_run/records/ for compare.py.

    python3 perfbench/run.py --test

builds and runs the harness unit tests and the compare.py tests instead.
"""
import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = ".bench_run"
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", target])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-20000:])
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(step))
            return None
    return os.path.join(out, target)


def run_tests():
    binary = build("perfbench_tests")
    if binary is None:
        return 2
    status = subprocess.run([binary], cwd=ROOT).returncode
    unit = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s",
         os.path.join(HERE, "tests"), "-p", "test_*.py"], cwd=ROOT).returncode
    return 0 if status == 0 and unit == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--slo-ms", type=float, default=5000.0,
                        help="service_mix latency limit for slo_miss_share")
    parser.add_argument("--max-late-ms", type=float, default=100.0,
                        help="reject an open-loop run later than this at p99")
    parser.add_argument("--test", action="store_true",
                        help="run the benchmark's own tests")
    args = parser.parse_args()
    if args.test:
        return run_tests()
    if not args.workload:
        parser.error("--workload is required")

    binary = build("perfbench")
    if binary is None:
        return 2
    records = os.path.join(ROOT, RUN_DIR, "records")
    os.makedirs(records, exist_ok=True)
    record = os.path.join(records, "%s-seed%d-trace%d-%d.json" % (
        args.workload, args.seed, args.trace, time.time_ns()))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--slo-ms", repr(args.slo_ms),
               "--max-late-ms", repr(args.max_late_ms),
               "--run-dir", RUN_DIR, "--record", record]
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: benchmark exceeded %d s\n" % RUN_TIMEOUT_S)
        return 4
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
