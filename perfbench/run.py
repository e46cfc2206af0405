#!/usr/bin/env python3
"""Repository benchmark runner (workloads and metrics: BENCHMARK.json).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Builds the bkr library, the bkr_serve solve server and the benchmark
harness from this checkout's sources (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, and prints the harness's JSON result as the last stdout line.
A traced run (--trace 1) also writes its spans and solver phases to
<build dir>/traces/<workload>-seed<N>.json. Exits non-zero without a
result when the build or the run fails.
"""
import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys
import time

RUN_BUDGET_S = 175      # a measured run must end within this
BUILD_BUDGET_S = 880    # the first run in a checkout builds first
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir, deadline):
    """Configures and builds the harness; returns True on success. Build
    output goes to stderr so stdout ends with the result line."""
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs]]
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                    timeout=max(1.0, deadline - time.monotonic())).returncode
            except subprocess.TimeoutExpired:
                log("build timed out")
                return False
            if rc != 0:
                log(f"build step failed: {' '.join(cmd)}")
                return False
    return True


def run_harness(cmd, timeout):
    """Runs the harness in its own process group, so a timeout also stops
    the server it spawned; waits until every process has ended."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"run exceeded {timeout:.0f} s")
        return None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers of the group, if any
        except OSError:  # the group has already ended
            pass
    if proc.returncode != 0:
        log(f"harness exited with code {proc.returncode}")
        return None
    return out


def main():
    start = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        p.add_argument(flag, required=True)  # the harness validates the values
    p.add_argument("--smoke", action="store_true", help="tiny sizes (the benchmark's own tests)")
    args = p.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, build_root, "perfbench")
    harness = os.path.join(build_dir, "perfbench")
    first_build = not os.path.exists(harness)
    deadline = start + (BUILD_BUDGET_S if first_build else RUN_BUDGET_S)
    if not build(root, build_dir, deadline):
        return 1

    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", args.seconds, "--trace", args.trace,
           "--serve-bin", os.path.join(build_dir, "bkr_serve")]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace == "1":
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    out = run_harness(cmd, max(1.0, deadline - time.monotonic()))
    if out is None:
        return 1
    lines = [line for line in out.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("harness printed no JSON result")
        return 1
    if set(result) != RESULT_KEYS:
        log(f"result has keys {sorted(result)}, expected {sorted(RESULT_KEYS)}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
