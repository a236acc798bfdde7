#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table1-cold --seed 1 --seconds 10 --trace 0

--trace 0 runs the named workload with observability off and prints the
end-to-end metrics; --trace 1 runs the traced ledger of all three paths
(OCPS_OBS=1) and prints the per-layer metrics. The last line of stdout is
the result object; every other message goes to stderr. The program is
built with CMake under $CARGO_TARGET_DIR (default .bench_build) on first
use. The exit code is non-zero when the build fails, an output check
fails, or the printed metrics differ from those BENCHMARK.json declares.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, "perfbench")


def build(target="perfbench"):
    """Configures once, then builds incrementally; returns the binary path."""
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", target],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, target)


def declared_metrics(trace):
    """{name: unit} that BENCHMARK.json declares for this kind of run."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}, \
        [w["name"] for w in spec["workloads"]]


def check_metrics(result, declared):
    """Problems with the printed metrics, as a list of messages."""
    printed = {k: v.get("unit") for k, v in result["metrics"].items()}
    problems = [f"declared metric {n} not printed" for n in declared
                if n not in printed]
    problems += [f"undeclared metric {n} printed" for n in printed
                 if n not in declared]
    problems += [f"metric {n} printed in {printed[n]}, declared in {u}"
                 for n, u in declared.items()
                 if n in printed and printed[n] != u]
    return problems


def run(workload, seed, seconds, trace):
    """Runs the benchmark binary; returns (exit code, result line or None)."""
    declared, workloads = declared_metrics(trace)
    if workload not in workloads:
        log(f"unknown workload {workload}; BENCHMARK.json has {workloads}")
        return 2, None
    binary = build()
    work_dir = os.path.relpath(os.path.join(build_dir(), "run"))
    os.makedirs(work_dir, exist_ok=True)
    env = dict(os.environ, OCPS_OBS="1" if trace else "0")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work_dir,
           "--bench-dir", os.path.relpath(BENCH_DIR)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3, None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"benchmark printed no result (exit {proc.returncode})")
        return proc.returncode or 3, None
    result = json.loads(lines[-1])
    problems = check_metrics(result, declared)
    for p in problems:
        log(p)
    if problems:
        return 4, None
    return proc.returncode, lines[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    try:
        code, line = run(args.workload, args.seed, args.seconds, args.trace == 1)
    except (OSError, subprocess.CalledProcessError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 2
    if line is not None:
        print(line, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
