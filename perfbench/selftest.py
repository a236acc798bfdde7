#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks BENCHMARK.json against its naming and format rules, runs
the C++ self-tests of the measurement plumbing (percentile helper,
open-loop clock, metric names), then runs every workload briefly,
untraced, and the traced ledger once. Each run must pass its output
checks and print exactly the metrics BENCHMARK.json declares, with their
units; the metrics are listed by name and unit. Exits non-zero on any
failure.
"""

import json
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own entry point)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL: {what}", file=sys.stderr)


def check_spec():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for n in names:
        expect(NAME.match(n) is not None, f"name {n!r} matches [A-Za-z0-9_.-]+")
    expect(len(names) == len(set(names)), "every name is used once")
    for w in spec["workloads"]:
        expect(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"], f"workload {w['name']}: name and one-line why")
    for m in spec["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"}, f"{m['name']} keys")
        expect(0 < m["bound"] <= 0.25, f"{m['name']} bound in (0, 0.25]")
    for m in spec["end_to_end"] + spec["per_layer"]:
        expect(UNIT.match(m["unit"]) is not None, f"{m['name']} unit {m['unit']!r}")
        expect(m["better"] in ("higher", "lower"), f"{m['name']} better")
    for m in spec["per_layer"]:
        expect(set(m) == {"name", "unit", "better"}, f"{m['name']} keys")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
           "setup_s is declared in s, lower is better")
    expect(setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s has the largest bound")
    return names[:len(spec["workloads"])]


def check_runs(workloads):
    for trace, seconds in ((False, 1), (True, 2)):
        declared, _ = run.declared_metrics(trace)
        for w in workloads if not trace else workloads[:1]:
            code, line = run.run(w, 7, seconds, trace)
            expect(code == 0 and line is not None, f"{w} trace={int(trace)} exits 0")
            if line is None:
                continue
            result = json.loads(line)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{w} trace={int(trace)} is correct")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(printed == declared,
                   f"{w} trace={int(trace)} prints exactly the declared metrics and units")
            for name, m in sorted(result["metrics"].items()):
                print(f"{w:12s} trace={int(trace)} {name:40s} {m['value']:.6g} {m['unit']}")


def main():
    workloads = check_spec()
    selftest = run.build("perfbench_selftest")
    expect(subprocess.run([selftest]).returncode == 0, "C++ self-tests")
    check_runs(workloads)
    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("perfbench: all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
