#!/usr/bin/env python3
"""Gate CI on bench_dp_speed regressions against the committed baseline.

Compares a google-benchmark JSON output file (produced by
``bench_dp_speed --benchmark_out=... --benchmark_out_format=json``)
against ``BENCH_dp_speed.json``'s ``microbenchmarks_after_ms`` table and

* **fails** (exit 1) when a gated benchmark — by default the batched-sweep
  ones, the whole point of the PR 3 engine — is more than ``--threshold``
  (default 25%) slower than its committed baseline,
* **fails** when a baseline series is missing from the results entirely,
  or an anchor's series (below) is missing from the results or the
  baseline (a renamed or silently dropped benchmark must not pass the
  gate; a benchmark the runner skipped with an explicit error, e.g. the
  AVX2 kernel on a CPU without AVX2, is exempt and reported), and
* **degrades to warn-only** when the run looks noisy: with
  ``--benchmark_repetitions`` the spread between a benchmark's fastest and
  slowest repetition is computed, and if any gated benchmark's spread
  exceeds ``--noise-threshold`` (default 10%) the runner is deemed too
  noisy to gate absolute times hard — those regressions are printed but
  the exit code stays 0. Missing series and the anchors below still fail:
  noise cannot explain a missing series, and an anchor is a ratio of two
  series from the same run, so a runner that is slow throughout slows
  both sides alike.

Malformed input — truncated or non-JSON results, a baseline without the
expected tables — exits 1 with a one-line diagnosis, never a traceback.

Absolute times move with the runner's CPU, so the gate also checks three
machine-independent anchors measured within the same run:

* the *ratio* of the one-thread 1820-group six-method sweep at C = 256 to
  one unbounded 4-program DP solve at C = 1024 (baseline ≈ 340): the
  sweep shares DP layers between groups with a common member prefix, and
  losing that sharing about doubles the ratio,
* the *ratio* of the AVX2 forward-layer kernel to the scalar reference
  (baseline ≈ 12× faster: values-only layers in 16-state blocks), and
* the *ratio* of a baseline-bounded solve (lower bounds summing to 0.92·C)
  to an unbounded one of the same size: the DP scans only the feasible
  window of each layer, so the bounded solve is ≈ 23× faster; dropping
  the window puts the ratio near 1.

If a measured ratio loses more than ``--threshold`` of the committed
advantage, the engine (or kernel) itself regressed no matter how fast
the runner is.

Usage:
    tools/check_bench_regression.py bench_dp_speed_ci.json \
        [--baseline BENCH_dp_speed.json] [--threshold 0.25] \
        [--noise-threshold 0.10] [--gate-prefix BM_GroupSweep]

Only Python 3 stdlib is used.
"""

from __future__ import annotations

import argparse
import json
import re
import sys


def normalise(run_name: str) -> str:
    """Strips runtime-option suffixes (``/iterations:1``, ``/repeats:3``,
    ``/real_time`` ...) so names match the baseline's plain keys."""
    return re.sub(r"/(iterations|repeats|min_time|min_warmup_time"
                  r"|process_time|real_time|manual_time)(:[^/]*)?", "",
                  run_name)


def load_json(path: str, what: str) -> dict:
    """Loads a JSON object, turning every malformed-input failure mode —
    missing file, truncated write, non-JSON bytes, a non-object top level
    — into a one-line SystemExit instead of a traceback."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except OSError as e:
        raise SystemExit(f"cannot read {what} {path}: {e}")
    except json.JSONDecodeError as e:
        raise SystemExit(
            f"{what} {path} is not valid JSON (truncated write?): "
            f"{e.msg} at line {e.lineno} column {e.colno}")
    if not isinstance(data, dict):
        raise SystemExit(
            f"{what} {path}: expected a JSON object at the top level, "
            f"got {type(data).__name__}")
    return data


def load_measurements(
        path: str) -> tuple[dict[str, float], dict[str, float], set[str]]:
    """Returns (mean ms per benchmark, max relative spread per benchmark,
    names the runner skipped with an explicit error).

    With --benchmark_repetitions google-benchmark emits one entry per
    repetition plus ``_mean``/``_median``/``_stddev`` aggregates; without,
    a single entry per benchmark. Handles both. Times are normalised to
    milliseconds.
    """
    data = load_json(path, "results file")
    if "benchmarks" not in data:
        raise SystemExit(
            f"results file {path} has no 'benchmarks' array — not a "
            f"google-benchmark --benchmark_out JSON?")

    unit_ms = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}
    reps: dict[str, list[float]] = {}
    skipped: set[str] = set()
    for entry in data["benchmarks"]:
        try:
            if entry.get("run_type") == "aggregate":
                continue
            name = normalise(entry.get("run_name", entry["name"]))
            if entry.get("error_occurred"):
                # SkipWithError (e.g. the AVX2 kernel bench on a CPU
                # without AVX2): recorded so the missing-series check can
                # tell "skipped on purpose" from "silently dropped".
                skipped.add(name)
                continue
            scale = unit_ms.get(entry.get("time_unit", "ns"))
            if scale is None:
                raise SystemExit(f"unknown time_unit in {path}: {entry}")
            reps.setdefault(name, []).append(
                float(entry["real_time"]) * scale)
        except (KeyError, TypeError, ValueError) as e:
            raise SystemExit(
                f"results file {path}: malformed benchmark entry "
                f"{entry!r}: {e}")

    means = {name: sum(ts) / len(ts) for name, ts in reps.items()}
    spreads = {}
    for name, ts in reps.items():
        lo, hi = min(ts), max(ts)
        spreads[name] = (hi - lo) / lo if len(ts) > 1 and lo > 0 else 0.0
    return means, spreads, skipped


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results", help="google-benchmark JSON output")
    parser.add_argument("--baseline", default="BENCH_dp_speed.json")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative slowdown that fails the gate")
    parser.add_argument("--noise-threshold", type=float, default=0.10,
                        help="repetition spread above which the gate "
                             "only warns")
    parser.add_argument("--gate-prefix", default="BM_GroupSweep",
                        help="benchmarks whose regressions fail the build; "
                             "others are reported informationally")
    args = parser.parse_args()

    baseline_doc = load_json(args.baseline, "baseline")
    baseline = baseline_doc.get("microbenchmarks_after_ms")
    if not isinstance(baseline, dict) or not baseline:
        raise SystemExit(
            f"baseline {args.baseline} has no 'microbenchmarks_after_ms' "
            f"table — wrong or truncated baseline file?")

    measured, spreads, skipped = load_measurements(args.results)

    noisy = [name for name in measured
             if name.startswith(args.gate_prefix)
             and spreads.get(name, 0.0) > args.noise_threshold]
    if noisy:
        print(f"NOISY RUNNER: repetition spread exceeds "
              f"{args.noise_threshold:.0%} for {', '.join(sorted(noisy))}; "
              f"timing gate degraded to warn-only (anchors still fail)")

    failures: list[str] = []  # timing regressions: warn-only when noisy
    hard: list[str] = []  # missing series and anchors: fail even when noisy
    warnings: list[str] = []
    print(f"{'benchmark':<40} {'baseline ms':>12} {'measured ms':>12} "
          f"{'ratio':>7}")
    for name in sorted(baseline):
        try:
            base_ms = float(baseline[name])
        except (TypeError, ValueError):
            raise SystemExit(
                f"baseline {args.baseline}: non-numeric entry for {name}: "
                f"{baseline[name]!r}")
        if name not in measured:
            if name in skipped:
                warnings.append(
                    f"{name}: skipped by the runner (SkipWithError)")
            else:
                # A series the baseline expects but the run never
                # produced: renamed, dropped, or a filtered run. Passing
                # silently here is how a deleted benchmark sneaks through
                # the gate, so this is a hard failure.
                hard.append(
                    f"{name}: expected series missing from results "
                    f"(renamed, dropped, or filtered run?)")
            continue
        ratio = measured[name] / base_ms
        gated = name.startswith(args.gate_prefix)
        marker = ""
        if ratio > 1.0 + args.threshold:
            msg = (f"{name}: {measured[name]:.3f} ms vs baseline "
                   f"{base_ms:.3f} ms ({ratio:.2f}x)")
            if gated:
                failures.append(msg)
                marker = "  <-- REGRESSION"
            else:
                warnings.append(msg)
                marker = "  (ungated)"
        print(f"{name:<40} {base_ms:>12.3f} {measured[name]:>12.3f} "
              f"{ratio:>6.2f}x{marker}")

    # Machine-independent anchors: each is a ratio of two series measured
    # on the same host in the same run, so absolute runner speed cancels.
    # If the measured ratio loses more than --threshold of the committed
    # advantage, the engine (or kernel) itself regressed.
    anchors = [
        ("sweep/solve ratio",
         "BM_GroupSweepBatched/256", "BM_DpPartition/4/1024",
         "the sweep no longer shares DP layers between groups"),
        ("avx2/scalar kernel ratio",
         "BM_ForwardLayerAvx2/1024", "BM_ForwardLayerScalar/1024",
         "the SIMD kernel advantage itself regressed"),
        ("bounded/unbounded DP ratio",
         "BM_DpBaselineBounds/1024", "BM_DpPartition/4/1024",
         "bounded solves no longer scan only the feasible window"),
    ]
    for label, num, den, blame in anchors:
        if num in skipped or den in skipped:
            print(f"{label:<40} {'(skipped)':>12}")
            continue
        absent = [f"{name} in {where}"
                  for name in (num, den)
                  for where, table in (("results", measured),
                                       ("baseline", baseline))
                  if name not in table]
        if absent:
            print(f"{label:<40} {'(missing)':>12}")
            hard.append(
                f"{label}: anchor series missing ({', '.join(absent)})")
            continue
        base_ratio = float(baseline[num]) / float(baseline[den])
        run_ratio = measured[num] / measured[den]
        print(f"{label:<40} {base_ratio:>12.3f} {run_ratio:>12.3f}")
        if run_ratio > base_ratio * (1.0 + args.threshold):
            hard.append(
                f"{label} {run_ratio:.3f} vs baseline "
                f"{base_ratio:.3f}: {blame}")

    for msg in warnings:
        print(f"WARN: {msg}")
    for msg in failures:
        print(f"{'WARN' if noisy else 'FAIL'}: {msg}")
    for msg in hard:
        print(f"FAIL: {msg}")
    if hard or (failures and not noisy):
        return 1
    if failures:
        print("exit 0: noisy runner, timing regressions reported as "
              "warnings")
        return 0
    print("OK: no gated regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
