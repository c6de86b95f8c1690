#!/usr/bin/env python3
"""Steadiness check: run every workload repeatedly and report the spread.

    python3 simbench/steady.py [--runs 10] [--trace] [--json FILE]

Each repetition runs every workload once through ``run.py`` (a fresh
interpreter per run, for BENCHMARK.json's ``run_seconds``), alternating the
workload order between repetitions; repetition ``i`` uses seed ``i``
(1-based). For each end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the quartile spread and the full
range as shares of the median, and the share of failed operations; then the
same statistics for every model output of every cell on the report line.
With ``--trace`` it then makes one traced run per workload and prints its
per-layer metrics, the tracing overhead over the untraced median
``sim_cpu_s``, and how the layer self times reconcile with the traced CPU
time. The bounds in BENCHMARK.json are set from this output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("testbed-lpl", "city-forest", "chaos-grid")


def run_seconds() -> int:
    """The run length BENCHMARK.json fixes, so spreads are measured at it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)["run_seconds"]


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> Dict[str, Any]:
    """One run through the launcher; returns its result line, with the
    preceding report line (model outputs, machine, checks) as ``report``."""
    command = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["report"] = json.loads(lines[-2])
    return result


def spread(values: List[float]) -> Dict[str, float]:
    """Median, quartiles, and quartile/full spread as shares of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {
        "median": middle,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / middle if middle else float("inf"),
        "range_share": (max(values) - min(values)) / middle if middle else float("inf"),
    }


def model_spreads(models: List[Dict[str, Dict[str, Any]]]) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Mean, median and spreads over runs of every numeric model output, per cell."""
    stats: Dict[str, Dict[str, Dict[str, float]]] = {}
    for cell in models[0]:
        fields = [k for k, v in models[0][cell].items() if isinstance(v, (int, float))]
        stats[cell] = {}
        for field in fields:
            values = [m[cell][field] for m in models if m[cell][field] is not None]
            stats[cell][field] = dict(spread(values), mean=statistics.mean(values))
    return stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--json", help="also write the summary to this file")
    args = parser.parse_args()
    seconds = run_seconds()
    results: Dict[str, List[Dict[str, Any]]] = {w: [] for w in WORKLOADS}
    for rep in range(args.runs):
        order = WORKLOADS if rep % 2 == 0 else tuple(reversed(WORKLOADS))
        for workload in order:
            result = run_once(workload, rep + 1, seconds, False)
            results[workload].append(result)
            print(f"run {rep + 1}/{args.runs} {workload}: failed {result['failed']}/{result['attempted']}"
                  f" correct={result['correct']}", file=sys.stderr)

    summary: Dict[str, Any] = {}
    for workload in WORKLOADS:
        runs = results[workload]
        names = list(runs[0]["metrics"])
        table = {}
        print(f"\n{workload} ({len(runs)} runs, seeds 1..{len(runs)})")
        print(f"  {'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}{'iqr/med':>9}{'range/med':>10}")
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            stats = spread(values)
            table[name] = dict(stats, values=values)
            print(
                f"  {name:<16}{stats['median']:>14.4f}{stats['q1']:>14.4f}{stats['q3']:>14.4f}"
                f"{stats['iqr_share']:>9.3f}{stats['range_share']:>10.3f}"
            )
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        print(f"  failed share per run: {shares}; correct in every run: {correct}")
        model = model_spreads([r["report"]["model"] for r in runs])
        for cell, fields in model.items():
            for field, stats in fields.items():
                print(
                    f"  model {cell} {field}: mean {stats['mean']:.4g}, median {stats['median']:.4g},"
                    f" iqr/med {stats['iqr_share']:.3f}, range/med {stats['range_share']:.3f}"
                )
        summary[workload] = {
            "metrics": table,
            "failed_shares": shares,
            "correct": correct,
            "model": model,
            "machine": runs[0]["report"]["machine"],
        }

    if args.trace:
        for workload in WORKLOADS:
            traced = run_once(workload, 1, seconds, True)["metrics"]
            untraced = summary[workload]["metrics"]["sim_cpu_s"]["median"]
            overhead = traced["trace.sim_cpu_s"]["value"] / untraced - 1.0
            summary[workload]["trace"] = {"metrics": traced, "overhead": overhead}
            print(f"\n{workload} traced: overhead {overhead:+.1%} over the untraced median sim_cpu_s,"
                  f" layer self times sum to {traced['trace.coverage']['value']:.3f} of the traced CPU time")
            for name, metric in traced.items():
                print(f"  {name:<28}{metric['value']:>16.4f} {metric['unit']}")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
