"""Steadiness report: run workloads over many seeds and summarise each metric.

Usage, from the repository root::

    python3 perfbench/steadiness.py --workloads fresh_trades cluster_routed \\
        --seeds 10 --seconds 40 [--sets 2] [--trace 0]

Each run is one ``perfbench/run.py`` process with its own seed.  For every
metric the report prints the median, the quartiles (``statistics.quantiles``
with ``n=4``), the interquartile spread as a share of the median, and the
max/min ratio.  With ``--sets 2`` the seeds are run twice, on disjoint
seed ranges, and each set gets its own table with how far its median moved
from the first set's.  These spreads are what the bounds in
``BENCHMARK.json`` are set from.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("fresh_trades", "cluster_routed", "stream_dashboard")

#: Longest one run may take before the report gives up on it.
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Dict:
    completed = subprocess.run(
        [
            sys.executable, str(RUN),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        timeout=RUN_TIMEOUT_S,
        check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def summarise(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    low, high = min(values), max(values)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "max_min": high / low if low else float("inf"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    failures = 0
    for workload in args.workloads:
        sets: List[Dict[str, List[float]]] = []
        for number in range(args.sets):
            values: Dict[str, List[float]] = {}
            first = 1 + number * args.seeds
            for seed in range(first, first + args.seeds):
                result = run_once(workload, seed, args.seconds, args.trace)
                if not result["correct"] or result["failed"]:
                    failures += 1
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                print(f"  {workload} seed {seed}: correct={result['correct']}",
                      file=sys.stderr, flush=True)
            sets.append(values)
        for number, values in enumerate(sets, start=1):
            print(f"{workload} set {number}/{args.sets} ({args.seeds} seeds, "
                  f"{args.seconds:g} s per run; moved = median change from set 1)")
            print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
                  f"{'spread':>8s} {'max/min':>8s} {'moved':>8s}")
            for name, series in values.items():
                stats = summarise(series)
                first = statistics.median(sets[0][name])
                moved = (stats["median"] - first) / first if first else 0.0
                print(
                    f"  {name:40s} {stats['median']:12.6g} {stats['q1']:12.6g} "
                    f"{stats['q3']:12.6g} {stats['spread']:8.2%} "
                    f"{stats['max_min']:8.3f} {moved:8.2%}",
                    flush=True,
                )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
