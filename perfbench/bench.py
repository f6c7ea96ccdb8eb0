"""Rounds, medians and the result line.

A run repeats *rounds* until ``--seconds`` have passed (at least
``MIN_ROUNDS``).  Each round builds a fresh stack from the seed (timed as
``setup_s``), drives its fixed request plan, and gates its books.  Every
reported value is the median over rounds, so one slow round -- a noisy
neighbour, a collection pause -- does not move the result.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from perfbench.loop import LoopResult, drive
from perfbench.stacks import WORKLOADS, Request, Stack, charged_epsilon, gate
from perfbench.tracing import LAYER_UNITS, Tracer, untraced_layers

#: Rounds per run at the least, whatever ``--seconds`` says.
MIN_ROUNDS = 3

#: Where rounds keep their journals: inside the checkout, removed after use.
WORK_DIR = Path(__file__).resolve().parent / ".work"

END_TO_END_UNITS = {
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "epsilon_per_answer": "epsilon",
    "journal_bytes_per_answer": "B",
    "setup_s": "s",
    "rss_mb": "MB",
}


@dataclass
class Round:
    """One round's end-to-end numbers, layer numbers and gate verdict."""

    metrics: Dict[str, float]
    layers: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str]
    epsilon_charged: float = 0.0
    traced: bool = False
    samples: int = 0


def end_to_end(stack: Stack, loop: LoopResult, setup_s: float) -> Dict[str, float]:
    delivered = loop.attempted - loop.failed
    latencies = np.asarray(loop.latencies_ms)
    journal_bytes = os.path.getsize(stack.journal.path)
    return {
        "throughput_qps": delivered / (loop.finished - loop.started),
        "latency_p50_ms": float(np.percentile(latencies, 50)),
        "latency_p99_ms": float(np.percentile(latencies, 99)),
        "epsilon_per_answer": charged_epsilon(stack) / delivered,
        "journal_bytes_per_answer": journal_bytes / delivered,
        "setup_s": setup_s,
    }


def run_round(
    workload,
    seed: int,
    phases: List[List[Request]],
    tracer: Optional[Tracer] = None,
    tamper: Optional[Callable[[Stack], None]] = None,
) -> Round:
    """Build, drive and gate one stack; ``tamper`` lets tests plant a defect."""
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        gc.collect()
        started = time.perf_counter()
        stack = workload.build(seed, workdir, phases)
        setup_s = time.perf_counter() - started
        try:
            if tamper is not None:
                tamper(stack)
            # Set-up garbage is not the timed phase's to collect.
            gc.collect()
            if tracer is not None:
                tracer.install()
            try:
                loop = drive(
                    stack.gateway,
                    stack.phases,
                    workload.clients,
                    stack.on_completion,
                    stack.on_phase_end,
                )
            finally:
                if tracer is not None:
                    tracer.uninstall()
            stack.gateway.stop()
            problems = gate(stack, loop.answers)
            layers = untraced_layers(stack, loop)
            if tracer is not None:
                layers.update(tracer.layer_metrics(stack, loop))
            metrics = end_to_end(stack, loop, setup_s)
        finally:
            stack.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return Round(
        metrics=metrics,
        layers=layers,
        attempted=loop.attempted,
        failed=loop.failed if not problems else loop.attempted,
        problems=problems,
        epsilon_charged=charged_epsilon(stack),
        traced=tracer is not None,
        samples=len(loop.latencies_ms),
    )


def _median(rounds: List[Round], key: str, layer: bool = False) -> float:
    return statistics.median(
        (r.layers if layer else r.metrics)[key] for r in rounds
    )


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]()
    phases = workload.plan(seed)
    rounds: List[Round] = []
    started = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - started < seconds:
        # The traced run alternates traced and untraced rounds, so the
        # tracing overhead is measured under the same conditions.
        tracer = Tracer() if trace and len(rounds) % 2 == 1 else None
        result = run_round(workload, seed, phases, tracer=tracer)
        rounds.append(result)
        print(
            f"{name} seed={seed} round={len(rounds)} traced={result.traced} "
            f"samples={result.samples} "
            + " ".join(f"{k}={v:.6g}" for k, v in result.metrics.items())
            + (f" PROBLEMS={result.problems}" if result.problems else ""),
            file=sys.stderr,
        )

    problems = [p for r in rounds for p in r.problems]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    epsilons = {r.epsilon_charged for r in rounds}
    if len(epsilons) != 1:
        problems.append(f"epsilon charged differs across rounds: {sorted(epsilons)}")
        failed = attempted

    if trace:
        plain = [r for r in rounds if not r.traced]
        traced = [r for r in rounds if r.traced]
        values = {key: _median(traced, key, layer=True) for key in traced[0].layers}
        values["trace.overhead_pct"] = 100.0 * (
            1.0
            - _median(traced, "throughput_qps") / _median(plain, "throughput_qps")
        )
        units = LAYER_UNITS
    else:
        values = {key: _median(rounds, key) for key in rounds[0].metrics}
        values["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
    for problem in problems:
        print(f"{name}: CORRECTNESS VIOLATION: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }))
    return 0 if not problems else 1
