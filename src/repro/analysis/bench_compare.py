"""Diff two ``BENCH_*.json`` artifacts with metric-aware tolerances.

The bench JSONs mix two very different kinds of numbers:

* **deterministic** metrics -- ε spent, drift, revenue, cache hits,
  routing stats, determinism checksums.  For a fixed seed and config
  these are pure functions of the code, so any change is a behavioural
  change and the gate is tight (relative tolerance ``rel_tol``, plus a
  tiny absolute floor for the ≈0 drift metrics).
* **timing** metrics -- qps, latency percentiles, wall-clock durations.
  These depend on the machine and the scheduler; CI boxes jitter by
  2x run to run.  They are compared only when a ``timing_tol`` factor
  is given, and ignored (reported, never failed) otherwise.

Anything that is neither (unrecognised numeric leaves) is treated as
deterministic: new metrics should fail loudly until classified, not
silently drift.

Used by the ``repro bench-compare`` CLI and the CI bench-smoke job,
which regenerates the smoke artifact on every push and compares it
against the checked-in baseline under ``benchmarks/baselines/``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "MetricDiff",
    "BenchComparison",
    "classify_metric",
    "compare_bench",
    "format_comparison",
]

#: Key fragments that mark a machine/scheduler-dependent measurement.
#: ``speedup`` (a ratio of two timings) varies by box exactly like raw
#: timings do.
_TIMING_PATTERN = re.compile(
    r"(qps|throughput|duration|latency|_ms$|_s$|wall|elapsed|speedup)",
    re.IGNORECASE,
)

#: Absolute slack for deterministic metrics whose target is ≈ 0 (the
#: drift audits land at ±1e-20 from float summation order).
_ZERO_ATOL = 1e-9


def classify_metric(path: str) -> str:
    """``"timing"`` or ``"deterministic"`` for a dotted metric path."""
    leaf = path.rsplit(".", 1)[-1]
    if _TIMING_PATTERN.search(leaf):
        return "timing"
    return "deterministic"


@dataclass(frozen=True)
class MetricDiff:
    """One leaf-level comparison between baseline and candidate."""

    path: str
    kind: str  # "deterministic" | "timing" | "missing" | "added"
    baseline: Optional[float]
    candidate: Optional[float]
    ok: bool

    @property
    def rel_change(self) -> Optional[float]:
        if self.baseline is None or self.candidate is None:
            return None
        scale = max(abs(self.baseline), _ZERO_ATOL)
        return (self.candidate - self.baseline) / scale


@dataclass(frozen=True)
class BenchComparison:
    """The full diff between two bench payloads."""

    benchmark: str
    diffs: Tuple[MetricDiff, ...]

    @property
    def failures(self) -> Tuple[MetricDiff, ...]:
        return tuple(d for d in self.diffs if not d.ok)

    @property
    def ok(self) -> bool:
        return not self.failures


def _numeric_leaves(node: object, prefix: str = "") -> Iterator[Tuple[str, float]]:
    """Yield ``(dotted_path, value)`` for every numeric leaf, sorted."""
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        yield prefix, float(node)
        return
    if isinstance(node, dict):
        for key in sorted(node):
            path = f"{prefix}.{key}" if prefix else str(key)
            yield from _numeric_leaves(node[key], path)
    elif isinstance(node, (list, tuple)):
        for i, item in enumerate(node):
            yield from _numeric_leaves(item, f"{prefix}[{i}]")


def _within(baseline: float, candidate: float, rel_tol: float) -> bool:
    return abs(candidate - baseline) <= max(
        rel_tol * max(abs(baseline), abs(candidate)), _ZERO_ATOL
    )


def compare_bench(
    baseline: Dict[str, object],
    candidate: Dict[str, object],
    *,
    rel_tol: float = 1e-6,
    timing_tol: Optional[float] = None,
    ignore: Sequence[str] = (),
) -> BenchComparison:
    """Compare two bench payloads (the envelopes from ``read_bench_json``).

    Parameters
    ----------
    baseline, candidate:
        Full envelopes (``format``/``version``/``benchmark``/``results``)
        or bare results dicts; envelopes must describe the same benchmark.
    rel_tol:
        Relative tolerance for deterministic metrics.  The default is
        tight on purpose; cross-platform libm differences may need
        ``1e-4`` when baseline and candidate come from different hosts.
    timing_tol:
        Multiplicative noise band for timing metrics -- a timing metric
        fails when it changes by more than this *factor* in either
        direction (e.g. ``2.0`` allows halving/doubling).  ``None``
        (default) reports timing rows but never fails them.
    ignore:
        Dotted-path prefixes to skip entirely (e.g. ``("failover",)``:
        the fault-injection phase's counters depend on where the kill
        lands in the schedule, so they are not run-reproducible).
    """
    base_name = str(baseline.get("benchmark", ""))
    cand_name = str(candidate.get("benchmark", ""))
    if base_name and cand_name and base_name != cand_name:
        raise ValueError(
            f"cannot compare different benchmarks: "
            f"{base_name!r} vs {cand_name!r}"
        )
    base_results = baseline.get("results", baseline)
    cand_results = candidate.get("results", candidate)
    base_leaves = dict(_numeric_leaves(base_results))
    cand_leaves = dict(_numeric_leaves(cand_results))

    diffs: List[MetricDiff] = []
    for path in sorted(base_leaves.keys() | cand_leaves.keys()):
        if any(
            path == prefix or path.startswith(prefix + ".")
            for prefix in ignore
        ):
            continue
        base_value = base_leaves.get(path)
        cand_value = cand_leaves.get(path)
        if cand_value is None:
            # A metric the baseline had but the candidate dropped: a
            # schema regression, always a failure.
            diffs.append(MetricDiff(path, "missing", base_value, None, False))
            continue
        if base_value is None:
            # New metrics are fine -- the next baseline refresh adopts
            # them -- but surface them so the adoption is deliberate.
            diffs.append(MetricDiff(path, "added", None, cand_value, True))
            continue
        kind = classify_metric(path)
        if kind == "timing":
            if timing_tol is None:
                ok = True
            else:
                lo = min(base_value, cand_value)
                hi = max(base_value, cand_value)
                ok = hi <= lo * timing_tol + _ZERO_ATOL
        else:
            ok = _within(base_value, cand_value, rel_tol)
        diffs.append(MetricDiff(path, kind, base_value, cand_value, ok))
    return BenchComparison(
        benchmark=base_name or cand_name, diffs=tuple(diffs)
    )


def format_comparison(
    comparison: BenchComparison, *, verbose: bool = False
) -> str:
    """Human-readable report: failures always, full table on demand."""
    lines: List[str] = []
    counts: Dict[str, int] = {}
    for diff in comparison.diffs:
        counts[diff.kind] = counts.get(diff.kind, 0) + 1
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    name = comparison.benchmark or "<unnamed>"
    lines.append(f"bench-compare [{name}]: {len(comparison.diffs)} metrics ({summary})")
    rows = comparison.diffs if verbose else comparison.failures
    for diff in rows:
        status = "ok" if diff.ok else "FAIL"
        if diff.kind == "missing":
            detail = f"baseline={diff.baseline:.6g} missing from candidate"
        elif diff.kind == "added":
            detail = f"candidate={diff.candidate:.6g} not in baseline"
        else:
            change = diff.rel_change
            detail = (
                f"baseline={diff.baseline:.6g} candidate={diff.candidate:.6g} "
                f"({change:+.2%})"
            )
        lines.append(f"  {status:>4} [{diff.kind}] {diff.path}: {detail}")
    if not comparison.failures:
        lines.append("  all gated metrics within tolerance")
    return "\n".join(lines)
