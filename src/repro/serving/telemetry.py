"""Telemetry: a small, thread-safe metrics registry for the serving stack.

The gateway, broker, answer cache, and load generators all report into one
:class:`MetricsRegistry`.  Three metric kinds cover what an operator needs:

* :class:`Counter` -- monotone totals (requests served, cache hits, shed);
* :class:`Gauge` -- instantaneous values (queue depth, workers busy);
* :class:`Histogram` -- distributions (request latency, batch width,
  per-release ε′ spend) with count/sum/min/max and percentile queries.

Metrics are named with dotted paths (``gateway.latency_s``,
``broker.estimate_s``) and created on first use; :meth:`snapshot`
returns a plain nested dict (JSON-ready) so exports never expose live
mutable state.  The registry also offers terse helpers (``inc``,
``observe``, ``set_gauge``, ``timer``) so instrumented code stays one
line per probe; all of them are safe to call from any thread.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Histograms keep at most this many raw observations for percentile
#: queries; past the cap a simple decimating reservoir keeps memory
#: bounded while count/sum/min/max stay exact.
DEFAULT_HISTOGRAM_CAP = 65_536


class Counter:
    """A monotone counter."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only move forward")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """An instantaneous value (may move in either direction)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """A value distribution with exact moments and sampled percentiles.

    ``count``, ``sum``, ``min`` and ``max`` are exact regardless of
    volume; percentile queries run over the retained observations (all of
    them below ``cap``, a decimated half past it).
    """

    __slots__ = ("_count", "_sum", "_min", "_max", "_values", "_cap", "_lock")

    def __init__(self, cap: int = DEFAULT_HISTOGRAM_CAP) -> None:
        if cap < 2:
            raise ValueError("histogram cap must be at least 2")
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._values: List[float] = []  # guarded-by: _lock
        self._cap = cap
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        self.observe_many((value,))

    def observe_many(self, values: Iterable[float]) -> None:
        """Observe each of ``values`` in order, under one lock acquisition.

        Identical to calling :meth:`observe` once per value: the sum is
        folded in the same order and the reservoir decimates at the same
        points.
        """
        observed = [float(value) for value in values]
        with self._lock:
            total, low, high = self._sum, self._min, self._max
            retained, cap = self._values, self._cap
            for value in observed:
                total += value
                if value < low:
                    low = value
                if value > high:
                    high = value
                if len(retained) >= cap:
                    # Decimate: drop every other retained sample.  Crude
                    # but unbiased enough for operator-facing percentiles,
                    # and it keeps observing amortized O(1).
                    retained = retained[::2]
                retained.append(value)
            self._count += len(observed)
            self._sum, self._min, self._max = total, low, high
            self._values = retained

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100) of retained observations."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            if not self._values:
                return 0.0
            ordered = sorted(self._values)
        rank = q / 100.0 * (len(ordered) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        frac = rank - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def summary(self) -> Dict[str, float]:
        """JSON-ready summary: count, sum, mean, min/max, p50/p90/p99."""
        if self._count == 0:
            return {"count": 0}
        return {
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "min": self._min,
            "max": self._max,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
        }


class MetricsRegistry:
    """Named metrics, created on first use, snapshot-able as plain data."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}  # guarded-by: _lock
        self._gauges: Dict[str, Gauge] = {}  # guarded-by: _lock
        self._histograms: Dict[str, Histogram] = {}  # guarded-by: _lock

    # ------------------------------------------------------------------
    # metric accessors (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter()
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge()
            return metric

    def histogram(self, name: str, cap: int = DEFAULT_HISTOGRAM_CAP) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(cap=cap)
            return metric

    # ------------------------------------------------------------------
    # one-line probes
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def observe_many(self, name: str, values: Iterable[float]) -> None:
        """:meth:`observe` each value; no values creates no histogram."""
        observed = list(values)
        if observed:
            self.histogram(name).observe_many(observed)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time a block into the histogram ``name`` (seconds)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def value(self, name: str) -> float:
        """Current value of the counter or gauge called ``name`` (0 if new)."""
        with self._lock:
            if name in self._counters:
                return self._counters[name].value
            if name in self._gauges:
                return self._gauges[name].value
        return 0.0

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A point-in-time, JSON-ready view of every metric."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {name: m.value for name, m in sorted(counters.items())},
            "gauges": {name: m.value for name, m in sorted(gauges.items())},
            "histograms": {
                name: m.summary() for name, m in sorted(histograms.items())
            },
        }

    def to_json(self, indent: Optional[int] = 1) -> str:
        """The snapshot serialized as JSON."""
        return json.dumps(self.snapshot(), indent=indent)
