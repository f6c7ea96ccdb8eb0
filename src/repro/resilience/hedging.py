"""Latency-percentile hedging triggers for straggler sub-queries.

The policy tracks a rolling latency window per shard lane and answers
one question: *how long should the gather wait before re-issuing this
sub-query on the bypass lane?*  Cold lanes (fewer than ``min_samples``
observations) return ``None`` — hedging stays off until there is enough
signal to tell a straggler from normal variance, which also keeps
deterministic drills hedge-free during warm-up.

The hedged work at the call site (``ClusterBroker``) is a shard sample
read: it draws no noise and touches no journal or ledger, so both lanes
may finish and the loser is simply dropped (a gated lane still waiting
out its ingress latency is cancelled).
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Deque, Dict, Optional

__all__ = ["HedgePolicy", "HedgeLostRace"]


class HedgeLostRace(Exception):
    """Internal control flow: a winning hedge cancelled this lane.

    Raised by a gated lane woken out of its ingress wait before it read
    anything — the lane has had **no** side effects.  Deliberately not a
    :class:`~repro.errors.ReproError`: it must never escape the hedging
    call site into consumer-visible error handling.
    """


class HedgePolicy:
    """Per-key rolling latency quantiles driving hedge timeouts."""

    def __init__(
        self,
        window: int = 64,
        quantile: float = 0.95,
        multiplier: float = 2.0,
        min_samples: int = 8,
        floor: float = 0.001,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if not 0.0 < quantile < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {quantile}")
        if multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {multiplier}")
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        if floor <= 0.0:
            raise ValueError(f"floor must be > 0, got {floor}")
        self.window = window
        self.quantile = quantile
        self.multiplier = multiplier
        self.min_samples = min_samples
        self.floor = floor
        self._lock = threading.Lock()
        self._latencies: Dict[str, Deque[float]] = {}
        self.hedges_fired = 0
        self.hedges_won = 0

    def observe(self, key: str, latency: float) -> None:
        """Record one completed sub-query latency for ``key``."""
        if not math.isfinite(latency) or latency < 0.0:
            return
        with self._lock:
            lane = self._latencies.get(key)
            if lane is None:
                lane = deque(maxlen=self.window)
                self._latencies[key] = lane
            lane.append(latency)

    def hedge_after(self, key: str) -> Optional[float]:
        """Seconds to wait before hedging ``key``; ``None`` while cold."""
        with self._lock:
            lane = self._latencies.get(key)
            if lane is None or len(lane) < self.min_samples:
                return None
            ordered = sorted(lane)
        # nearest-rank quantile over the rolling window
        rank = min(len(ordered) - 1, int(math.ceil(self.quantile * len(ordered))) - 1)
        return max(self.floor, ordered[max(rank, 0)] * self.multiplier)

    def record_hedge(self, won: bool) -> None:
        """Count a fired hedge and whether the hedge lane won the race."""
        with self._lock:
            self.hedges_fired += 1
            if won:
                self.hedges_won += 1
