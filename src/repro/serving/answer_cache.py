"""Privacy-aware answer cache: replay sold answers at zero extra ε.

Re-releasing an already-released noisy answer is post-processing, so it is
free in privacy (the Sigma-Counting observation: reuse of published noisy
counts is the cheapest way to serve repeated queries).  The cache therefore
keys strictly on what makes a release reusable:

``(dataset, low, high, α, δ, store_version, routing)``

``store_version`` is the base station's monotone commit counter -- any
``collect``/``top_up`` round that changes the stored sample bumps it, so
entries derived from the previous sample can never be replayed against the
new one.  ``routing`` is the cluster route signature (empty for brokers
without range-aware routing): answers derived from different shard routes
-- e.g. before and after a rate change flips the planner's candidate --
never alias, so pruned and exact-cover releases replay correctly.  Stale entries are also purged eagerly when the cache is bound to
a station via :meth:`AnswerCache.bind_station`.

The cache stores the broker's :class:`~repro.core.query.PrivateAnswer`
objects verbatim; *billing* a replay (list price, ε′ = 0 ledger entry) is
the broker's job (:meth:`~repro.core.broker.DataBroker.replay`), keeping
the cache a pure lookup structure.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.query import AccuracySpec, PrivateAnswer, RangeQuery
    from repro.iot.base_station import BaseStation
    from repro.serving.telemetry import MetricsRegistry

__all__ = ["AnswerCache", "CacheStats"]

CacheKey = Tuple[str, float, float, float, float, int, str]


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time cache counters."""

    hits: int
    misses: int
    evictions: int
    invalidations: int
    size: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class AnswerCache:
    """Bounded LRU of released answers, keyed on query, tier, and store
    version.

    Parameters
    ----------
    capacity:
        Maximum retained entries; the least recently used entry is evicted
        past it.
    telemetry:
        Optional :class:`~repro.serving.telemetry.MetricsRegistry`; when
        given, hits/misses/evictions/invalidations are mirrored under
        ``cache.*``.
    """

    def __init__(
        self,
        capacity: int = 4096,
        telemetry: "Optional[MetricsRegistry]" = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.telemetry = telemetry
        self._entries: "OrderedDict[CacheKey, PrivateAnswer]" = OrderedDict()  # guarded-by: _lock
        self._lock = threading.Lock()
        self._hits = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock
        self._evictions = 0  # guarded-by: _lock
        self._invalidations = 0  # guarded-by: _lock

    # ------------------------------------------------------------------
    # keying
    # ------------------------------------------------------------------
    @staticmethod
    def key_for(
        query: "RangeQuery",
        spec: "AccuracySpec",
        store_version: int,
        routing: str = "",
    ) -> CacheKey:
        """The reuse key of one ``(query, tier)`` pair at one store state.

        ``routing`` is the broker's route signature for this query
        (``ClusterBroker.routing_signature``); brokers without
        range-aware routing leave it empty.  ``store_version`` stays at
        index 5 -- :meth:`invalidate_before` depends on it.
        """
        return AnswerCache.keys_for([query], [spec], store_version, [routing])[0]

    @staticmethod
    def keys_for(
        queries: "Sequence[RangeQuery]",
        specs: "Sequence[AccuracySpec]",
        store_version: int,
        routing: Optional[Sequence[str]] = None,
    ) -> List[CacheKey]:
        """:meth:`key_for` of each ``(query, spec)`` pair, built column-wise.

        ``routing`` gives one route signature per pair, or ``None`` for a
        broker without range-aware routing.
        """
        signatures: Iterable[str] = repeat("") if routing is None else routing
        return [
            (
                query.dataset, query.low, query.high,
                spec.alpha, spec.delta, store_version, signature,
            )
            for query, spec, signature in zip(queries, specs, signatures)
        ]

    # ------------------------------------------------------------------
    # lookup / insert
    # ------------------------------------------------------------------
    def get(self, key: CacheKey) -> "Optional[PrivateAnswer]":
        return self.get_many((key,))[0]

    def get_many(
        self, keys: "Sequence[CacheKey]"
    ) -> "List[Optional[PrivateAnswer]]":
        """Look up each key in order under one lock: the cached answer or
        ``None``.  Same hits, misses and recency as one :meth:`get` per
        key, counted into telemetry once per call."""
        with self._lock:
            entries = self._entries
            found = [entries.get(key) for key in keys]
            hits = 0
            for key, answer in zip(keys, found):
                if answer is not None:
                    entries.move_to_end(key)
                    hits += 1
            self._hits += hits
            self._misses += len(keys) - hits
            if hits:
                self._emit("cache.hits", hits)
            if len(keys) > hits:
                self._emit("cache.misses", len(keys) - hits)
        return found

    def put(self, key: CacheKey, answer: "PrivateAnswer") -> None:
        self.put_many(((key, answer),))

    def put_many(
        self, items: "Iterable[Tuple[CacheKey, PrivateAnswer]]"
    ) -> None:
        """Insert each ``(key, answer)`` in order under one lock, evicting
        past capacity as one :meth:`put` per item would."""
        with self._lock:
            entries = self._entries
            evicted = 0
            for key, answer in items:
                entries[key] = answer
                entries.move_to_end(key)
                while len(entries) > self.capacity:
                    entries.popitem(last=False)
                    evicted += 1
            self._evictions += evicted
            if evicted:
                self._emit("cache.evictions", evicted)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def invalidate_before(self, store_version: int) -> int:
        """Drop every entry from a store version older than the given one.

        Returns the number of entries removed.  Keys already embed the
        version, so stale entries could never *hit* -- purging them just
        reclaims capacity immediately after a collection round.
        """
        with self._lock:
            stale = [
                key for key in self._entries if key[5] < store_version
            ]
            for key in stale:
                del self._entries[key]
            self._invalidations += len(stale)
            if stale:
                self._emit("cache.invalidations", len(stale))
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._invalidations += len(self._entries)
            self._entries.clear()

    def bind_station(self, station: "BaseStation") -> None:
        """Purge stale entries automatically on every store commit."""
        station.subscribe_commits(self.invalidate_before)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
                size=len(self._entries),
            )

    def _emit(self, name: str, amount: float = 1.0) -> None:
        if self.telemetry is not None:
            self.telemetry.inc(name, amount)
