"""Mergeable, bounded-memory window summaries for streaming range counting.

The unit of streaming state is the :class:`EpochSummary`: one sealed
epoch's per-node rank samples, all drawn at one shared Bernoulli rate.  A
sealed epoch behaves exactly like a paper *generation* -- one arrival
window sampled once at one rate: ranks are local to the epoch, so a window
query is answered by summing RankCounting estimates over the live epochs,
and with ``k_eff`` non-empty node samples across the window the variance
bound ``8·k_eff/p²`` and Theorem 3.3 carry over unchanged.

Epoch summaries are **mergeable**: two shards' summaries of the same epoch
combine by concatenating their node samples (associative and commutative
-- node ids are globally unique and the merge result is node-id sorted, so
any merge order yields the identical summary).  That is what lets the
coordinator fold per-shard rolls into one global window without any
re-ranking or re-sampling, mirroring the cluster's scatter-gather.

The :class:`WindowSummary` ring keeps the last ``window_epochs`` sealed
epochs and drops older ones on every roll, so per-shard memory is bounded
by ``W · devices · E[samples per epoch]`` regardless of stream length.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InsufficientSamplesError, StreamingError
from repro.estimators.base import NodeSample
from repro.estimators.rank import RankIndex

__all__ = [
    "EpochSummary",
    "WindowSummary",
    "merge_epoch_summaries",
    "pooled_rate",
    "window_checksum",
]


@dataclass(frozen=True)
class EpochSummary:
    """One sealed epoch's immutable sample summary.

    ``samples`` hold only non-empty nodes (a node with no records in the
    epoch contributes nothing to any estimate); ``record_count`` is the
    epoch's true record total ``n_e``; ``rate`` is the shared Bernoulli
    rate every sample was drawn at (0.0 for an empty epoch).
    """

    epoch: int
    samples: Tuple[NodeSample, ...]
    record_count: int
    rate: float

    def __post_init__(self) -> None:
        if self.record_count < 0:
            raise ValueError("record_count must be non-negative")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        for sample in self.samples:
            if sample.node_size > 0 and abs(sample.p - self.rate) > 1e-12:
                raise ValueError(
                    f"node {sample.node_id} sampled at p={sample.p}, epoch "
                    f"sealed at p={self.rate}; epochs share one rate"
                )

    @cached_property
    def rank_index(self) -> RankIndex:
        """The epoch's samples as one :class:`RankIndex`, built on first use.

        A sealed epoch never changes, so the index lives as long as the
        summary does.
        """
        return RankIndex(self.samples)

    @property
    def node_count(self) -> int:
        """Non-empty node samples in this epoch."""
        return len(self.samples)

    @property
    def is_empty(self) -> bool:
        return self.record_count == 0

    def to_payload(self) -> Dict[str, object]:
        """Canonical JSON-ready form (window-log roll entries, checksums)."""
        return {
            "epoch": self.epoch,
            "record_count": self.record_count,
            "rate": self.rate,
            "nodes": [
                [
                    int(s.node_id),
                    int(s.node_size),
                    [float(v) for v in s.values],
                    [int(r) for r in s.ranks],
                ]
                for s in self.samples
            ],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "EpochSummary":
        """Inverse of :meth:`to_payload` -- bit-exact.  Sample columns may
        be lists or arrays (a window-log ``roll`` entry's ``data``)."""
        rate = float(payload["rate"])  # type: ignore[arg-type]
        samples = tuple(
            NodeSample(
                node_id=int(node_id),
                values=np.asarray(values, dtype=np.float64),
                ranks=np.asarray(ranks, dtype=np.int64),
                node_size=int(node_size),
                p=rate,
            )
            for node_id, node_size, values, ranks in payload["nodes"]  # type: ignore[union-attr]
        )
        return cls(
            epoch=int(payload["epoch"]),  # type: ignore[arg-type]
            samples=samples,
            record_count=int(payload["record_count"]),  # type: ignore[arg-type]
            rate=rate,
        )


def merge_epoch_summaries(
    a: EpochSummary, b: EpochSummary
) -> EpochSummary:
    """Merge two shards' summaries of the *same* epoch.

    Associative and commutative: samples concatenate and are re-sorted by
    (globally unique) node id, record counts add, and the shared rate must
    agree (an empty side imposes no rate).  Merging summaries of different
    epochs is a programming error.
    """
    if a.epoch != b.epoch:
        raise StreamingError(
            f"cannot merge epoch {a.epoch} with epoch {b.epoch}"
        )
    if a.is_empty and not a.samples:
        rate = b.rate
    elif b.is_empty and not b.samples:
        rate = a.rate
    else:
        if abs(a.rate - b.rate) > 1e-12:
            raise StreamingError(
                f"epoch {a.epoch}: shard rates differ "
                f"({a.rate} vs {b.rate}); seal with one coordinator rate"
            )
        rate = a.rate
    samples = tuple(
        sorted(a.samples + b.samples, key=lambda s: s.node_id)
    )
    seen: set = set()
    for sample in samples:
        if sample.node_id in seen:
            raise StreamingError(
                f"epoch {a.epoch}: node {sample.node_id} appears in both "
                "summaries; node ids must be globally unique"
            )
        seen.add(sample.node_id)
    return EpochSummary(
        epoch=a.epoch,
        samples=samples,
        record_count=a.record_count + b.record_count,
        rate=rate,
    )


@dataclass
class WindowSummary:
    """Ring of the last ``window_epochs`` sealed epochs (bounded memory).

    Adding epoch ``e`` evicts every epoch ``<= e - window_epochs``, so the
    live set is always a suffix of the sealed epochs and occupies at most
    ``window_epochs`` slots.
    """

    window_epochs: int
    _epochs: Dict[int, EpochSummary] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.window_epochs <= 0:
            raise ValueError("window_epochs must be positive")

    def add(self, summary: EpochSummary) -> Tuple[EpochSummary, ...]:
        """Admit a sealed epoch; returns the epochs evicted by the roll."""
        if summary.epoch in self._epochs:
            raise StreamingError(
                f"epoch {summary.epoch} already sealed in this window"
            )
        if self._epochs and summary.epoch < max(self._epochs):
            raise StreamingError(
                f"epoch {summary.epoch} sealed out of order "
                f"(latest is {max(self._epochs)})"
            )
        self._epochs[summary.epoch] = summary
        floor = summary.epoch - self.window_epochs + 1
        evicted = tuple(
            self._epochs.pop(e)
            for e in sorted(self._epochs)
            if e < floor
        )
        return evicted

    def epochs(self) -> Tuple[EpochSummary, ...]:
        """Live epochs, oldest first."""
        return tuple(self._epochs[e] for e in sorted(self._epochs))

    @property
    def live_epochs(self) -> Tuple[int, ...]:
        return tuple(sorted(self._epochs))

    @property
    def latest_epoch(self) -> Optional[int]:
        return max(self._epochs) if self._epochs else None

    @property
    def floor_epoch(self) -> Optional[int]:
        """First epoch the window still covers (None before any roll)."""
        latest = self.latest_epoch
        if latest is None:
            return None
        return latest - self.window_epochs + 1

    @property
    def occupancy(self) -> int:
        """Live epoch slots in use (≤ ``window_epochs``)."""
        return len(self._epochs)

    @property
    def record_count(self) -> int:
        """Window total ``n`` = Σ live ``n_e``."""
        return sum(s.record_count for s in self._epochs.values())

    @property
    def node_count(self) -> int:
        """``k_eff`` = Σ live non-empty node samples."""
        return sum(s.node_count for s in self._epochs.values())

    def clear(self) -> None:
        self._epochs.clear()


def pooled_rate(epochs: Sequence[EpochSummary]) -> float:
    """The sparsest live sample's rate -- it bounds certified accuracy."""
    rates = [s.p for summary in epochs for s in summary.samples]
    if not rates:
        raise InsufficientSamplesError("window holds no samples yet")
    return min(rates)


def window_checksum(epochs: Iterable[EpochSummary]) -> str:
    """SHA-256 over the canonical JSON of every epoch, oldest first.

    The bit-exact-recovery probe: two windows holding identical epochs
    (same samples, ranks, rates, counts) produce identical digests.
    """
    digest = hashlib.sha256()
    for summary in sorted(epochs, key=lambda s: s.epoch):
        digest.update(
            json.dumps(summary.to_payload(), sort_keys=True).encode("utf-8")
        )
    return digest.hexdigest()
