"""Continuous ingestion: streaming devices and per-shard epoch ingestors.

Arrival path: the runtime routes timestamped records to a shard, the
shard's :class:`ShardIngestor` routes them round-robin to its
:class:`StreamDevice` buffers, and on every epoch roll each device seals
its buffer -- Bernoulli-samples it at the coordinator's shared epoch rate
(ranks local to the epoch, exactly like a paper node) and ships a
:class:`~repro.iot.messages.StreamReport` over the shard's metered
:class:`~repro.iot.network.Network` channel.  The ingestor folds the
reports into one :class:`~repro.streaming.window.EpochSummary`, journals
it to the :class:`~repro.streaming.journal.WindowLog` **before** touching
the window ring (write-ahead, the streaming analogue of
journal-before-release), and only then applies it.

Late or out-of-order batches are rejected at the edge
(:class:`~repro.errors.StaleEpochError`): sealed epochs are immutable and
already journaled, so admitting stragglers would break both the
estimator's shared-rate invariant and bit-exact recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.streams import epoch_of
from repro.errors import IngestorCrashError, StaleEpochError
from repro.estimators.base import NodeData, NodeSample
from repro.iot.messages import StreamReport
from repro.iot.network import Network
from repro.iot.topology import BASE_STATION_ID
from repro.streaming.journal import WindowLog
from repro.streaming.window import EpochSummary, WindowSummary

__all__ = ["StreamDevice", "ShardIngestor"]


@dataclass
class StreamDevice:
    """A device that buffers arriving readings until its epoch is sealed.

    Unlike the one-shot :class:`~repro.iot.device.SmartDevice` (fixed
    local dataset, re-sampled on demand), a streaming device's local data
    is the *open epoch's* arrivals only: each seal drains the buffer, so
    device memory is bounded by one epoch's arrivals.
    """

    node_id: int
    rng: np.random.Generator
    _pending: List[float] = field(default_factory=list)

    @property
    def pending_count(self) -> int:
        """Readings buffered for the open epoch."""
        return len(self._pending)

    def absorb(self, values: "Sequence[float]") -> None:
        """Buffer arrivals for the open epoch."""
        self._pending.extend(float(v) for v in values)

    def seal(self, epoch: int, rate: float) -> StreamReport:
        """Seal the open epoch: sample the buffer and drain it.

        Ranks are local to the epoch (the buffer is ranked stably
        ascending, like any paper node), so sealed epochs never re-rank.
        The buffer is drained even when empty -- an empty epoch ships an
        empty report so the coordinator can account ``n_e = 0``.
        """
        node = NodeData(
            node_id=self.node_id,
            values=np.asarray(self._pending, dtype=np.float64),
        )
        self._pending.clear()
        sample = node.sample(rate, self.rng)
        return StreamReport(
            sender=self.node_id,
            receiver=BASE_STATION_ID,
            values=tuple(float(v) for v in sample.values),
            ranks=tuple(int(r) for r in sample.ranks),
            node_size=sample.node_size,
            p=rate,
            epoch=epoch,
        )


@dataclass
class ShardIngestor:
    """One shard's ingestion runtime: device buffers + the window ring.

    Parameters
    ----------
    shard_id:
        Global shard index (also the window-log partition key).
    devices:
        This shard's streaming devices (globally unique node ids).
    window_epochs:
        Ring size ``W``; rolls evict epochs that leave the window.
    epoch_length, origin:
        The half-open epoch grid: epoch ``e`` covers
        ``[origin + e·L, origin + (e+1)·L)``.
    network:
        Metered transport for seal-time :class:`StreamReport` shipments
        (``None`` skips metering; samples flow regardless).
    log:
        The shared :class:`WindowLog`; every seal journals its roll entry
        *before* the ring mutates.
    """

    shard_id: int
    devices: List[StreamDevice]
    window_epochs: int
    epoch_length: float = 1.0
    origin: float = 0.0
    network: Optional[Network] = None
    log: Optional[WindowLog] = None

    def __post_init__(self) -> None:
        if not self.devices:
            raise ValueError("a shard needs at least one device")
        if self.epoch_length <= 0:
            raise ValueError("epoch_length must be positive")
        self._window = WindowSummary(window_epochs=self.window_epochs)
        self._open_epoch = 0
        self._arrivals = 0  # deterministic round-robin routing cursor

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def open_epoch(self) -> int:
        """The epoch currently accepting arrivals."""
        return self._open_epoch

    @property
    def window(self) -> WindowSummary:
        return self._window

    @property
    def pending_count(self) -> int:
        """Open-epoch arrivals buffered across this shard's devices."""
        return sum(d.pending_count for d in self.devices)

    @property
    def node_ids(self) -> Tuple[int, ...]:
        return tuple(d.node_id for d in self.devices)

    # ------------------------------------------------------------------
    # arrival side
    # ------------------------------------------------------------------
    def ingest(
        self,
        values: "Sequence[float]",
        timestamps: "Sequence[float]",
    ) -> int:
        """Buffer one timestamped batch into the open epoch.

        Every record must fall inside the open epoch's half-open interval:
        records from already-sealed epochs are *late* and rejected,
        records from future epochs are *out of order* (the roll schedule
        has not opened their epoch yet) and rejected too.  Rejection is
        atomic -- a bad batch buffers nothing.  Returns records accepted.
        """
        values = np.asarray(values, dtype=np.float64)
        timestamps = np.asarray(timestamps, dtype=np.float64)
        if len(values) != len(timestamps):
            raise ValueError("values and timestamps must be parallel")
        if len(values) == 0:
            return 0
        first = epoch_of(float(np.min(timestamps)), self.epoch_length, self.origin)
        last = epoch_of(float(np.max(timestamps)), self.epoch_length, self.origin)
        if first < self._open_epoch:
            raise StaleEpochError(
                f"shard {self.shard_id}: batch carries records for sealed "
                f"epoch {first} (open epoch is {self._open_epoch}); late "
                "data is rejected at the edge",
                epoch=first,
                open_epoch=self._open_epoch,
            )
        if last > self._open_epoch:
            raise StaleEpochError(
                f"shard {self.shard_id}: batch carries records for future "
                f"epoch {last} (open epoch is {self._open_epoch}); roll the "
                "window before shipping the next epoch",
                epoch=last,
                open_epoch=self._open_epoch,
            )
        k = len(self.devices)
        for offset, value in enumerate(values):
            device = self.devices[(self._arrivals + offset) % k]
            device.absorb([float(value)])
        self._arrivals += len(values)
        return len(values)

    # ------------------------------------------------------------------
    # roll side
    # ------------------------------------------------------------------
    def seal(
        self,
        rate: float,
        crash_after_journal: bool = False,
    ) -> EpochSummary:
        """Seal the open epoch at the coordinator's shared ``rate``.

        Every device samples and ships its buffer; the sealed
        :class:`EpochSummary` is journaled to the window log **before**
        the ring mutates, so a crash between journal and apply (the
        ``crash_after_journal`` chaos hook) loses nothing -- recovery
        replays the log and lands on the identical ring state.  Returns
        the sealed summary and advances the open epoch.
        """
        epoch = self._open_epoch
        record_count = 0
        samples: "List[NodeSample]" = []
        for device in self.devices:
            report = device.seal(epoch, rate)
            if self.network is not None:
                self.network.send(report)
            record_count += report.node_size
            if report.node_size > 0:
                samples.append(
                    NodeSample(
                        node_id=report.sender,
                        values=np.asarray(report.values, dtype=np.float64),
                        ranks=np.asarray(report.ranks, dtype=np.int64),
                        node_size=report.node_size,
                        p=report.p,
                    )
                )
        summary = EpochSummary(
            epoch=epoch,
            samples=tuple(sorted(samples, key=lambda s: s.node_id)),
            record_count=record_count,
            rate=rate if record_count > 0 else 0.0,
        )
        if self.log is not None:
            self.log.append_roll(self.shard_id, summary)
        if crash_after_journal:
            raise IngestorCrashError(
                f"shard {self.shard_id}: simulated crash sealing epoch "
                f"{epoch} (journaled, not applied)"
            )
        self._window.add(summary)
        self._open_epoch = epoch + 1
        return summary

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def restore_window(self, window: WindowSummary) -> None:
        """Adopt a ring rebuilt from the window log (crash recovery).

        The open epoch resumes after the newest recovered epoch; device
        buffers restart empty (in-flight arrivals of the open epoch die
        with the process -- the log only guarantees *sealed* state).
        """
        if window.window_epochs != self.window_epochs:
            raise ValueError(
                f"recovered ring is {window.window_epochs} epochs wide, "
                f"ingestor expects {self.window_epochs}"
            )
        self._window = window
        latest = window.latest_epoch
        self._open_epoch = 0 if latest is None else latest + 1
        for device in self.devices:
            device._pending.clear()
