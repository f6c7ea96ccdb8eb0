"""The window log: a write-ahead journal for streaming window state.

The :class:`~repro.durability.journal.TradeJournal` makes *trades*
recoverable; it says nothing about the window ring an ingestor crash can
tear mid-roll.  The :class:`WindowLog` closes that gap with the same
write-ahead discipline: every epoch seal appends a ``roll`` entry --
carrying the sealed epoch's **full sample payload** -- before the ring
mutates, and every window release appends a ``charge`` entry (per-epoch ε
spend) before the epoch accountant mutates.  Replaying the log therefore
rebuilds both the per-shard window rings and the per-epoch budget ledgers
bit-exactly, even when the crash landed between the journal append and the
in-memory apply (the chaos drill's kill point).

A file-backed log uses the trade journal's on-disk format, journal format
v3 (:mod:`repro.durability.codec`): one CRC-checked frame per entry, roll
samples as raw little-endian ``float64``/``int64`` arrays, one write +
flush per append, and the same torn-tail rule on load.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.durability import codec
from repro.errors import JournalError
from repro.streaming.window import EpochSummary, WindowSummary

__all__ = [
    "WindowLog",
    "WindowLogEntry",
    "rebuild_window_state",
    "STREAM_LOG_FORMAT",
    "STREAM_LOG_VERSION",
]

#: Envelope of an entry's payload (one ``repro journal-dump`` line); the
#: version is the payload layout's, which journal format v3 left as v2's.
STREAM_LOG_FORMAT = "repro.stream-journal"
STREAM_LOG_VERSION = 2

#: ``roll`` seals one shard's epoch (full sample payload); ``charge``
#: records one window release's per-epoch ε spend.  Each kind's ``data``
#: holds exactly these keys.
LOG_KINDS = ("roll", "charge")
_DATA_KEYS = {
    "roll": frozenset(("shard_id", "epoch", "record_count", "rate", "nodes")),
    "charge": frozenset(("dataset", "epochs", "epsilon", "label")),
}


def _plain(value: Any) -> Any:
    """``value`` with numpy arrays turned into lists (JSON-ready)."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


class WindowLogEntry:
    """One logged streaming event; ``seq`` is assigned monotonically from 1.

    A ``roll`` entry's ``data["nodes"]`` lists ``[node_id, node_size,
    values, ranks]`` per non-empty node, with the samples as ``float64``
    and ``int64`` arrays.
    """

    __slots__ = ("seq", "kind", "data")

    def __init__(self, seq: int, kind: str, data: Mapping[str, Any]) -> None:
        if kind not in LOG_KINDS:
            raise JournalError(
                f"unknown window-log entry kind {kind!r}; "
                f"expected one of {LOG_KINDS}"
            )
        if seq < 1:
            raise JournalError("seq must be >= 1")
        if data.keys() != _DATA_KEYS[kind]:
            raise JournalError(
                f"{kind} entry data must hold exactly "
                f"{sorted(_DATA_KEYS[kind])}, got {sorted(data)}"
            )
        self.seq = seq
        self.kind = kind
        self.data = dict(data)

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready dict with the format envelope (``journal-dump``)."""
        return {
            "format": STREAM_LOG_FORMAT,
            "version": STREAM_LOG_VERSION,
            "seq": self.seq,
            "kind": self.kind,
            "data": {key: _plain(value) for key, value in self.data.items()},
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "WindowLogEntry":
        """Inverse of :meth:`to_payload` (parses a ``journal-dump`` line)."""
        if payload.get("format") != STREAM_LOG_FORMAT:
            raise JournalError(
                f"not a stream-journal payload: format={payload.get('format')!r}"
            )
        if payload.get("version") != STREAM_LOG_VERSION:
            raise JournalError(
                f"unsupported stream-journal version "
                f"{payload.get('version')!r} (reader understands "
                f"{STREAM_LOG_VERSION})"
            )
        return cls(
            seq=int(payload["seq"]),
            kind=str(payload["kind"]),
            data=dict(payload["data"]),
        )


class WindowLog(codec.FramedLog[WindowLogEntry]):
    """Append-only, thread-safe write-ahead log of window rolls and charges.

    In-memory by default; pass ``path`` to mirror appends to a v3 file.
    :meth:`load` re-opens a file after a crash, dropping a torn last frame
    (the entry was never applied, by write-ahead ordering).
    """

    LOG_KIND = codec.WINDOW_LOG

    @staticmethod
    def _encode(
        chunks: "Sequence[Sequence[WindowLogEntry]]", strings: codec.StringTable
    ) -> bytes:
        return codec.encode_window(itertools.chain.from_iterable(chunks), strings)

    @staticmethod
    def _decode(
        frame_type: int, payload: bytes, strings: "Sequence[str]"
    ) -> "List[WindowLogEntry]":
        if frame_type == codec.FRAME_ROLL:
            seq, data = codec.decode_roll(payload)
            return [WindowLogEntry(seq, "roll", data)]
        if frame_type == codec.FRAME_CHARGE:
            seq, data = codec.decode_charge(payload, strings)
            return [WindowLogEntry(seq, "charge", data)]
        raise JournalError(f"unexpected frame type {frame_type}")

    @staticmethod
    def _first_id(chunk: "Sequence[WindowLogEntry]") -> int:
        return chunk[0].seq

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def append(self, kind: str, **data: Any) -> WindowLogEntry:
        """Log one event; assigns the next ``seq`` and returns the entry."""
        with self._lock:
            entry = WindowLogEntry(self._next_id, kind, data)
            self._commit([entry])
            return entry

    def append_roll(self, shard_id: int, summary: EpochSummary) -> WindowLogEntry:
        """Journal one shard's sealed epoch, pre-apply (write-ahead)."""
        return self.append(
            "roll",
            shard_id=int(shard_id),
            epoch=int(summary.epoch),
            record_count=int(summary.record_count),
            rate=float(summary.rate),
            nodes=[
                [
                    int(sample.node_id),
                    int(sample.node_size),
                    np.array(sample.values, dtype=np.float64),
                    np.array(sample.ranks, dtype=np.int64),
                ]
                for sample in summary.samples
            ],
        )

    def append_charge(
        self,
        dataset: str,
        epochs: "List[int]",
        epsilon: float,
        label: str,
    ) -> WindowLogEntry:
        """Journal one window release's per-epoch ε spend, pre-charge."""
        return self.append(
            "charge",
            dataset=dataset,
            epochs=[int(e) for e in epochs],
            epsilon=float(epsilon),
            label=label,
        )


def rebuild_window_state(
    entries: "Iterable[WindowLogEntry]",
    window_epochs: int,
) -> "Tuple[Dict[int, WindowSummary], List[WindowLogEntry]]":
    """Replay a window log into per-shard window rings plus charge entries.

    Returns ``(windows, charges)``: one rebuilt :class:`WindowSummary` per
    shard id seen in ``roll`` entries -- containing exactly the live
    epochs after every logged roll, ring eviction included -- and the
    ``charge`` entries in log order (the caller replays those into its
    :class:`~repro.streaming.accounting.EpochBudgetAccountant`).  Replay
    is deterministic, so two logs with equal checksums rebuild bit-equal
    window state.
    """
    windows: "Dict[int, WindowSummary]" = {}
    charges: "List[WindowLogEntry]" = []
    previous = 0
    for entry in entries:
        if entry.seq <= previous:
            raise JournalError(
                f"window log replay out of order: seq {entry.seq} "
                f"after {previous}"
            )
        previous = entry.seq
        if entry.kind == "charge":
            charges.append(entry)
            continue
        data = dict(entry.data)
        shard_id = int(data.pop("shard_id"))
        summary = EpochSummary.from_payload(data)
        windows.setdefault(
            shard_id, WindowSummary(window_epochs=window_epochs)
        ).add(summary)
    return windows, charges
