"""Write-ahead trade journal: the broker's crash-safety record.

The paper's accounting guarantees (arbitrage-free revenue, bounded
cumulative ε) are stated for a broker that never fails.  In production
the dangerous failures are partial ones: a crash *after* drawing Laplace
noise but *before* recording the ε-spend silently leaks privacy budget.
:class:`TradeJournal` closes that window with a write-ahead log: every
trade is appended to the journal **before** the answer is released or
any ledger/accountant/policy state is mutated (the journal-before-release
invariant of the settlement kernel, statically checked by lint rule
RL007), so the journal is
always a superset of the released answers and recovery can only
over-count ε, never under-count it.

The journal is append-only and fsync-free by default (in-memory); pass a
``path`` to mirror every batch to a journal-format-v2 file
(:mod:`repro.durability.codec`: CRC-framed, fixed-width binary records
with interned strings) so it survives process death.  Entries carry
everything the accounting layer needs to rebuild:
``(answer_id, query range, (α, δ), ε′, price, store_version)``.
``repro journal-dump PATH`` prints a journal file as JSON lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.durability import codec
from repro.errors import JournalError

__all__ = ["JournalEntry", "TradeJournal", "JOURNAL_FORMAT", "JOURNAL_VERSION"]

#: Envelope identifiers of an entry's payload (:meth:`JournalEntry.to_payload`,
#: one ``repro journal-dump`` line); the version is the on-disk format's.
JOURNAL_FORMAT = "repro.trade-journal"
JOURNAL_VERSION = codec.FORMAT_VERSION

#: Entry kinds: a fresh noised release (spends ε′ > 0), the replay of an
#: already-released answer (billed, but ε′ = 0 by post-processing), and a
#: bare ε′ charge made outside the trade path -- a histogram or quantile
#: release -- which spends budget but is never billed (price 0).
ENTRY_KINDS = ("release", "replay", "charge")

#: Fields that must hold finite numbers: the books never hold NaN/Infinity.
_FINITE_FIELDS = ("low", "high", "alpha", "delta", "epsilon_prime", "price")


@dataclass(frozen=True)
class JournalEntry:
    """One journaled trade, written before the answer leaves the broker.

    ``answer_id`` is assigned by the journal, monotonically from 1, and is
    the idempotency key for recovery: replaying the same journal twice
    applies each entry exactly once.
    """

    answer_id: int
    kind: str
    consumer: str
    dataset: str
    low: float
    high: float
    alpha: float
    delta: float
    epsilon_prime: float
    price: float
    store_version: int
    label: str

    def __post_init__(self) -> None:
        if self.kind not in ENTRY_KINDS:
            raise JournalError(
                f"unknown journal entry kind {self.kind!r}; "
                f"expected one of {ENTRY_KINDS}"
            )
        if self.answer_id < 1:
            raise JournalError("answer_id must be >= 1")
        # Unrolled rather than looped over _FINITE_FIELDS: this runs once
        # per journaled trade on the broker's hot path.
        if not (
            isfinite(self.low)
            and isfinite(self.high)
            and isfinite(self.alpha)
            and isfinite(self.delta)
            and isfinite(self.epsilon_prime)
            and isfinite(self.price)
        ):
            bad = [name for name in _FINITE_FIELDS
                   if not isfinite(getattr(self, name))]
            raise JournalError(f"{', '.join(bad)} must be finite")
        if self.epsilon_prime < 0:
            raise JournalError("epsilon_prime must be non-negative")
        if self.price < 0:
            raise JournalError("price must be non-negative")
        if self.kind == "replay" and self.epsilon_prime != 0.0:
            raise JournalError(
                "replay entries are post-processing and must carry ε′ = 0"
            )
        if self.kind == "charge" and self.price != 0.0:
            raise JournalError("charge entries are never billed; price must be 0")

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready dict with the format envelope (``journal-dump``).

        Every field is a flat scalar, so a shallow copy of ``__dict__`` is
        the whole payload; no deep copy is needed.
        """
        return {
            **self.__dict__,
            "format": JOURNAL_FORMAT,
            "version": JOURNAL_VERSION,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "JournalEntry":
        """Inverse of :meth:`to_payload`; validates the envelope."""
        if payload.get("format") != JOURNAL_FORMAT:
            raise JournalError(
                f"not a trade-journal payload: format={payload.get('format')!r}"
            )
        if payload.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"unsupported journal version {payload.get('version')!r} "
                f"(this reader understands {JOURNAL_VERSION})"
            )
        fields = {
            key: payload[key]
            for key in (
                "answer_id",
                "kind",
                "consumer",
                "dataset",
                "low",
                "high",
                "alpha",
                "delta",
                "epsilon_prime",
                "price",
                "store_version",
                "label",
            )
        }
        return cls(**fields)


#: Exactly the caller-supplied fields of a journal record (everything but
#: the journal-assigned ``answer_id``).
_RECORD_KEYS = frozenset((
    "kind", "consumer", "dataset", "low", "high", "alpha", "delta",
    "epsilon_prime", "price", "store_version", "label",
))


def _make_entry(answer_id: int, record: "Mapping[str, Any]") -> JournalEntry:
    """Build a validated entry, bypassing the frozen-dataclass ``__init__``.

    Journaling sits on the broker's batched hot path and the frozen
    ``__init__`` (one ``object.__setattr__`` per field) dominates its
    cost; well-shaped records take the direct-``__dict__`` path and run
    the same ``__post_init__`` validation.  Odd shapes fall back to the
    strict constructor for its precise error.
    """
    if record.keys() != _RECORD_KEYS:
        return JournalEntry(answer_id=answer_id, **dict(record))
    entry = object.__new__(JournalEntry)
    entry.__dict__["answer_id"] = answer_id
    entry.__dict__.update(record)
    entry.__post_init__()
    return entry


class TradeJournal(codec.FramedLog[JournalEntry]):
    """Append-only, thread-safe write-ahead log of broker trades.

    In-memory by default; pass ``path`` to mirror appends to a v2 file
    (one write + flush per :meth:`append_many`, no fsync).  A path that
    already holds a journal is refused; :meth:`load` re-opens it after a
    crash and resumes the ``answer_id`` sequence and the string table.
    """

    LOG_KIND = codec.TRADE_LOG

    @staticmethod
    def _encode(
        entries: "Sequence[JournalEntry]", strings: codec.StringTable
    ) -> bytes:
        return codec.encode_trades(entries, strings)

    @staticmethod
    def _decode(
        frame_type: int, payload: bytes, strings: "Sequence[str]"
    ) -> JournalEntry:
        if frame_type != codec.FRAME_TRADE:
            raise JournalError(f"unexpected frame type {frame_type}")
        return JournalEntry(**codec.decode_trade(payload, strings))

    @staticmethod
    def _id_of(entry: JournalEntry) -> int:
        return entry.answer_id

    # ------------------------------------------------------------------ #
    # Write path                                                         #
    # ------------------------------------------------------------------ #
    def append(self, **fields: Any) -> JournalEntry:
        """Journal one trade; assigns the next ``answer_id`` and returns it."""
        return self.append_many([fields])[0]

    def append_many(
        self, records: "Iterable[Mapping[str, Any]]"
    ) -> "List[JournalEntry]":
        """Journal several trades atomically, in order.

        All entries of a batch land under one lock acquisition (and one
        write + flush when file-backed), so a reader never observes a
        half-journaled batch.  A record that fails validation journals
        none of the batch.
        """
        with self._lock:
            entries = [
                _make_entry(answer_id, record)
                for answer_id, record in enumerate(records, start=self._next_id)
            ]
            self._commit(entries)
            return entries

    # ------------------------------------------------------------------ #
    # Read path                                                          #
    # ------------------------------------------------------------------ #
    def entries_after(self, answer_id: int) -> "Tuple[JournalEntry, ...]":
        """Entries with ``answer_id`` strictly greater than the given one."""
        with self._lock:
            return tuple(e for e in self._entries if e.answer_id > answer_id)

    @property
    def last_answer_id(self) -> int:
        """Highest ``answer_id`` journaled so far (0 when empty)."""
        with self._lock:
            return self._next_id - 1
