"""Write-ahead trade journal: the broker's crash-safety record.

The paper's accounting guarantees (arbitrage-free revenue, bounded
cumulative ε) are stated for a broker that never fails.  In production
the dangerous failures are partial ones: a crash *after* drawing Laplace
noise but *before* recording the ε-spend silently leaks privacy budget.
:class:`TradeJournal` closes that window with a write-ahead log: every
trade is appended to the journal **before** the answer is released or
any ledger/accountant/policy state is mutated (the journal-before-release
invariant of the settlement kernel, pinned by
``tests/chaos/test_broker_journal.py``), so the journal is always a
superset of the released answers and recovery can only over-count ε,
never under-count it.

The journal is append-only and fsync-free by default (in-memory); pass a
``path`` to mirror every batch to a journal-format-v3 file
(:mod:`repro.durability.codec`: one CRC-framed ``TRADES`` frame of
fixed-width binary records per append, interned strings, labels derived
on read) so it survives process death.  Entries carry everything the
accounting layer needs to rebuild:
``(answer_id, query range, (α, δ), ε′, price, store_version)``.

Each append is kept as the :class:`~repro.records.DispatchRecord` it came
in -- the settlement kernel's one record per dispatch -- and the
:class:`JournalEntry` views are built only when entries are read.
``repro journal-dump PATH`` prints a journal file as JSON lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, Mapping, Sequence, Tuple, Union, cast

from repro.durability import codec
from repro.errors import JournalError
from repro.records import KINDS, ROW_FIELDS, DispatchRecord, RowViews, as_record

__all__ = ["JournalEntry", "TradeJournal", "JOURNAL_FORMAT", "JOURNAL_VERSION"]

#: Envelope identifiers of an entry's payload (:meth:`JournalEntry.to_payload`,
#: one ``repro journal-dump`` line).  The version is the payload layout's:
#: it moves when an entry's fields change, not when the file encoding
#: does (journal format v3 keeps the v2 entries, so dumps are unchanged).
JOURNAL_FORMAT = "repro.trade-journal"
JOURNAL_VERSION = 2

#: Entry kinds: a fresh noised release (spends ε′ > 0), the replay of an
#: already-released answer (billed, but ε′ = 0 by post-processing), and a
#: bare ε′ charge made outside the trade path -- a histogram or quantile
#: release -- which spends budget but is never billed (price 0).
ENTRY_KINDS = KINDS


@dataclass(frozen=True)
class JournalEntry:
    """One journaled trade, written before the answer leaves the broker.

    ``answer_id`` is assigned by the journal, 1, 2, 3, ... in append
    order; recovery folds the entries in that order into fresh books.
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
        if self.answer_id < 1:
            raise JournalError("answer_id must be >= 1")
        fields = dict(self.__dict__)
        del fields["answer_id"]
        DispatchRecord.from_rows([fields], error=JournalError).check(JournalError)

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


_ENTRY_FIELDS = ("answer_id",) + ROW_FIELDS


def _view(values: "Tuple[Any, ...]") -> JournalEntry:
    """An entry of already-validated field ``values``, set one by one in
    definition order past the frozen ``__init__`` (whose validation
    builds a record), so the view is as compact as a constructed entry."""
    entry = object.__new__(JournalEntry)
    for name, value in zip(_ENTRY_FIELDS, values):
        object.__setattr__(entry, name, value)
    return entry


class _Chunk(RowViews[JournalEntry]):
    """One append's entries: its record and first answer id.

    The :class:`JournalEntry` views are built when the entries are read,
    never stored.
    """

    __slots__ = ("first_id", "record")

    def __init__(self, first_id: int, record: DispatchRecord) -> None:
        self.first_id = first_id
        self.record = record

    def __len__(self) -> int:
        return len(self.record)

    def __iter__(self) -> Iterator[JournalEntry]:
        for answer_id, row in enumerate(self.record.rows(), start=self.first_id):
            yield _view((answer_id, *row))


def _journal_record(rows: "Iterable[Mapping[str, Any]]") -> DispatchRecord:
    return DispatchRecord.from_rows(rows, error=JournalError)


class TradeJournal(codec.FramedLog[JournalEntry]):
    """Append-only, thread-safe write-ahead log of broker trades.

    In-memory by default; pass ``path`` to mirror appends to a v3 file
    (one ``TRADES`` frame, one write + flush per :meth:`append_many`, no
    fsync).  A path that already holds a journal is refused;
    :meth:`load` re-opens it after a crash and resumes the ``answer_id``
    sequence and the string table.
    """

    LOG_KIND = codec.TRADE_LOG

    @staticmethod
    def _encode(chunks: "Sequence[_Chunk]", strings: codec.StringTable) -> bytes:
        return codec.encode_trades(
            ((chunk.first_id, chunk.record) for chunk in chunks), strings
        )

    @staticmethod
    def _decode(
        frame_type: int, payload: bytes, strings: "Sequence[str]"
    ) -> _Chunk:
        if frame_type != codec.FRAME_TRADES:
            raise JournalError(f"unexpected frame type {frame_type}")
        return _Chunk(*codec.decode_trades(payload, strings))

    @staticmethod
    def _first_id(chunk: _Chunk) -> int:
        return chunk.first_id

    # ------------------------------------------------------------------ #
    # Write path                                                         #
    # ------------------------------------------------------------------ #
    def append_many(
        self, records: "Union[DispatchRecord, Iterable[Mapping[str, Any]]]"
    ) -> "Sequence[JournalEntry]":
        """Journal several trades atomically, in order.

        ``records`` is the settlement kernel's dispatch record, or one
        mapping of :class:`JournalEntry`'s fields (all but ``answer_id``)
        per trade.  All entries of a batch land under one lock
        acquisition (and, file-backed, as one ``TRADES`` frame in one
        write + flush), so a reader never observes a half-journaled
        batch.  A record that fails validation journals none of the
        batch.  Returns the new entries (views built on read).
        """
        record = as_record(records, _journal_record)
        record.check(JournalError)
        with self._lock:
            chunk = _Chunk(self._next_id, record)
            self._commit(chunk)
            return chunk

    # ------------------------------------------------------------------ #
    # Read path                                                          #
    # ------------------------------------------------------------------ #
    def records(self) -> "Tuple[DispatchRecord, ...]":
        """Each append's dispatch record, oldest first."""
        with self._lock:
            chunks = list(self._chunks)
        return tuple(cast(_Chunk, chunk).record for chunk in chunks)

    @property
    def last_answer_id(self) -> int:
        """Highest ``answer_id`` journaled so far (0 when empty)."""
        with self._lock:
            return self._next_id - 1
