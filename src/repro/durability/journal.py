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
``path`` to mirror every entry to a JSONL file so it survives process
death.  Entries carry everything the accounting layer needs to rebuild:
``(answer_id, query range, (α, δ), ε′, price, store_version)``.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from math import isfinite
from pathlib import Path
from typing import IO, Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.errors import JournalError

__all__ = ["JournalEntry", "TradeJournal", "JOURNAL_FORMAT", "JOURNAL_VERSION"]

#: Envelope identifiers written into every JSONL line so that readers can
#: reject files produced by a different (or future) journal layout.
JOURNAL_FORMAT = "repro.trade-journal"
JOURNAL_VERSION = 1

#: Entry kinds: a fresh noised release (spends ε′ > 0) vs. the replay of
#: an already-released answer (billed, but ε′ = 0 by post-processing).
ENTRY_KINDS = ("release", "replay")

#: Fields that must hold finite numbers: strict JSON has no NaN/Infinity.
_FINITE_FIELDS = ("low", "high", "alpha", "delta", "epsilon_prime", "price")

#: The one canonical line encoder, shared by the file writer and
#: :meth:`TradeJournal.checksum`; ``json.dumps(..., sort_keys=True)`` would
#: build an equivalent encoder per call.
_ENCODER = json.JSONEncoder(sort_keys=True)


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

    def to_payload(self) -> Dict[str, Any]:
        """JSON-serializable dict (one JSONL line when file-backed).

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


def _line(entry: JournalEntry) -> str:
    """The canonical JSON line (without newline) for one entry."""
    return _ENCODER.encode(entry.to_payload())


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


class TradeJournal:
    """Append-only, thread-safe write-ahead log of broker trades.

    In-memory by default; pass ``path`` to mirror appends to a JSONL file
    (one entry per line, flushed per append, no fsync — the durability
    tier the ISSUE calls for).  Re-opening an existing file with
    :meth:`load` resumes the ``answer_id`` sequence where it left off.
    """

    def __init__(self, path: "Optional[Union[str, Path]]" = None) -> None:
        self._lock = threading.Lock()
        self._entries: "List[JournalEntry]" = []  # guarded-by: _lock
        self._next_id = 1  # guarded-by: _lock
        self._path: "Optional[Path]" = Path(path) if path is not None else None
        self._file: "Optional[IO[str]]" = None
        # Set by load() when the file does not end on a whole line: the
        # byte offset the first append must resume at.
        self._resume_at: "Optional[int]" = None  # guarded-by: _lock
        if self._path is not None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._file = self._path.open("a", encoding="utf-8")

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
        buffered write when file-backed), so a reader never observes a
        half-journaled batch.
        """
        with self._lock:
            entries: "List[JournalEntry]" = []
            for record in records:
                entry = _make_entry(self._next_id, record)
                self._next_id += 1
                entries.append(entry)
            self._entries.extend(entries)
            if self._file is not None:
                if self._resume_at is not None:
                    self._mend_tail(self._resume_at)
                    self._resume_at = None
                self._file.write(
                    "".join(_line(entry) + "\n" for entry in entries)
                )
                self._file.flush()
            return entries

    def _mend_tail(self, resume_at: int) -> None:
        """Cut the torn tail line off, or end an unterminated last line,
        so the next entry starts on a line of its own."""
        assert self._path is not None
        with self._path.open("r+b") as handle:
            size = handle.seek(0, 2)
            if resume_at < size:
                handle.truncate(resume_at)
            elif resume_at > size:
                handle.write(b"\n")

    # ------------------------------------------------------------------ #
    # Read path                                                          #
    # ------------------------------------------------------------------ #
    def entries(self) -> "Tuple[JournalEntry, ...]":
        """Immutable snapshot of every journaled trade, oldest first."""
        with self._lock:
            return tuple(self._entries)

    def entries_after(self, answer_id: int) -> "Tuple[JournalEntry, ...]":
        """Entries with ``answer_id`` strictly greater than the given one."""
        with self._lock:
            return tuple(e for e in self._entries if e.answer_id > answer_id)

    @property
    def last_answer_id(self) -> int:
        """Highest ``answer_id`` journaled so far (0 when empty)."""
        with self._lock:
            return self._next_id - 1

    @property
    def path(self) -> "Optional[Path]":
        """The backing JSONL file, or ``None`` for an in-memory journal."""
        return self._path

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def checksum(self) -> str:
        """SHA-256 over the canonical JSON of every entry (determinism probe)."""
        digest = hashlib.sha256()
        for entry in self.entries():
            digest.update(_line(entry).encode("utf-8"))
        return digest.hexdigest()

    def close(self) -> None:
        """Close the backing file (no-op for in-memory journals)."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "TradeJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Recovery entry point                                               #
    # ------------------------------------------------------------------ #
    @classmethod
    def load(cls, path: "Union[str, Path]") -> "TradeJournal":
        """Re-open a file-backed journal after a crash.

        Reads every surviving JSONL line, validates the envelope, and
        resumes the ``answer_id`` sequence after the highest recovered id.
        A torn final line (the classic partial-write crash artifact) is
        dropped; any other corruption raises
        :class:`~repro.errors.JournalError`.  Loading only reads the file:
        the first append after it cuts the torn line off (or ends a last
        line that lacks its newline), so new entries land on whole lines.
        """
        source = Path(path)
        entries: "List[JournalEntry]" = []
        data = source.read_bytes() if source.exists() else b""
        lines = data.split(b"\n")
        if lines[-1] == b"":
            lines.pop()  # the file ends on a whole line
        kept = 0  # bytes of the file that hold whole, parsed lines
        for lineno, line in enumerate(lines, start=1):
            if line.strip():
                try:
                    payload = json.loads(line)
                except ValueError:
                    if lineno == len(lines):
                        # Torn tail: the process died mid-write.  The entry
                        # was never released (journal-before-release), so
                        # dropping it is safe.
                        break
                    raise JournalError(
                        f"{source}: corrupt journal line {lineno}"
                    ) from None
                entries.append(JournalEntry.from_payload(payload))
            kept += len(line) + 1
        journal = cls(path=source)
        with journal._lock:
            if kept != len(data):
                journal._resume_at = kept
            journal._entries.extend(entries)
            if entries:
                journal._next_id = entries[-1].answer_id + 1
        return journal
