"""Journal format v2: the one on-disk codec of both write-ahead logs.

The trade journal (:class:`~repro.durability.journal.TradeJournal`) and
the streaming window log (:class:`~repro.streaming.journal.WindowLog`)
share this binary format, this reader and this writer; only their record
layouts differ.  A v2 file is::

    header   magic b"\\x89RPJ" | u16 version (2) | u16 log kind
    frame*   u32 length | u8 type | u32 head crc | payload | u32 body crc

All integers are little-endian.  ``length`` counts the payload bytes;
the head crc (``zlib.crc32``) covers ``length`` and ``type``, the body
crc the payload.  The head check keeps a damaged length from posing as a
torn tail.  Frame types:

* ``STRING`` -- one string-table entry: ``u32 id`` + UTF-8 text.  Ids run
  0, 1, 2, ... in file order, and a string is defined in the same write as
  the first record that uses it.  The trade journal interns ``consumer``
  and ``dataset``; the window log interns ``dataset``.
* ``TRADE`` -- one journaled trade, fixed-width: ``u64 answer_id``,
  ``u8 kind`` (0 release, 1 replay, 2 charge), ``u32 consumer id``,
  ``u32 dataset id``, six ``f64``
  (``low, high, alpha, delta, epsilon_prime, price``), ``i64
  store_version``, then the ``label`` inline as ``u32`` length + UTF-8.
* ``ROLL`` -- one shard's sealed epoch: ``u64 seq``, ``i64 shard_id,
  epoch, record_count``, ``f64 rate``, ``u32`` node count, then per node
  ``i64 node_id, node_size``, ``u32 n`` and the raw ``n`` sample values
  (``f64``) and ranks (``i64``).
* ``CHARGE`` -- one window release's per-epoch ε spend: ``u64 seq``,
  ``u32 dataset id``, ``f64 epsilon``, ``u32`` epoch count, the epochs as
  ``i64``, then the ``label`` inline.

Torn-tail rule: a writer appends whole frames, one write per batch, and
a crash can cut that write anywhere.  On load, a last frame that is short
or fails its CRC is dropped (its trades were never released:
journal-before-release), and so are string frames after the last record
(they were written for a record the crash cut); a bad frame followed by
more data raises :class:`~repro.errors.JournalError`.  Loading only
reads; the first append after a load cuts the torn tail off and resumes
the string table, so the file stays byte-identical to an uninterrupted
log of the same entries.
"""

from __future__ import annotations

import hashlib
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import (
    IO,
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Dict,
    Generic,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
)

import numpy as np

from repro.errors import JournalError

if TYPE_CHECKING:
    from repro.durability.journal import JournalEntry
    from repro.streaming.journal import WindowLogEntry

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "TRADE_LOG",
    "WINDOW_LOG",
    "FRAME_STRING",
    "FRAME_TRADE",
    "FRAME_ROLL",
    "FRAME_CHARGE",
    "FramedLog",
    "LogScan",
    "StringTable",
    "decode_charge",
    "decode_roll",
    "decode_trade",
    "encode_trades",
    "encode_window",
    "frame",
    "header",
    "read_log",
    "sniff",
    "string_frame",
]

MAGIC = b"\x89RPJ"
FORMAT_VERSION = 2

#: Log kinds, stored in the header: a reader refuses the other log's file.
TRADE_LOG = 1
WINDOW_LOG = 2
_LOG_NAMES = {TRADE_LOG: "trade journal", WINDOW_LOG: "window log"}

FRAME_STRING = 1
FRAME_TRADE = 2
FRAME_ROLL = 3
FRAME_CHARGE = 4

_HEADER = struct.Struct("<4sHH")
_KEY = struct.Struct("<IB")  # payload length, frame type
_HEAD = struct.Struct("<IBI")  # ... and the crc32 of those five bytes
_U32 = struct.Struct("<I")
_CRC = _U32
_TRADE = struct.Struct("<QBIIddddddqI")
_ROLL = struct.Struct("<QqqqdI")
_NODE = struct.Struct("<qqI")
_CHARGE = struct.Struct("<QIdI")

_TRADE_KINDS = ("release", "replay", "charge")
_TRADE_CODES = {kind: code for code, kind in enumerate(_TRADE_KINDS)}

_F64 = np.dtype("<f8")
_I64 = np.dtype("<i8")

E = TypeVar("E")
L = TypeVar("L", bound="FramedLog[Any]")


def header(log_kind: int) -> bytes:
    """The 8-byte file header of a v2 log of ``log_kind``."""
    return _HEADER.pack(MAGIC, FORMAT_VERSION, log_kind)


def _head(length: int, frame_type: int) -> bytes:
    key = _KEY.pack(length, frame_type)
    return key + _CRC.pack(zlib.crc32(key))


def frame(frame_type: int, payload: bytes) -> bytes:
    """One whole frame: head (length, type, crc), payload and body crc."""
    return b"".join((
        _head(len(payload), frame_type), payload,
        _CRC.pack(zlib.crc32(payload)),
    ))


def _text(value: str) -> bytes:
    # surrogatepass: every Python str round-trips, lone surrogates too.
    return value.encode("utf-8", "surrogatepass")


def string_frame(string_id: int, text: str) -> bytes:
    """The frame that defines string ``string_id`` as ``text``."""
    return frame(FRAME_STRING, _U32.pack(string_id) + _text(text))


class StringTable:
    """The interned strings of one log file; ids are dense from 0.

    :meth:`intern` emits the defining frame into the caller's output the
    first time a string is used.  A writer takes a :meth:`mark` before
    encoding a batch and :meth:`rollback` to it if the batch never reaches
    the file, so no id is ever handed out without its frame on disk.
    """

    def __init__(self, texts: Iterable[str] = ()) -> None:
        self._texts: List[str] = list(texts)
        #: text -> id; read-only for callers (encoders look ids up here).
        self.ids: Dict[str, int] = {
            text: index for index, text in enumerate(self._texts)
        }

    def intern(self, text: str, out: List[bytes]) -> int:
        string_id = self.ids.get(text)
        if string_id is None:
            string_id = len(self._texts)
            out.append(string_frame(string_id, text))
            self.ids[text] = string_id
            self._texts.append(text)
        return string_id

    def mark(self) -> int:
        return len(self._texts)

    def rollback(self, mark: int) -> None:
        for text in self._texts[mark:]:
            del self.ids[text]
        del self._texts[mark:]


# ---------------------------------------------------------------------- #
# Record layouts                                                         #
# ---------------------------------------------------------------------- #
def encode_trades(entries: "Iterable[JournalEntry]", strings: StringTable) -> bytes:
    """Frames for ``entries``, preceded by any string they define first.

    The broker's hot path: one ``pack`` per record, the string lookups
    inlined, and one head per distinct payload length.
    """
    out: List[bytes] = []
    append = out.append
    ids = strings.ids
    intern = strings.intern
    pack = _TRADE.pack
    crc_pack = _CRC.pack
    crc32 = zlib.crc32
    heads: Dict[int, bytes] = {}
    for entry in entries:
        fields = entry.__dict__
        label = fields["label"].encode("utf-8", "surrogatepass")
        size = len(label)
        consumer = ids.get(fields["consumer"])
        if consumer is None:
            consumer = intern(fields["consumer"], out)
        dataset = ids.get(fields["dataset"])
        if dataset is None:
            dataset = intern(fields["dataset"], out)
        head = heads.get(size)
        if head is None:
            head = heads[size] = _head(_TRADE.size + size, FRAME_TRADE)
        payload = pack(
            fields["answer_id"],
            _TRADE_CODES[fields["kind"]],
            consumer,
            dataset,
            fields["low"],
            fields["high"],
            fields["alpha"],
            fields["delta"],
            fields["epsilon_prime"],
            fields["price"],
            fields["store_version"],
            size,
        ) + label
        append(head)
        append(payload)
        append(crc_pack(crc32(payload)))
    return b"".join(out)


def _string(strings: Sequence[str], string_id: int) -> str:
    if string_id >= len(strings):
        raise JournalError(f"string id {string_id} used before it is defined")
    return strings[string_id]


def _inline_text(payload: bytes, at: int) -> str:
    """The length-prefixed text at ``at``, which must end the payload."""
    (size,) = _U32.unpack_from(payload, at)
    at += _U32.size
    if at + size != len(payload):
        raise JournalError("record length does not match its layout")
    return payload[at:].decode("utf-8", "surrogatepass")


def decode_trade(payload: bytes, strings: Sequence[str]) -> Dict[str, Any]:
    """The fields of one ``TRADE`` payload, keyed as ``JournalEntry``'s."""
    (answer_id, kind, consumer, dataset, low, high, alpha, delta,
     epsilon_prime, price, store_version, _) = _TRADE.unpack_from(payload)
    if kind >= len(_TRADE_KINDS):
        raise JournalError(f"unknown trade kind code {kind}")
    return {
        "answer_id": answer_id,
        "kind": _TRADE_KINDS[kind],
        "consumer": _string(strings, consumer),
        "dataset": _string(strings, dataset),
        "low": low,
        "high": high,
        "alpha": alpha,
        "delta": delta,
        "epsilon_prime": epsilon_prime,
        "price": price,
        "store_version": store_version,
        "label": _inline_text(payload, _TRADE.size - _U32.size),
    }


def _array_bytes(values: Any, dtype: "np.dtype[Any]") -> bytes:
    return np.ascontiguousarray(values, dtype=dtype).tobytes()


def _roll_payload(seq: int, data: Dict[str, Any]) -> bytes:
    nodes = data["nodes"]
    parts = [_ROLL.pack(
        seq, data["shard_id"], data["epoch"], data["record_count"],
        data["rate"], len(nodes),
    )]
    for node_id, node_size, values, ranks in nodes:
        value_bytes = _array_bytes(values, _F64)
        rank_bytes = _array_bytes(ranks, _I64)
        if len(value_bytes) != len(rank_bytes):
            raise JournalError(
                f"node {node_id}: values and ranks must be parallel arrays"
            )
        parts.append(_NODE.pack(node_id, node_size, len(value_bytes) // 8))
        parts.append(value_bytes)
        parts.append(rank_bytes)
    return b"".join(parts)


def _charge_payload(
    seq: int, data: Dict[str, Any], dataset_id: int
) -> bytes:
    epochs = _array_bytes(data["epochs"], _I64)
    label = _text(data["label"])
    return b"".join((
        _CHARGE.pack(seq, dataset_id, data["epsilon"], len(epochs) // 8),
        epochs,
        _U32.pack(len(label)),
        label,
    ))


def encode_window(
    entries: "Iterable[WindowLogEntry]", strings: StringTable
) -> bytes:
    """Frames for window-log ``entries`` (``roll`` and ``charge``)."""
    out: List[bytes] = []
    for entry in entries:
        if entry.kind == "roll":
            out.append(frame(FRAME_ROLL, _roll_payload(entry.seq, entry.data)))
        else:
            dataset_id = strings.intern(entry.data["dataset"], out)
            out.append(frame(
                FRAME_CHARGE, _charge_payload(entry.seq, entry.data, dataset_id)
            ))
    return b"".join(out)


def _array(
    payload: bytes, at: int, count: int, dtype: "np.dtype[Any]"
) -> "np.ndarray[Any, Any]":
    if at + 8 * count > len(payload):
        raise JournalError("record length does not match its layout")
    array: "np.ndarray[Any, Any]" = np.frombuffer(
        payload, dtype=dtype, count=count, offset=at
    ).astype(dtype.newbyteorder("="))
    return array


def decode_roll(payload: bytes) -> Tuple[int, Dict[str, Any]]:
    """``(seq, data)`` of one ``ROLL`` payload; samples as numpy arrays."""
    seq, shard_id, epoch, record_count, rate, count = _ROLL.unpack_from(payload)
    at = _ROLL.size
    nodes: List[List[Any]] = []
    for _ in range(count):
        node_id, node_size, n = _NODE.unpack_from(payload, at)
        at += _NODE.size
        values = _array(payload, at, n, _F64)
        ranks = _array(payload, at + 8 * n, n, _I64)
        at += 16 * n
        nodes.append([node_id, node_size, values, ranks])
    if at != len(payload):
        raise JournalError("record length does not match its layout")
    return seq, {
        "shard_id": shard_id,
        "epoch": epoch,
        "record_count": record_count,
        "rate": rate,
        "nodes": nodes,
    }


def decode_charge(
    payload: bytes, strings: Sequence[str]
) -> Tuple[int, Dict[str, Any]]:
    """``(seq, data)`` of one ``CHARGE`` payload."""
    seq, dataset, epsilon, count = _CHARGE.unpack_from(payload)
    epochs = _array(payload, _CHARGE.size, count, _I64)
    return seq, {
        "dataset": _string(strings, dataset),
        "epochs": epochs.tolist(),
        "epsilon": epsilon,
        "label": _inline_text(payload, _CHARGE.size + 8 * count),
    }


# ---------------------------------------------------------------------- #
# The one frame reader                                                   #
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class LogScan(Generic[E]):
    """What :func:`read_log` found in a file.

    ``frames`` lists ``(type, start, end)`` of every kept frame, string
    frames included; ``end`` is the offset just past the last of them
    (0 when the file holds no whole header), ``size`` the file's length.
    ``end < size`` means a torn tail that the next append cuts off.
    """

    records: List[E]
    strings: List[str]
    frames: List[Tuple[int, int, int]]
    end: int
    size: int


def sniff(data: bytes, source: object) -> Optional[int]:
    """The log kind named by ``data``'s header; ``None`` when the file is
    empty or holds only a torn header."""
    if len(data) < _HEADER.size:
        if not (data == MAGIC[: len(data)] or data.startswith(MAGIC)):
            raise JournalError(f"{source}: not a repro journal (bad magic)")
        return None
    magic, version, log_kind = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise JournalError(f"{source}: not a repro journal (bad magic)")
    if version != FORMAT_VERSION:
        raise JournalError(
            f"{source}: unsupported journal format version {version} "
            f"(this reader understands {FORMAT_VERSION})"
        )
    if log_kind not in _LOG_NAMES:
        raise JournalError(f"{source}: unknown log kind {log_kind}")
    return int(log_kind)


def read_log(
    data: bytes,
    log_kind: int,
    decode: "Callable[[int, bytes, Sequence[str]], E]",
    source: object,
) -> "LogScan[E]":
    """Read every whole frame of a ``log_kind`` file.

    String frames build the table; every other frame goes through
    ``decode(type, payload, strings)``, which sees only the strings
    defined before it.  Applies the torn-tail rule (module docstring).
    """
    found = sniff(data, source)
    if found is None:
        if data != header(log_kind)[: len(data)]:
            raise JournalError(f"{source}: not a {_LOG_NAMES[log_kind]}")
        return LogScan([], [], [], 0, len(data))
    if found != log_kind:
        raise JournalError(
            f"{source}: holds a {_LOG_NAMES[found]}, "
            f"not a {_LOG_NAMES[log_kind]}"
        )
    records: List[E] = []
    strings: List[str] = []
    frames: List[Tuple[int, int, int]] = []
    size = len(data)
    pos = _HEADER.size
    whole = (0, 0, pos)  # frames, strings and end offset of the last record
    while pos < size:
        if size - pos < _HEAD.size:
            break  # torn inside a frame head
        length, frame_type, head_crc = _HEAD.unpack_from(data, pos)
        if head_crc != zlib.crc32(data[pos:pos + _KEY.size]):
            # A cut write leaves a prefix of good bytes, never a whole
            # head that fails its check: this is damage, wherever it is.
            raise JournalError(
                f"{source}: corrupt frame head at byte {pos} (CRC mismatch)"
            )
        crc_at = pos + _HEAD.size + length
        end = crc_at + _CRC.size
        if end > size:
            break  # short frame: torn mid-write
        payload = data[pos + _HEAD.size:crc_at]
        if _CRC.unpack_from(data, crc_at)[0] != zlib.crc32(payload):
            if end == size:
                break  # torn tail: the write never completed
            raise JournalError(
                f"{source}: corrupt frame at byte {pos} (CRC mismatch) "
                f"followed by {size - end} more bytes"
            )
        try:
            if frame_type == FRAME_STRING:
                (string_id,) = _U32.unpack_from(payload)
                if string_id != len(strings):
                    raise JournalError(
                        f"string id {string_id} defined out of order "
                        f"(expected {len(strings)})"
                    )
                strings.append(
                    payload[_U32.size:].decode("utf-8", "surrogatepass")
                )
            else:
                records.append(decode(frame_type, payload, strings))
        except JournalError as exc:
            raise JournalError(f"{source}: frame at byte {pos}: {exc}") from None
        except (struct.error, ValueError) as exc:
            raise JournalError(
                f"{source}: malformed frame at byte {pos}: {exc}"
            ) from None
        frames.append((frame_type, pos, end))
        pos = end
        if frame_type != FRAME_STRING:
            whole = (len(frames), len(strings), end)
    # A string is written in the same write as the record that first uses
    # it, so string frames after the last record belong to a torn write.
    kept, defined, end = whole
    return LogScan(records, strings[:defined], frames[:kept], end, size)


# ---------------------------------------------------------------------- #
# The shared append-only log                                             #
# ---------------------------------------------------------------------- #
class _FrameWriter:
    """The append side of one v2 file: header, torn-tail cut, strings."""

    def __init__(
        self,
        path: Path,
        log_kind: int,
        scan: "Optional[LogScan[Any]]" = None,
    ) -> None:
        if scan is None and path.exists() and path.stat().st_size > 0:
            raise JournalError(
                f"{path} already holds a {_LOG_NAMES[log_kind]}; "
                f"reopen it with load() to resume it"
            )
        self._log_kind = log_kind
        self.strings = StringTable(scan.strings if scan is not None else ())
        # Offset just past the last whole frame; a write starts there.
        self._end = scan.end if scan is not None else 0
        self._cut = scan is not None and scan.end != scan.size
        path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: "Optional[IO[bytes]]" = path.open("ab")

    def write(self, encode: "Callable[[StringTable], bytes]") -> None:
        """Append one batch as one write + flush; all of it or nothing
        (a failed write is cut off by the next one)."""
        if self._handle is None:
            raise JournalError("the journal is closed")
        mark = self.strings.mark()
        try:
            blob = encode(self.strings)
        except (struct.error, TypeError, AttributeError, KeyError) as exc:
            self.strings.rollback(mark)
            raise JournalError(f"unencodable journal record: {exc}") from exc
        except BaseException:
            self.strings.rollback(mark)
            raise
        if self._end == 0:
            blob = header(self._log_kind) + blob
        try:
            if self._cut:
                self._handle.truncate(self._end)
                self._cut = False
            self._handle.write(blob)
            self._handle.flush()
        except BaseException:
            # Part of the batch may be on disk: cut it off next time.
            self.strings.rollback(mark)
            self._cut = True
            raise
        self._end += len(blob)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class FramedLog(Generic[E]):
    """Append-only, thread-safe log of ``E`` entries in format v2.

    In memory by default; pass ``path`` to mirror every batch to a v2
    file as one write + flush (no fsync).  A path that already holds a
    log is refused: reopen it with :meth:`load`, which resumes the id
    sequence and the string table.  Subclasses fix the log kind and the
    record layout.
    """

    LOG_KIND: ClassVar[int]

    def __init__(self, path: "Optional[Union[str, Path]]" = None) -> None:
        self._lock = threading.Lock()
        self._entries: List[E] = []  # guarded-by: _lock
        self._next_id = 1  # guarded-by: _lock
        self._path: Optional[Path] = Path(path) if path is not None else None
        self._writer: Optional[_FrameWriter] = (  # guarded-by: _lock
            _FrameWriter(self._path, self.LOG_KIND)
            if self._path is not None else None
        )

    # Record layout hooks, one set per log kind ---------------------------
    @staticmethod
    def _encode(entries: Sequence[Any], strings: StringTable) -> bytes:
        raise NotImplementedError

    @staticmethod
    def _decode(
        frame_type: int, payload: bytes, strings: Sequence[str]
    ) -> Any:
        raise NotImplementedError

    @staticmethod
    def _id_of(entry: Any) -> int:
        raise NotImplementedError

    # Write path ---------------------------------------------------------
    def _commit(self, entries: List[E]) -> None:  # holds: _lock
        """Write ``entries`` (file-backed), then make them visible."""
        if self._writer is not None:
            encode = self._encode
            self._writer.write(lambda strings: encode(entries, strings))
        self._next_id += len(entries)
        self._entries.extend(entries)

    # Read path ----------------------------------------------------------
    def entries(self) -> Tuple[E, ...]:
        """Immutable snapshot of every entry, oldest first."""
        with self._lock:
            return tuple(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def path(self) -> Optional[Path]:
        """The backing v2 file, or ``None`` for an in-memory log."""
        return self._path

    def checksum(self) -> str:
        """SHA-256 of the v2 bytes a fresh file of these entries holds.

        In-memory and file-backed logs of the same entries agree.
        """
        entries = self.entries()
        strings = StringTable()
        digest = hashlib.sha256(header(self.LOG_KIND))
        for start in range(0, len(entries), 4096):
            digest.update(self._encode(entries[start:start + 4096], strings))
        return digest.hexdigest()

    def close(self) -> None:
        """Close the backing file (no-op for in-memory logs)."""
        with self._lock:
            if self._writer is not None:
                self._writer.close()

    def __enter__(self: L) -> L:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # Recovery entry point -----------------------------------------------
    @classmethod
    def read(cls, path: "Union[str, Path]") -> "LogScan[E]":
        """Read a v2 file without opening it for append."""
        source = Path(path)
        data = source.read_bytes() if source.exists() else b""
        scan = read_log(data, cls.LOG_KIND, cls._decode, source)
        for expected, entry in enumerate(scan.records, start=1):
            if cls._id_of(entry) != expected:
                raise JournalError(
                    f"{source}: entry {expected} carries id "
                    f"{cls._id_of(entry)}; ids must run 1, 2, 3, ..."
                )
        return scan

    @classmethod
    def load(cls: Type[L], path: "Union[str, Path]") -> L:
        """Re-open a file-backed log after a crash.

        Keeps every whole frame and resumes the id sequence after them.
        A torn last frame is dropped; any other corruption raises
        :class:`~repro.errors.JournalError`.  Loading only reads the file:
        the first append after it cuts the torn tail off.
        """
        source = Path(path)
        scan = cls.read(source)
        log = cls()
        with log._lock:
            log._path = source
            log._writer = _FrameWriter(source, cls.LOG_KIND, scan)
            log._entries.extend(scan.records)
            log._next_id = len(scan.records) + 1
        return log
