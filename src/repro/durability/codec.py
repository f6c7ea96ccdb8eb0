"""Journal format v3: the one on-disk codec of both write-ahead logs.

The trade journal (:class:`~repro.durability.journal.TradeJournal`) and
the streaming window log (:class:`~repro.streaming.journal.WindowLog`)
share this binary format, this reader and this writer; only their record
layouts differ.  A v3 file is::

    header   magic b"\\x89RPJ" | u16 version (3) | u16 log kind
    frame*   u32 length | u8 type | u32 head crc | payload | u32 body crc

All integers are little-endian.  ``length`` counts the payload bytes;
the head crc (``zlib.crc32``) covers ``length`` and ``type``, the body
crc the payload.  The head check keeps a damaged length from posing as a
torn tail.  Frame types:

* ``STRING`` -- one string-table entry: ``u32 id`` + UTF-8 text.  Ids run
  0, 1, 2, ... in file order, and a string is defined in the same write as
  the first record that uses it.  The trade journal interns ``consumer``,
  ``dataset`` and label strings (row by row, in that order); the window
  log interns ``dataset``.
* ``TRADES`` -- one append's trades (a gateway dispatch, in the broker):
  ``u64`` answer id of the first, then one fixed-width 69-byte record
  per trade, ids running on by one: ``u8 kind | label mode << 4`` (kind
  0 release, 1 replay, 2 charge), ``u32 consumer id``, ``u32 dataset
  id``, six ``f64`` (``low, high, alpha, delta, epsilon_prime, price``),
  ``i64 store_version``, ``u32 label string id``.  Label mode 0 means
  *derived*: the label is ``f"{consumer}:[{low},{high}]"``, rebuilt on
  read from the record itself, and the id is 0; mode 1 is the derived
  label plus ``"@"`` and the string (a streaming release's window id);
  mode 2 is the string itself (a ``charge`` row's label, or any label
  that is not of the derived form).
* ``ROLL`` -- one shard's sealed epoch: ``u64 seq``, ``i64 shard_id,
  epoch, record_count``, ``f64 rate``, ``u32`` node count, then per node
  ``i64 node_id, node_size``, ``u32 n`` and the raw ``n`` sample values
  (``f64``) and ranks (``i64``).
* ``CHARGE`` -- one window release's per-epoch ε spend: ``u64 seq``,
  ``u32 dataset id``, ``f64 epsilon``, ``u32`` epoch count, the epochs as
  ``i64``, then the ``label`` inline as ``u32`` length + UTF-8.

Torn-tail rule: a writer appends whole frames, one write per batch, and
a crash can cut that write anywhere.  On load, a last frame that is short
or fails its CRC is dropped -- for a ``TRADES`` frame, its whole
dispatch, none of which was released (journal-before-release) -- and so
are string frames after the last record frame (they were written for the
frame the crash cut); a bad frame followed by more data raises
:class:`~repro.errors.JournalError`.  Loading only reads; the first
append after a load cuts the torn tail off and resumes the string table,
so the file stays byte-identical to an uninterrupted log of the same
appends.  A v2 (or v1) file is refused with a version error.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
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
import numpy.typing as npt

from repro.errors import JournalError
from repro.records import FLOAT_COLUMNS, KINDS, RELEASE, DispatchRecord, label_of

if TYPE_CHECKING:
    from repro.streaming.journal import WindowLogEntry

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "TRADE_LOG",
    "WINDOW_LOG",
    "FRAME_STRING",
    "FRAME_TRADES",
    "FRAME_ROLL",
    "FRAME_CHARGE",
    "RECORD_SIZE",
    "FramedLog",
    "LogScan",
    "StringTable",
    "decode_charge",
    "decode_roll",
    "decode_trades",
    "encode_trades",
    "encode_window",
    "frame",
    "header",
    "read_log",
    "sniff",
    "string_frame",
]

MAGIC = b"\x89RPJ"
FORMAT_VERSION = 3

#: Log kinds, stored in the header: a reader refuses the other log's file.
TRADE_LOG = 1
WINDOW_LOG = 2
_LOG_NAMES = {TRADE_LOG: "trade journal", WINDOW_LOG: "window log"}

FRAME_STRING = 1
FRAME_TRADES = 2
FRAME_ROLL = 3
FRAME_CHARGE = 4

_HEADER = struct.Struct("<4sHH")
_KEY = struct.Struct("<IB")  # payload length, frame type
_HEAD = struct.Struct("<IBI")  # ... and the crc32 of those five bytes
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_CRC = _U32
_ROLL = struct.Struct("<QqqqdI")
_NODE = struct.Struct("<qqI")
_CHARGE = struct.Struct("<QIdI")

#: One trade of a ``TRADES`` frame, packed (no padding).
_RECORD = np.dtype([
    ("kind", "u1"),
    ("consumer", "<u4"),
    ("dataset", "<u4"),
    ("low", "<f8"),
    ("high", "<f8"),
    ("alpha", "<f8"),
    ("delta", "<f8"),
    ("epsilon_prime", "<f8"),
    ("price", "<f8"),
    ("store_version", "<i8"),
    ("label", "<u4"),
])
RECORD_SIZE = _RECORD.itemsize

#: Label modes, in the high nibble of a record's kind byte.
_DERIVED, _SUFFIXED, _EXPLICIT = 0, 1, 2

_F64 = np.dtype("<f8")
_I64 = np.dtype("<i8")

E = TypeVar("E")
L = TypeVar("L", bound="FramedLog[Any]")


def header(log_kind: int) -> bytes:
    """The 8-byte file header of a v3 log of ``log_kind``."""
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
def _string_ids(
    names: Sequence[str], strings: StringTable
) -> "Optional[npt.NDArray[np.uint32]]":
    """The ids of ``names``, or ``None`` if one is not interned yet."""
    ids = strings.ids
    found = [ids.get(name) for name in names]
    if None in found:
        return None
    return np.array(found, dtype=np.uint32)


def _label_texts(
    record: DispatchRecord,
) -> "Tuple[npt.NDArray[np.uint8], Optional[List[Optional[str]]]]":
    """Each row's label mode, and the string a non-derived mode refers to.

    The kernel's rows are derived (the window id suffixes its streaming
    releases) without formatting anything; a caller's label is reduced
    to the derived form when it matches it, so the bytes depend only on
    the entries, never on who built them.
    """
    size = len(record)
    window = record.window
    if window is not None:
        modes = (record.kind == RELEASE).astype(np.uint8) * np.uint8(_SUFFIXED)
    else:
        modes = np.zeros(size, dtype=np.uint8)
    explicit = record.labels
    if explicit is None and window is None:
        return modes, None
    texts: List[Optional[str]] = [
        window if mode else None for mode in modes.tolist()
    ]
    if explicit is not None:
        modes = modes.copy()
        for row, text in enumerate(explicit):
            if text is None:
                continue
            base = label_of(
                record.consumers[int(record.consumer[row])],
                float(record.low[row]),
                float(record.high[row]),
            )
            if text == base:
                modes[row], texts[row] = _DERIVED, None
            elif text.startswith(base + "@"):
                modes[row], texts[row] = _SUFFIXED, text[len(base) + 1:]
            else:
                modes[row], texts[row] = _EXPLICIT, text
    return modes, texts


def _intern_in_row_order(
    record: DispatchRecord,
    texts: "Optional[List[Optional[str]]]",
    strings: StringTable,
    out: List[bytes],
) -> None:
    """Intern the record's new strings in row order: per row its
    consumer, its dataset, then its label string -- so ids never depend
    on how rows were grouped into appends."""
    firsts: List[Tuple[int, int, str]] = []
    for slot, (codes, names) in enumerate((
        (record.consumer, record.consumers), (record.dataset, record.datasets),
    )):
        if _string_ids(names, strings) is not None:
            continue
        _, rows = np.unique(codes, return_index=True)
        firsts.extend(
            (int(row), slot, names[int(codes[row])]) for row in rows.tolist()
        )
    if texts is not None:
        firsts.extend(
            (row, 2, text) for row, text in enumerate(texts)
            if text is not None and text not in strings.ids
        )
    for _, _, text in sorted(firsts):
        strings.intern(text, out)


def _record_bytes(
    record: DispatchRecord, strings: StringTable, out: List[bytes]
) -> bytes:
    """The fixed-width records of ``record``; string frames go to ``out``."""
    modes, texts = _label_texts(record)
    consumers = _string_ids(record.consumers, strings)
    datasets = _string_ids(record.datasets, strings)
    if consumers is None or datasets is None or texts is not None:
        _intern_in_row_order(record, texts, strings, out)
        consumers = _string_ids(record.consumers, strings)
        datasets = _string_ids(record.datasets, strings)
        assert consumers is not None and datasets is not None
    packed = np.zeros(len(record), dtype=_RECORD)
    packed["kind"] = record.kind | (modes << np.uint8(4))
    packed["consumer"] = consumers[record.consumer]
    packed["dataset"] = datasets[record.dataset]
    for name in FLOAT_COLUMNS:
        packed[name] = getattr(record, name)
    packed["store_version"] = record.store_version
    if texts is not None:
        ids = strings.ids
        packed["label"] = [0 if text is None else ids[text] for text in texts]
    return packed.tobytes()


def encode_trades(
    chunks: "Iterable[Tuple[int, DispatchRecord]]", strings: StringTable
) -> bytes:
    """One ``TRADES`` frame of ``chunks`` -- ``(first answer id, record)``
    pairs with consecutive ids -- preceded by the strings they define.

    The broker's hot path: no per-row object, pack, CRC or text; one
    frame per call, whatever the number of rows.
    """
    out: List[bytes] = []
    body: List[bytes] = []
    for first_id, record in chunks:
        if not len(record):
            continue
        if not body:
            body.append(_U64.pack(first_id))
        body.append(_record_bytes(record, strings, out))
    if body:
        out.append(frame(FRAME_TRADES, b"".join(body)))
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


def _first_use_codes(
    ids: "npt.NDArray[np.uint32]", strings: Sequence[str]
) -> Tuple["npt.NDArray[np.intp]", List[str]]:
    """Codes of string ``ids`` in first-use order, and their names."""
    if len(ids) and int(ids.max()) >= len(strings):
        raise JournalError(
            f"string id {int(ids.max())} used before it is defined"
        )
    distinct, first, inverse = np.unique(
        ids, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    return rank[inverse.reshape(-1)], [strings[int(distinct[j])] for j in order]


def decode_trades(
    payload: bytes, strings: Sequence[str]
) -> Tuple[int, DispatchRecord]:
    """``(first answer id, record)`` of one ``TRADES`` payload."""
    rows, rest = divmod(len(payload) - _U64.size, _RECORD.itemsize)
    if rows < 1 or rest:
        raise JournalError("record length does not match its layout")
    (first_id,) = _U64.unpack_from(payload)
    packed = np.frombuffer(payload, dtype=_RECORD, offset=_U64.size)
    kinds = packed["kind"] & np.uint8(0x0F)
    modes = packed["kind"] >> np.uint8(4)
    if int(kinds.max()) >= len(KINDS):
        raise JournalError(f"unknown trade kind code {int(kinds.max())}")
    if int(modes.max()) > _EXPLICIT:
        raise JournalError(f"unknown label mode {int(modes.max())}")
    consumer, consumers = _first_use_codes(packed["consumer"], strings)
    dataset, datasets = _first_use_codes(packed["dataset"], strings)
    record = DispatchRecord(
        kind=kinds,
        consumer=consumer,
        consumers=consumers,
        dataset=dataset,
        datasets=datasets,
        low=packed["low"],
        high=packed["high"],
        alpha=packed["alpha"],
        delta=packed["delta"],
        epsilon_prime=packed["epsilon_prime"],
        price=packed["price"],
        store_version=packed["store_version"],
    )
    if modes.any():
        labels: List[Optional[str]] = [None] * rows
        refs = packed["label"].tolist()
        for row in np.flatnonzero(modes).tolist():
            text = _string(strings, refs[row])
            if modes[row] == _SUFFIXED:
                text = f"{record.label(row)}@{text}"
            labels[row] = text
        record.labels = labels
    record.check(JournalError)
    return first_id, record


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

    ``chunks`` holds the entries of each kept record frame (a trade
    journal's ``TRADES`` frame holds one append's); ``frames`` lists
    ``(type, start, end)`` of every kept frame, string frames included;
    ``end`` is the offset just past the last of them (0 when the file
    holds no whole header), ``size`` the file's length.  ``end < size``
    means a torn tail that the next append cuts off.
    """

    chunks: List[Sequence[E]]
    strings: List[str]
    frames: List[Tuple[int, int, int]]
    end: int
    size: int

    @functools.cached_property
    def records(self) -> List[E]:
        """Every entry, oldest first."""
        return list(itertools.chain.from_iterable(self.chunks))


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
    decode: "Callable[[int, bytes, Sequence[str]], Sequence[E]]",
    source: object,
) -> "LogScan[E]":
    """Read every whole frame of a ``log_kind`` file.

    String frames build the table; every other frame goes through
    ``decode(type, payload, strings)``, which sees only the strings
    defined before it and returns the frame's entries.  Applies the
    torn-tail rule (module docstring).
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
    chunks: List[Sequence[E]] = []
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
                chunks.append(decode(frame_type, payload, strings))
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
    return LogScan(chunks, strings[:defined], frames[:kept], end, size)


# ---------------------------------------------------------------------- #
# The shared append-only log                                             #
# ---------------------------------------------------------------------- #
class _FrameWriter:
    """The append side of one v3 file: header, torn-tail cut, strings."""

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
    """Append-only, thread-safe log of ``E`` entries in format v3.

    In memory by default; pass ``path`` to mirror every batch to a v3
    file as one write + flush (no fsync).  A path that already holds a
    log is refused: reopen it with :meth:`load`, which resumes the id
    sequence and the string table.  Entries are kept as the chunks they
    were appended in; subclasses fix the log kind, the chunk type and
    the record layout.
    """

    LOG_KIND: ClassVar[int]

    def __init__(self, path: "Optional[Union[str, Path]]" = None) -> None:
        self._lock = threading.Lock()
        self._chunks: List[Sequence[E]] = []  # guarded-by: _lock
        self._next_id = 1  # guarded-by: _lock
        self._path: Optional[Path] = Path(path) if path is not None else None
        self._writer: Optional[_FrameWriter] = (  # guarded-by: _lock
            _FrameWriter(self._path, self.LOG_KIND)
            if self._path is not None else None
        )

    # Record layout hooks, one set per log kind ---------------------------
    @staticmethod
    def _encode(chunks: Sequence[Any], strings: StringTable) -> bytes:
        """The frames of ``chunks`` (consecutive, oldest first)."""
        raise NotImplementedError

    @staticmethod
    def _decode(
        frame_type: int, payload: bytes, strings: Sequence[str]
    ) -> Sequence[Any]:
        """The entries of one record frame."""
        raise NotImplementedError

    @staticmethod
    def _first_id(chunk: Any) -> int:
        """The id of a chunk's first entry."""
        raise NotImplementedError

    # Write path ---------------------------------------------------------
    def _commit(self, chunk: Sequence[E]) -> None:  # holds: _lock
        """Write ``chunk`` (file-backed), then make it visible."""
        if self._writer is not None:
            encode = self._encode
            self._writer.write(lambda strings: encode([chunk], strings))
        self._next_id += len(chunk)
        if len(chunk):
            self._chunks.append(chunk)

    # Read path ----------------------------------------------------------
    def entries(self) -> Tuple[E, ...]:
        """Immutable snapshot of every entry, oldest first."""
        with self._lock:
            chunks = list(self._chunks)
        return tuple(itertools.chain.from_iterable(chunks))

    def __len__(self) -> int:
        with self._lock:
            return self._next_id - 1

    @property
    def path(self) -> Optional[Path]:
        """The backing v3 file, or ``None`` for an in-memory log."""
        return self._path

    def checksum(self) -> str:
        """SHA-256 of the v3 bytes a fresh file holds after appending
        every entry in one call.

        It depends only on the entries, never on how they were grouped
        into appends, and in-memory and file-backed logs of the same
        entries agree.  A file written by several appends holds the same
        entries in more frames, so its own SHA-256 differs.
        """
        with self._lock:
            chunks = list(self._chunks)
        blob = self._encode(chunks, StringTable())
        return hashlib.sha256(header(self.LOG_KIND) + blob).hexdigest()

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
        """Read a v3 file without opening it for append."""
        source = Path(path)
        data = source.read_bytes() if source.exists() else b""
        scan = read_log(data, cls.LOG_KIND, cls._decode, source)
        expected = 1
        for chunk in scan.chunks:
            if cls._first_id(chunk) != expected:
                raise JournalError(
                    f"{source}: entry {expected} carries id "
                    f"{cls._first_id(chunk)}; ids must run 1, 2, 3, ..."
                )
            expected += len(chunk)
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
            log._chunks.extend(scan.chunks)
            log._next_id = sum(len(chunk) for chunk in scan.chunks) + 1
        return log
