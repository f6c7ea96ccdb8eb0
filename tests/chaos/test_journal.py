"""Unit tests for the write-ahead trade journal."""

from __future__ import annotations

import hashlib
import math
import struct
import zlib
from types import SimpleNamespace

import pytest

from repro.durability import codec
from repro.durability.journal import (
    JOURNAL_FORMAT,
    JOURNAL_VERSION,
    JournalEntry,
    TradeJournal,
)
from repro.errors import JournalError
from repro.records import DispatchRecord
from tests.chaos.conftest import journal_record


class TestAppend:
    def test_ids_are_monotone_from_one(self):
        journal = TradeJournal()
        first = journal.append_many([journal_record()])[0]
        second = journal.append_many(
            [journal_record(kind="replay", epsilon_prime=0.0)]
        )[0]
        assert first.answer_id == 1
        assert second.answer_id == 2
        assert journal.last_answer_id == 2

    def test_append_many_is_contiguous_and_ordered(self):
        journal = TradeJournal()
        entries = journal.append_many(
            [journal_record(low=float(i)) for i in range(5)]
        )
        assert [e.answer_id for e in entries] == [1, 2, 3, 4, 5]
        assert [e.low for e in journal.entries()] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert len(journal) == 5

    def test_entry_fields_round_trip_payload(self):
        entry = JournalEntry(answer_id=7, **journal_record())
        payload = entry.to_payload()
        assert payload["format"] == JOURNAL_FORMAT
        assert payload["version"] == JOURNAL_VERSION
        assert JournalEntry.from_payload(payload) == entry


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(JournalError):
            TradeJournal().append_many([journal_record(kind="refund")])

    def test_replay_must_carry_zero_epsilon(self):
        with pytest.raises(JournalError):
            TradeJournal().append_many(
                [journal_record(kind="replay", epsilon_prime=0.01)]
            )

    def test_negative_price_and_epsilon_rejected(self):
        with pytest.raises(JournalError):
            TradeJournal().append_many([journal_record(price=-1.0)])
        with pytest.raises(JournalError):
            TradeJournal().append_many([journal_record(epsilon_prime=-0.01)])

    @pytest.mark.parametrize(
        "field", ["low", "high", "alpha", "delta", "epsilon_prime", "price"]
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_numbers_rejected(self, field, bad):
        """Strict JSON has no NaN/Infinity: they never reach the books."""
        journal = TradeJournal()
        with pytest.raises(JournalError, match=field):
            journal.append_many([journal_record(**{field: bad})])
        assert len(journal) == 0

    def test_non_finite_file_line_rejected_on_load(self, tmp_path):
        """A CRC-valid record holding NaN never reaches the books."""
        path = tmp_path / "journal.bin"
        entry = SimpleNamespace(answer_id=1, **journal_record())
        poisoned = SimpleNamespace(
            answer_id=2, **journal_record(price=float("nan"))
        )
        path.write_bytes(reference_file([[entry, poisoned]]))
        with pytest.raises(JournalError, match="price"):
            TradeJournal.load(path)

    def test_wrong_envelope_rejected(self):
        payload = JournalEntry(answer_id=1, **journal_record()).to_payload()
        payload["format"] = "not-a-journal"
        with pytest.raises(JournalError):
            JournalEntry.from_payload(payload)


class TestFileBacked:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "journal.bin"
        with TradeJournal(path=path) as journal:
            journal.append_many([journal_record(low=float(i))
                                 for i in range(3)])
            checksum = journal.checksum()
        with TradeJournal.load(path) as loaded:
            assert len(loaded) == 3
            assert loaded.checksum() == checksum
            assert loaded.last_answer_id == 3
        assert hashlib.sha256(path.read_bytes()).hexdigest() == checksum

    def test_load_resumes_id_sequence(self, tmp_path):
        path = tmp_path / "journal.bin"
        with TradeJournal(path=path) as journal:
            journal.append_many([journal_record()])
        loaded = TradeJournal.load(path)
        resumed = loaded.append_many([journal_record()])[0]
        assert resumed.answer_id == 2
        loaded.close()

    def test_load_resumes_the_string_table(self, tmp_path):
        path = tmp_path / "journal.bin"
        def trade(consumer):
            return journal_record(consumer=consumer, label=f"{consumer}:[0.0,10.0]")

        with TradeJournal(path=path) as journal:
            journal.append_many([trade("a")])
        with TradeJournal.load(path) as loaded:
            loaded.append_many([trade("b")])
            loaded.append_many([trade("a")])
            checksum = loaded.checksum()
        # One definition per string, ids in first-use order across the
        # reopen: the file is byte-identical to an uninterrupted one.
        assert TradeJournal.read(path).strings == ["a", "default", "b"]
        uninterrupted = tmp_path / "uninterrupted.bin"
        with TradeJournal(path=uninterrupted) as journal:
            for consumer in ("a", "b", "a"):
                journal.append_many([trade(consumer)])
            assert journal.checksum() == checksum
        assert path.read_bytes() == uninterrupted.read_bytes()
        reloaded = TradeJournal.load(path)
        assert [e.consumer for e in reloaded.entries()] == ["a", "b", "a"]
        reloaded.close()

    def test_existing_journal_is_refused_without_load(self, tmp_path):
        path = tmp_path / "journal.bin"
        with TradeJournal(path=path) as journal:
            journal.append_many([journal_record()])
        with pytest.raises(JournalError, match="load"):
            TradeJournal(path=path)
        with TradeJournal.load(path) as loaded:
            assert loaded.last_answer_id == 1

    def test_invalid_record_journals_none_of_its_batch(self, tmp_path):
        path = tmp_path / "journal.bin"
        with TradeJournal(path=path) as journal:
            journal.append_many([journal_record()])
            with pytest.raises(JournalError):
                journal.append_many(
                    [journal_record(consumer="new"), journal_record(price=-1.0)]
                )
            assert journal.append_many([journal_record()])[0].answer_id == 2
        loaded = TradeJournal.load(path)
        assert [e.answer_id for e in loaded.entries()] == [1, 2]
        assert b"new" not in path.read_bytes()
        loaded.close()

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "journal.bin"
        with TradeJournal(path=path) as journal:
            journal.append_many([journal_record() for _ in range(2)])
        whole = path.read_bytes()
        # Simulate a crash mid-write: the first half of one more frame.
        third = codec.encode_trades(
            [(3, DispatchRecord.from_rows([journal_record()]))],
            codec.StringTable(["c1", "default"]),
        )
        with path.open("ab") as handle:
            handle.write(third[: len(third) // 2])
        loaded = TradeJournal.load(path)
        assert len(loaded) == 2
        assert loaded.last_answer_id == 2
        loaded.append_many([journal_record()])
        loaded.close()
        assert path.read_bytes().startswith(whole)
        with TradeJournal.load(path) as reloaded:
            assert reloaded.last_answer_id == 3

    def test_corrupt_middle_line_is_loud(self, tmp_path):
        """A CRC mismatch with more frames after it is corruption, not a
        torn tail: load refuses the file."""
        path = tmp_path / "journal.bin"
        with TradeJournal(path=path) as journal:
            journal.append_many([journal_record() for _ in range(2)])
            journal.append_many([journal_record() for _ in range(2)])
        data = bytearray(path.read_bytes())
        _, start, end = TradeJournal.read(path).frames[2]
        data[(start + end) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(JournalError, match="CRC"):
            TradeJournal.load(path)

    def test_damaged_length_is_not_a_torn_tail(self, tmp_path):
        """A length that points past the end would pass for a torn write;
        the head's own CRC exposes it."""
        path = tmp_path / "journal.bin"
        with TradeJournal(path=path) as journal:
            journal.append_many([journal_record() for _ in range(2)])
        data = bytearray(path.read_bytes())
        data[len(codec.header(codec.TRADE_LOG)) + 3] = 0x7F
        path.write_bytes(bytes(data))
        with pytest.raises(JournalError, match="frame head"):
            TradeJournal.load(path)

    def test_missing_file_loads_empty(self, tmp_path):
        loaded = TradeJournal.load(tmp_path / "never-written.bin")
        assert len(loaded) == 0
        assert loaded.last_answer_id == 0

    def test_file_starts_with_the_v3_header(self, tmp_path):
        path = tmp_path / "journal.bin"
        with TradeJournal(path=path) as journal:
            journal.append_many([journal_record()])
        assert path.read_bytes()[:8] == b"\x89RPJ\x03\x00\x01\x00"

    @pytest.mark.parametrize(
        "head, match",
        [
            (b"JUNK\x02\x00\x01\x00", "magic"),
            (b"\x89RPJ\x01\x00\x01\x00", "version 1"),
            (b"\x89RPJ\x02\x00\x01\x00", "version 2"),
            # A v2 file is refused for its version before its log kind.
            (b"\x89RPJ\x02\x00\x02\x00", "version 2"),
            (b"\x89RPJ\x04\x00\x01\x00", "version 4"),
            (b"\x89RPJ\x03\x00\x02\x00", "window log"),
            (b'{"format"', "magic"),
        ],
    )
    def test_wrong_magic_or_version_rejected(self, tmp_path, head, match):
        path = tmp_path / "journal.bin"
        with TradeJournal(path=path) as journal:
            journal.append_many([journal_record()])
        path.write_bytes(head + path.read_bytes()[8:])
        with pytest.raises(JournalError, match=match):
            TradeJournal.load(path)


class TestChecksum:
    def test_checksum_tracks_content(self):
        a, b = TradeJournal(), TradeJournal()
        a.append_many([journal_record()])
        b.append_many([journal_record()])
        assert a.checksum() == b.checksum()
        b.append_many([journal_record(kind="replay", epsilon_prime=0.0)])
        assert a.checksum() != b.checksum()


def _reference_frame(frame_type, payload):
    key = struct.pack("<IB", len(payload), frame_type)
    return (key + struct.pack("<I", zlib.crc32(key)) + payload
            + struct.pack("<I", zlib.crc32(payload)))


def reference_file(appends):
    """An independent v3 encoder: what a trade journal must hold, byte
    for byte, after ``appends`` (one list of entries per append)."""
    out = [b"\x89RPJ" + struct.pack("<HH", 3, 1)]
    ids = {}

    def string_id(text):
        if text not in ids:
            ids[text] = len(ids)
            out.append(_reference_frame(
                1, struct.pack("<I", ids[text]) + text.encode("utf-8")
            ))
        return ids[text]

    for entries in appends:
        body = [struct.pack("<Q", entries[0].answer_id)]
        for e in entries:
            consumer, dataset = string_id(e.consumer), string_id(e.dataset)
            base = f"{e.consumer}:[{float(e.low)},{float(e.high)}]"
            if e.label == base:
                mode, label = 0, 0  # derived on read
            elif e.label.startswith(base + "@"):
                mode, label = 1, string_id(e.label[len(base) + 1:])
            else:
                mode, label = 2, string_id(e.label)
            kind = ("release", "replay", "charge").index(e.kind)
            body.append(struct.pack(
                "<BIIddddddqI", kind | mode << 4, consumer, dataset, e.low,
                e.high, e.alpha, e.delta, e.epsilon_prime, e.price,
                e.store_version, label,
            ))
        out.append(_reference_frame(2, b"".join(body)))
    return b"".join(out)


#: Records that stress the encoder: int and float bounds, signed zero,
#: exponent-form floats and non-ASCII text.
BYTE_IDENTITY_RECORDS = [
    journal_record(),
    journal_record(low=0, high=10, store_version=0),
    journal_record(low=-0.0, high=0.0, epsilon_prime=0.0, price=0.0),
    journal_record(low=1e-17, high=2.5e300, alpha=1e-5, delta=0.999999),
    journal_record(epsilon_prime=1.2345678901234567e-08, price=123456789.125),
    journal_record(consumer="käufer-ü", label="größe:[0,1] ✓ \u2603 \"q\""),
    journal_record(kind="replay", epsilon_prime=0.0, consumer="買い手"),
]

#: SHA-256 of the v3 file holding BYTE_IDENTITY_RECORDS in two appends
#: (the first three, then the rest): pins the format.
GOLDEN_SHA256 = (
    "d68e9ccc202b1798b66686c3375fe3d8f42c75ce3991afc77fe08b8adf0259ee"
)


class TestByteIdentity:
    def test_file_bytes_match_golden_v3_encoding(self, tmp_path):
        path = tmp_path / "journal.bin"
        with TradeJournal(path=path) as journal:
            first = journal.append_many(BYTE_IDENTITY_RECORDS[:3])
            second = journal.append_many(BYTE_IDENTITY_RECORDS[3:])
            checksum = journal.checksum()
        entries = list(first) + list(second)
        raw = path.read_bytes()
        assert raw == reference_file([first, second])
        assert hashlib.sha256(raw).hexdigest() == GOLDEN_SHA256
        # The checksum is the file of the same entries in one append.
        assert checksum == hashlib.sha256(reference_file([entries])).hexdigest()
        # Signed zero keeps its sign bit; strings are interned once each.
        assert struct.pack("<d", -0.0) in raw
        for text in ("default", "käufer-ü", "買い手"):
            assert raw.count(text.encode("utf-8")) == 1

    def test_payload_round_trips_through_load(self, tmp_path):
        path = tmp_path / "journal.bin"
        with TradeJournal(path=path) as journal:
            entries = journal.append_many(BYTE_IDENTITY_RECORDS)
            checksum = journal.checksum()
        loaded = TradeJournal.load(path)
        assert loaded.entries() == tuple(entries)
        assert math.copysign(1.0, loaded.entries()[2].low) == -1.0
        assert loaded.checksum() == checksum
        loaded.close()


def _kernel_record(rows, window=None):
    """A record as the settlement kernel builds it: labels derived."""
    kinds = {"release": 0, "replay": 1}
    return DispatchRecord(
        kind=[kinds[kind] for kind, *_ in rows],
        consumer=[0] * len(rows),
        consumers=[rows[0][1]],
        dataset=[0] * len(rows),
        datasets=["default"],
        low=[low for _, _, low, _ in rows],
        high=[high for *_, high in rows],
        alpha=[0.1] * len(rows),
        delta=[0.5] * len(rows),
        epsilon_prime=[0.02 if kind == "release" else 0.0 for kind, *_ in rows],
        price=[1.5] * len(rows),
        store_version=[3] * len(rows),
        window=window,
    )


class TestDerivedLabels:
    """Kernel labels are not stored: they are rebuilt on read, bit for
    bit, from the consumer, the range and the window."""

    @pytest.mark.parametrize(
        "consumer, low, high, label",
        [
            ("c1", -0.0, 1e-17, "c1:[-0.0,1e-17]"),
            ("c1", 0.0, 2.5e300, "c1:[0.0,2.5e+300]"),
            ("käufer-ü", 1.5, 2.5, "käufer-ü:[1.5,2.5]"),
            ("買い手", 5e-324, 1.7976931348623157e308,
             "買い手:[5e-324,1.7976931348623157e+308]"),
        ],
    )
    def test_derived_label_round_trips(self, tmp_path, consumer, low, high, label):
        path = tmp_path / "journal.bin"
        with TradeJournal(path=path) as journal:
            (entry,) = journal.append_many(
                _kernel_record([("release", consumer, low, high)])
            )
        assert entry.label == label
        assert label.encode("utf-8") not in path.read_bytes()
        with TradeJournal.load(path) as loaded:
            (decoded,) = loaded.entries()
        assert decoded == entry
        assert struct.pack("<d", decoded.low) == struct.pack("<d", low)

    def test_a_window_suffixes_releases_only(self, tmp_path):
        path = tmp_path / "journal.bin"
        rows = [("release", "c1", 1.0, 2.0), ("replay", "c1", 1.0, 2.0)]
        with TradeJournal(path=path) as journal:
            entries = journal.append_many(_kernel_record(rows, window="w7@e3"))
        assert [e.label for e in entries] == ["c1:[1.0,2.0]@w7@e3", "c1:[1.0,2.0]"]
        with TradeJournal.load(path) as loaded:
            assert loaded.entries() == tuple(entries)
        # The window id is one interned string; the labels are not stored.
        assert path.read_bytes().count(b"w7@e3") == 1
        assert b"c1:[" not in path.read_bytes()

    def test_explicit_and_charge_labels_are_kept(self, tmp_path):
        path = tmp_path / "journal.bin"
        records = [
            journal_record(label="a label of its own"),
            journal_record(low=0, high=10, label="c1:[0,10]"),  # int bounds
            journal_record(label="c1:[0.0,10.0]@w1"),
            journal_record(label="c1:[0.0,10.0]"),  # the derived form
            journal_record(kind="charge", consumer="", price=0.0,
                           label="histogram[0,10]x4"),
        ]
        with TradeJournal(path=path) as journal:
            entries = journal.append_many(records)
        assert [e.label for e in entries] == [r["label"] for r in records]
        raw = path.read_bytes()
        for text in (b"a label of its own", b"c1:[0,10]", b"w1",
                     b"histogram[0,10]x4"):
            assert raw.count(text) == 1
        assert b"c1:[0.0,10.0]" not in raw
        with TradeJournal.load(path) as loaded:
            assert [e.label for e in loaded.entries()] == [
                r["label"] for r in records
            ]
            # Same entries, same checksum, however the labels came in.
            assert loaded.checksum() == journal.checksum()
