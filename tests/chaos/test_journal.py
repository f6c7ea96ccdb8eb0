"""Unit tests for the write-ahead trade journal."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.durability.journal import (
    JOURNAL_FORMAT,
    JOURNAL_VERSION,
    JournalEntry,
    TradeJournal,
)
from repro.errors import JournalError
from tests.chaos.conftest import journal_record


class TestAppend:
    def test_ids_are_monotone_from_one(self):
        journal = TradeJournal()
        first = journal.append(**journal_record())
        second = journal.append(**journal_record(kind="replay",
                                                 epsilon_prime=0.0))
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

    def test_entries_after(self):
        journal = TradeJournal()
        journal.append_many([journal_record() for _ in range(4)])
        suffix = journal.entries_after(2)
        assert [e.answer_id for e in suffix] == [3, 4]

    def test_entry_fields_round_trip_payload(self):
        entry = JournalEntry(answer_id=7, **journal_record())
        payload = entry.to_payload()
        assert payload["format"] == JOURNAL_FORMAT
        assert payload["version"] == JOURNAL_VERSION
        assert JournalEntry.from_payload(payload) == entry


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(JournalError):
            TradeJournal().append(**journal_record(kind="refund"))

    def test_replay_must_carry_zero_epsilon(self):
        with pytest.raises(JournalError):
            TradeJournal().append(
                **journal_record(kind="replay", epsilon_prime=0.01)
            )

    def test_negative_price_and_epsilon_rejected(self):
        with pytest.raises(JournalError):
            TradeJournal().append(**journal_record(price=-1.0))
        with pytest.raises(JournalError):
            TradeJournal().append(**journal_record(epsilon_prime=-0.01))

    @pytest.mark.parametrize(
        "field", ["low", "high", "alpha", "delta", "epsilon_prime", "price"]
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_numbers_rejected(self, field, bad):
        """Strict JSON has no NaN/Infinity: they never reach the books."""
        journal = TradeJournal()
        with pytest.raises(JournalError, match=field):
            journal.append(**journal_record(**{field: bad}))
        assert len(journal) == 0

    def test_non_finite_file_line_rejected_on_load(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with TradeJournal(path=path) as journal:
            journal.append_many([journal_record() for _ in range(2)])
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"price": 1.5', '"price": NaN')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="price"):
            TradeJournal.load(path)

    def test_wrong_envelope_rejected(self):
        payload = JournalEntry(answer_id=1, **journal_record()).to_payload()
        payload["format"] = "not-a-journal"
        with pytest.raises(JournalError):
            JournalEntry.from_payload(payload)


class TestFileBacked:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with TradeJournal(path=path) as journal:
            journal.append_many([journal_record(low=float(i))
                                 for i in range(3)])
            checksum = journal.checksum()
        loaded = TradeJournal.load(path)
        assert len(loaded) == 3
        assert loaded.checksum() == checksum
        assert loaded.last_answer_id == 3

    def test_load_resumes_id_sequence(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with TradeJournal(path=path) as journal:
            journal.append(**journal_record())
        loaded = TradeJournal.load(path)
        resumed = loaded.append(**journal_record())
        assert resumed.answer_id == 2
        loaded.close()

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with TradeJournal(path=path) as journal:
            journal.append_many([journal_record() for _ in range(2)])
        # Simulate a crash mid-write: a partial final line.
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"format": "repro.trade-jour')
        loaded = TradeJournal.load(path)
        assert len(loaded) == 2
        assert loaded.last_answer_id == 2

    def test_corrupt_middle_line_is_loud(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with TradeJournal(path=path) as journal:
            journal.append_many([journal_record() for _ in range(2)])
        lines = path.read_text().splitlines()
        lines[0] = "garbage {"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError):
            TradeJournal.load(path)

    def test_missing_file_loads_empty(self, tmp_path):
        loaded = TradeJournal.load(tmp_path / "never-written.jsonl")
        assert len(loaded) == 0
        assert loaded.last_answer_id == 0

    def test_lines_are_sorted_key_json(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with TradeJournal(path=path) as journal:
            journal.append(**journal_record())
        line = path.read_text().splitlines()[0]
        payload = json.loads(line)
        assert list(payload) == sorted(payload)


class TestChecksum:
    def test_checksum_tracks_content(self):
        a, b = TradeJournal(), TradeJournal()
        a.append(**journal_record())
        b.append(**journal_record())
        assert a.checksum() == b.checksum()
        b.append(**journal_record(kind="replay", epsilon_prime=0.0))
        assert a.checksum() != b.checksum()


def _reference_line(entry):
    """The original encoding: a deep ``asdict`` copy through ``json.dumps``."""
    return json.dumps(
        {**asdict(entry), "format": JOURNAL_FORMAT, "version": JOURNAL_VERSION},
        sort_keys=True,
    )


#: Records that stress the encoder: int and float bounds, signed zero,
#: exponent-form floats and non-ASCII text (escaped as ``ensure_ascii``).
BYTE_IDENTITY_RECORDS = [
    journal_record(),
    journal_record(low=0, high=10, store_version=0),
    journal_record(low=-0.0, high=0.0, epsilon_prime=0.0, price=0.0),
    journal_record(low=1e-17, high=2.5e300, alpha=1e-5, delta=0.999999),
    journal_record(epsilon_prime=1.2345678901234567e-08, price=123456789.125),
    journal_record(consumer="käufer-ü", label="größe:[0,1] ✓ \u2603 \"q\""),
    journal_record(kind="replay", epsilon_prime=0.0, consumer="買い手"),
]


class TestByteIdentity:
    def test_file_lines_match_reference_encoding(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with TradeJournal(path=path) as journal:
            entries = journal.append_many(BYTE_IDENTITY_RECORDS[:3])
            entries += journal.append_many(BYTE_IDENTITY_RECORDS[3:])
            checksum = journal.checksum()
        expected = "".join(_reference_line(e) + "\n" for e in entries)
        raw = path.read_bytes()
        assert raw == expected.encode("utf-8")
        assert raw.isascii()
        digest = hashlib.sha256()
        for line in raw.decode("utf-8").splitlines():
            digest.update(line.encode("utf-8"))
        assert checksum == digest.hexdigest()

    def test_payload_round_trips_through_load(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with TradeJournal(path=path) as journal:
            entries = journal.append_many(BYTE_IDENTITY_RECORDS)
            checksum = journal.checksum()
        loaded = TradeJournal.load(path)
        assert loaded.entries() == tuple(entries)
        assert loaded.checksum() == checksum
        loaded.close()
