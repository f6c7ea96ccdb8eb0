"""Property tests: journal format v3 round-trips every entry bit-exactly.

Random trade records and window-log roll/charge entries go through a
file-backed log and back through :meth:`load`.  Floats are compared by
their ``struct`` bytes, so signed zeros, subnormals and (in sample
arrays) arbitrary NaN payloads must survive unchanged; strings may hold
any unicode, lone surrogates included.  The in-memory and file-backed
logs of the same entries must agree on :meth:`checksum`.
"""

from __future__ import annotations

import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability.journal import TradeJournal
from repro.streaming.journal import WindowLog

FLOATS = st.floats(allow_nan=False, allow_infinity=False)
NON_NEGATIVE = st.one_of(
    st.just(-0.0), st.just(5e-324), st.floats(min_value=0.0, allow_infinity=False)
)
TEXT = st.text(
    alphabet=st.one_of(
        st.characters(), st.sampled_from(("\ud800", "\udfff", "\x00"))
    ),
    max_size=24,
)
INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


@st.composite
def trade_records(draw):
    kind = draw(st.sampled_from(("release", "replay")))
    return {
        "kind": kind,
        "consumer": draw(TEXT),
        "dataset": draw(st.sampled_from(("d", "citypulse:0", "ü"))),
        "low": draw(FLOATS),
        "high": draw(FLOATS),
        "alpha": draw(FLOATS),
        "delta": draw(FLOATS),
        "epsilon_prime": (
            draw(NON_NEGATIVE) if kind == "release"
            else draw(st.sampled_from((0.0, -0.0)))
        ),
        "price": draw(NON_NEGATIVE),
        "store_version": draw(INT64),
        "label": draw(TEXT),
    }


def same_trade(a, b) -> bool:
    for name in ("low", "high", "alpha", "delta", "epsilon_prime", "price"):
        if bits(getattr(a, name)) != bits(getattr(b, name)):
            return False
    return (a.answer_id, a.kind, a.consumer, a.dataset, a.store_version,
            a.label) == (b.answer_id, b.kind, b.consumer, b.dataset,
                         b.store_version, b.label)


@settings(max_examples=60, deadline=None)
@given(batches=st.lists(st.lists(trade_records(), max_size=6), max_size=5))
def test_trade_records_round_trip_bit_exactly(batches):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "trades.journal"
        memory = TradeJournal()
        with TradeJournal(path=path) as journal:
            for batch in batches:
                journal.append_many(batch)
                memory.append_many(batch)
            written = journal.entries()
        loaded = TradeJournal.load(path)
        assert len(loaded) == len(written)
        assert all(map(same_trade, loaded.entries(), written))
        assert loaded.checksum() == memory.checksum() == journal.checksum()
        loaded.close()


def float_samples(draw, size: int) -> np.ndarray:
    """``size`` float64 values: drawn edge cases, then raw random bit
    patterns (NaN payloads included) for the bulk."""
    head = draw(st.lists(
        st.sampled_from((-0.0, 0.0, 5e-324, -2.2250738585072014e-308,
                         float("inf"), 1.5)),
        max_size=min(size, 4),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bulk = rng.integers(0, 2**64, size=size - len(head), dtype=np.uint64)
    return np.concatenate([np.array(head, dtype=np.float64),
                           bulk.view(np.float64)])


@st.composite
def roll_data(draw):
    nodes = []
    for _ in range(draw(st.integers(0, 3))):
        size = draw(st.sampled_from((0, 1, 7, 5_000)))
        ranks = np.arange(1, size + 1, dtype=np.int64) * draw(
            st.integers(1, 2**40)
        )
        nodes.append([draw(INT64), draw(INT64), float_samples(draw, size),
                      ranks])
    return {
        "shard_id": draw(INT64),
        "epoch": draw(INT64),
        "record_count": draw(INT64),
        "rate": draw(st.floats(allow_nan=False)),
        "nodes": nodes,
    }


@st.composite
def charge_data(draw):
    return {
        "dataset": draw(TEXT),
        "epochs": draw(st.lists(INT64, max_size=6)),
        "epsilon": draw(FLOATS),
        "label": draw(TEXT),
    }


WINDOW_ENTRIES = st.lists(
    st.one_of(
        st.tuples(st.just("roll"), roll_data()),
        st.tuples(st.just("charge"), charge_data()),
    ),
    max_size=5,
)


def same_data(kind: str, a, b) -> bool:
    if kind == "charge":
        return (
            (a["dataset"], a["epochs"], a["label"])
            == (b["dataset"], b["epochs"], b["label"])
            and bits(a["epsilon"]) == bits(b["epsilon"])
        )
    if (a["shard_id"], a["epoch"], a["record_count"]) != (
        b["shard_id"], b["epoch"], b["record_count"]
    ) or bits(a["rate"]) != bits(b["rate"]):
        return False
    if len(a["nodes"]) != len(b["nodes"]):
        return False
    for (id_a, size_a, values_a, ranks_a), (id_b, size_b, values_b, ranks_b) in zip(
        a["nodes"], b["nodes"]
    ):
        if (id_a, size_a) != (id_b, size_b):
            return False
        if np.asarray(values_a, np.float64).tobytes() != values_b.tobytes():
            return False
        if np.asarray(ranks_a, np.int64).tobytes() != ranks_b.tobytes():
            return False
    return True


@settings(max_examples=40, deadline=None)
@given(entries=WINDOW_ENTRIES)
def test_window_entries_round_trip_bit_exactly(entries):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "window.journal"
        memory = WindowLog()
        with WindowLog(path) as log:
            for kind, data in entries:
                log.append(kind, **data)
                memory.append(kind, **data)
        loaded = WindowLog.load(path)
        assert [e.seq for e in loaded.entries()] == list(
            range(1, len(entries) + 1)
        )
        for (kind, data), entry in zip(entries, loaded.entries()):
            assert entry.kind == kind
            assert same_data(kind, data, entry.data)
        assert loaded.checksum() == memory.checksum() == log.checksum()
        loaded.close()
