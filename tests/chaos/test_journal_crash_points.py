"""Crash points of both file-backed write-ahead logs, at every frame.

A file-backed log writes each batch -- a gateway dispatch's trades (one
``TRADES`` frame), one window roll or charge -- as one write of whole
journal-format-v3 frames.  A crash can cut the file anywhere in such a
write.  These tests truncate a journal at every frame boundary, in the
middle of every frame (torn headers and torn string-table frames
included) and at every byte of the first and last ``TRADES`` frame, and
check that:

* loading keeps exactly the whole record frames and leaves the crashed
  file as it found it until the next append;
* recovery (:func:`~repro.durability.recovery.recover_accounting` for
  the trade journal, :meth:`StreamingCluster.recover` for the window log)
  is bit-exact against the same prefix recovered from memory -- and, for
  the trade journal, against a twin broker that ran only the surviving
  dispatches, policy counters included -- and never books less ε′ than
  was released;
* the first append after the load cuts the torn tail, resumes the id
  sequence and the string table, and leaves a file byte-identical to an
  uninterrupted log of the same entries.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import List, Tuple

import numpy as np
import pytest

from repro.chaos import books_equal
from repro.core.query import AccuracySpec, RangeQuery
from repro.core.service import PrivateRangeCountingService
from repro.durability import codec
from repro.durability.journal import TradeJournal
from repro.durability.recovery import recover_accounting
from repro.errors import JournalError, StreamingError
from repro.serving import ServingConfig, ServingGateway
from repro.streaming.journal import WindowLog
from repro.streaming.runtime import StreamingConfig, build_streaming_cluster
from repro.streaming.window import window_checksum

TIERS = (AccuracySpec(alpha=0.1, delta=0.5), AccuracySpec(alpha=0.2, delta=0.6))
RANGES = tuple((15.0 * i, 15.0 * i + 50.0) for i in range(6))
HEADER = len(codec.header(codec.TRADE_LOG))


def records_in(frame_type: int, start: int, end: int) -> int:
    """How many entries a kept frame holds: a ``TRADES`` frame one per
    69-byte record after its head and first answer id, any other record
    frame one."""
    if frame_type == codec.FRAME_STRING:
        return 0
    if frame_type == codec.FRAME_TRADES:
        return (end - start - 9 - 8 - 4) // codec.RECORD_SIZE
    return 1


def cut_points(frames, every_byte=()) -> List[Tuple[int, int, int]]:
    """``(offset, whole records before it, type of the torn frame or 0)``
    at the start, inside and at the end of the header, and at the middle
    and end of every frame -- at every byte of the frames numbered in
    ``every_byte``."""
    points = [(0, 0, 0), (HEADER // 2, 0, 0), (HEADER, 0, 0)]
    whole = 0
    for number, (frame_type, start, end) in enumerate(frames):
        inside = (
            range(start + 1, end) if number in every_byte
            else [(start + end) // 2]
        )
        points.extend((offset, whole, frame_type) for offset in inside)
        whole += records_in(frame_type, start, end)
        points.append((end, whole, 0))
    return points


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------- #
# Trade journal                                                          #
# ---------------------------------------------------------------------- #
def dispatch(broker, requests) -> None:
    """Submit ``requests`` and let one worker settle them as one batch."""
    gateway = ServingGateway(
        broker,
        config=ServingConfig(batch_window=10.0, max_batch=len(requests)),
    )
    futures = [
        gateway.submit_range(low, high, spec.alpha, spec.delta, consumer=name)
        for name, (low, high), spec in requests
    ]
    with gateway:
        for future in futures:
            future.result(timeout=30.0)


def trading_broker():
    values = np.random.default_rng(4).uniform(0.0, 100.0, 2_000)
    service = PrivateRangeCountingService.from_values(values, k=4, seed=9)
    service.collect(0.4)
    return service.broker


NAMES = ("c0", "c1", "c2")
FIRST = [
    (NAMES[i % 3], RANGES[i % len(RANGES)], TIERS[i % 2]) for i in range(9)
]
# The second dispatch repeats half the first (cache-hit replays) and buys
# new ranges, with an in-window duplicate and a new consumer, so it
# defines a string of its own.
SECOND = FIRST[:4] + [
    ("c2", (5.0, 95.0), TIERS[0]), ("c0", (5.0, 95.0), TIERS[0]),
    ("c3", (1.0, 30.0), TIERS[1]),
]


@pytest.fixture(scope="module")
def two_dispatches(tmp_path_factory):
    """A journal file written by two dispatches, the entry counts after
    each, and the live books."""
    path = tmp_path_factory.mktemp("journal") / "trades.journal"
    broker = trading_broker()
    broker.journal = TradeJournal(path=path)
    dispatch(broker, FIRST)
    after_first = len(broker.journal)
    dispatch(broker, SECOND)
    broker.journal.close()
    kinds = {entry.kind for entry in broker.journal.entries()}
    assert kinds == {"release", "replay"}
    return path, [after_first, len(broker.journal)], broker


@pytest.fixture(scope="module")
def twins(two_dispatches):
    """Twin brokers that ran only the surviving dispatches, by the number
    of entries those journaled."""
    _, boundaries, broker = two_dispatches
    first_only = trading_broker()
    dispatch(first_only, FIRST)
    return {0: trading_broker(), boundaries[0]: first_only, boundaries[1]: broker}


def full_dataset(entries) -> str:
    (dataset,) = {entry.dataset for entry in entries}
    return dataset


def payload_of(entry) -> dict:
    """The append arguments that journal ``entry`` again."""
    record = dict(entry.to_payload())
    for key in ("answer_id", "format", "version"):
        record.pop(key, None)
    return record


def released_epsilon(entries) -> float:
    total = 0.0
    for entry in entries:
        if entry.kind == "release":
            total += entry.epsilon_prime
    return total


def in_memory(entries) -> TradeJournal:
    journal = TradeJournal()
    journal.append_many([payload_of(entry) for entry in entries])
    return journal


def test_every_cut_recovers_the_whole_entries(two_dispatches, twins, tmp_path):
    path, boundaries, _ = two_dispatches
    data = path.read_bytes()
    scan = TradeJournal.read(path)
    entries = tuple(scan.records)
    assert len(entries) == boundaries[-1]
    assert scan.end == len(data)
    # One TRADES frame per dispatch; cut at every byte of the first and
    # the last, and at the middle and end of every frame.
    trades = [
        number for number, (frame_type, _, _) in enumerate(scan.frames)
        if frame_type == codec.FRAME_TRADES
    ]
    assert [len(chunk) for chunk in scan.chunks] == [
        boundaries[0], boundaries[1] - boundaries[0]
    ]
    points = cut_points(scan.frames, every_byte=(trades[0], trades[-1]))
    _, start, end = scan.frames[trades[-1]]
    assert {offset for offset, _, _ in points} >= set(range(start, end + 1))
    torn = {frame_type for _, _, frame_type in points}
    assert {codec.FRAME_STRING, codec.FRAME_TRADES} <= torn

    for offset, whole, _ in points:
        crashed = tmp_path / f"cut-{offset}.journal"
        crashed.write_bytes(data[:offset])
        recovered = TradeJournal.load(crashed)
        assert crashed.read_bytes() == data[:offset], "load only reads"
        assert recovered.entries() == entries[:whole], offset
        assert recovered.last_answer_id == whole

        # Bit-exact against the same prefix held in memory, and against
        # a twin broker that ran only the surviving dispatches (the live
        # broker, for the whole file), policy included.
        books = recover_accounting(recovered)
        assert books_equal(books, recover_accounting(in_memory(entries[:whole])))
        twin = twins[whole]
        assert books_equal(books, twin)
        assert books.policy == twin.policy, offset
        accountant = books.accountant

        # Answers leave the gateway only after their dispatch's write
        # completed, so the released ones are those of whole dispatches.
        released = max([0] + [b for b in boundaries if b <= whole])
        spent = accountant.spent(full_dataset(entries))
        assert spent == released_epsilon(entries[:whole])
        assert spent >= released_epsilon(entries[:released])

        # The resumed journal cuts the tail, reuses the surviving string
        # table, and writes exactly what an uninterrupted journal of the
        # same appends would.
        resumed = recovered.append(**payload_of(entries[-1]))
        assert resumed.answer_id == whole + 1
        recovered.close()
        reloaded = TradeJournal.load(crashed)
        assert reloaded.entries() == entries[:whole] + (resumed,)
        uninterrupted = tmp_path / f"whole-{offset}.journal"
        with TradeJournal(path=uninterrupted) as reference:
            for chunk in TradeJournal.read(crashed).chunks:
                reference.append_many([payload_of(entry) for entry in chunk])
        assert sha256(crashed) == sha256(uninterrupted)
        assert reloaded.checksum() == in_memory(reloaded.entries()).checksum()
        reloaded.close()


def test_a_bad_crc_is_dropped_only_at_the_tail(two_dispatches, tmp_path):
    """A whole last frame whose CRC fails is a torn write: dropped.  The
    same damage with frames after it is corruption: load refuses."""
    path, boundaries, _ = two_dispatches
    scan = TradeJournal.read(path)
    data = path.read_bytes()

    _, start, end = scan.frames[-1]
    tail = bytearray(data)
    tail[end - 1] ^= 0xFF
    crashed = tmp_path / "bad-tail.journal"
    crashed.write_bytes(bytes(tail))
    with TradeJournal.load(crashed) as recovered:
        # The last frame is the second dispatch's TRADES frame: the
        # whole dispatch goes, none of which was released.
        assert len(recovered) == boundaries[-2]

    _, start, end = scan.frames[len(scan.frames) // 2]
    middle = bytearray(data)
    middle[(start + end) // 2] ^= 0xFF
    crashed = tmp_path / "bad-middle.journal"
    crashed.write_bytes(bytes(middle))
    with pytest.raises(JournalError, match="CRC"):
        TradeJournal.load(crashed)


# ---------------------------------------------------------------------- #
# Window log under a streaming cluster                                   #
# ---------------------------------------------------------------------- #
FLOOR = AccuracySpec(alpha=0.15, delta=0.5)
STREAM = StreamingConfig(
    shards=2, devices_per_shard=2, window_epochs=2, floor=FLOOR, seed=23
)


@pytest.fixture(scope="module")
def streamed(tmp_path_factory):
    """A window log written by three epochs of rolls and releases."""
    path = tmp_path_factory.mktemp("window") / "window.journal"
    cluster = build_streaming_cluster(STREAM, window_log=WindowLog(path))
    rng = np.random.default_rng(31)
    for epoch in range(3):
        cluster.ingest(
            rng.uniform(0.0, 100.0, 256), epoch + np.arange(256) / 256.0
        )
        cluster.roll()
        for low in (20.0, 40.0):
            cluster.broker.answer(
                RangeQuery(low=low, high=low + 45.0, dataset=STREAM.dataset),
                FLOOR,
                f"buyer-{epoch}",
            )
    cluster.window_log.close()
    return path, cluster


def recovered_state(log: WindowLog):
    """Recover a fresh cluster from ``log``: its window checksum, store
    version and per-epoch ε ledgers."""
    cluster = build_streaming_cluster(STREAM, window_log=log)
    snapshot = cluster.recover()
    accountant = cluster.broker.epoch_accountant
    ledgers = {
        epoch: accountant.history(STREAM.dataset, epoch)
        for epoch in snapshot.live_epochs
    }
    return window_checksum(snapshot.epochs), snapshot.store_version, ledgers


def test_every_window_log_cut_recovers_bit_exactly(streamed, tmp_path):
    path, live = streamed
    data = path.read_bytes()
    scan = WindowLog.read(path)
    entries = scan.records
    kinds = [entry.kind for entry in entries]
    assert kinds.count("roll") == 3 * STREAM.shards
    assert kinds.count("charge") == 6
    points = cut_points(scan.frames)
    torn = {frame_type for _, _, frame_type in points}
    assert {codec.FRAME_STRING, codec.FRAME_ROLL, codec.FRAME_CHARGE} <= torn

    for offset, whole, _ in points:
        crashed = tmp_path / f"cut-{offset}.journal"
        crashed.write_bytes(data[:offset])
        log = WindowLog.load(crashed)
        assert crashed.read_bytes() == data[:offset], "load only reads"
        reference = WindowLog()
        for entry in entries[:whole]:
            reference.append(entry.kind, **entry.data)
        assert len(log) == whole
        assert log.checksum() == reference.checksum(), offset

        if "roll" not in kinds[:whole]:
            with pytest.raises(StreamingError):
                build_streaming_cluster(STREAM, window_log=log).recover()
        else:
            state = recovered_state(log)
            assert state == recovered_state(reference), offset
            if whole == len(entries):
                assert state[0] == window_checksum(
                    live.station.snapshot().epochs
                )
                assert state[1] == live.station.store_version
            # Every released charge over a live epoch is booked again.
            for epoch, ledger in state[2].items():
                released = [
                    (e.data["label"], e.data["epsilon"])
                    for e in entries[:whole]
                    if e.kind == "charge" and epoch in e.data["epochs"]
                ]
                assert [(c.label, c.epsilon) for c in ledger] == released

        # Recovery journals the empty seals it completes, identically on
        # both sides; the first append cuts the torn tail off first.
        assert log.checksum() == reference.checksum()
        resumed = log.append_charge(STREAM.dataset, [0], 0.5, "after-crash")
        assert resumed.seq == len(reference) + 1
        log.close()
        reloaded = WindowLog.load(crashed)
        reference.append_charge(STREAM.dataset, [0], 0.5, "after-crash")
        assert reloaded.checksum() == reference.checksum()
        assert sha256(crashed) == reference.checksum()
        reloaded.close()
