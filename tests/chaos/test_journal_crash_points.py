"""Crash points of the file-backed trade journal, at every write boundary.

Each gateway dispatch journals all of its trades in one ``append_many``
write.  A crash can cut the file anywhere in such a write; these tests
truncate a two-dispatch journal at every line boundary and inside every
line, and check that recovery keeps exactly the wholly written entries,
resumes the ``answer_id`` sequence on a whole line, leaves the crashed
file as it found it until the next append, and never under-counts the
ε′ of an answer that was released.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Tuple

import numpy as np
import pytest

from repro.core.query import AccuracySpec
from repro.core.service import PrivateRangeCountingService
from repro.durability.journal import TradeJournal
from repro.durability.recovery import recover_accounting
from repro.serving import ServingConfig, ServingGateway

TIERS = (AccuracySpec(alpha=0.1, delta=0.5), AccuracySpec(alpha=0.2, delta=0.6))
RANGES = tuple((15.0 * i, 15.0 * i + 50.0) for i in range(6))


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


@pytest.fixture(scope="module")
def two_dispatches(tmp_path_factory) -> Tuple[Path, List[int]]:
    """A journal file written by two dispatches; entry counts after each."""
    path = tmp_path_factory.mktemp("journal") / "trades.jsonl"
    values = np.random.default_rng(4).uniform(0.0, 100.0, 2_000)
    service = PrivateRangeCountingService.from_values(values, k=4, seed=9)
    service.collect(0.4)
    broker = service.broker
    broker.journal = TradeJournal(path=path)
    names = ("c0", "c1", "c2")
    first = [
        (names[i % 3], RANGES[i % len(RANGES)], TIERS[i % 2]) for i in range(9)
    ]
    # The second dispatch repeats half the first (cache-hit replays) and
    # buys new ranges, with an in-window duplicate.
    second = first[:4] + [
        ("c2", (5.0, 95.0), TIERS[0]), ("c0", (5.0, 95.0), TIERS[0]),
        ("c1", (1.0, 30.0), TIERS[1]),
    ]
    dispatch(broker, first)
    after_first = len(broker.journal)
    dispatch(broker, second)
    broker.journal.close()
    kinds = {entry.kind for entry in broker.journal.entries()}
    assert kinds == {"release", "replay"}
    return path, [after_first, len(broker.journal)]


def cut_points(data: bytes) -> List[Tuple[int, int]]:
    """``(offset, whole entries before it)`` at every line boundary and in
    the middle of every line."""
    points = [(0, 0)]
    start = 0
    for count, end in enumerate(
        (i + 1 for i, byte in enumerate(data) if byte == ord("\n")), start=1
    ):
        points.append(((start + end) // 2, count - 1))
        points.append((end, count))
        start = end
    return points


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


def test_every_cut_recovers_the_whole_entries(two_dispatches, tmp_path):
    path, boundaries = two_dispatches
    data = path.read_bytes()
    full = TradeJournal.load(path)
    entries = full.entries()
    full.close()
    assert len(entries) == boundaries[-1]
    points = cut_points(data)
    assert len(points) == 2 * len(entries) + 1

    for offset, whole in points:
        crashed = tmp_path / f"cut-{offset}.jsonl"
        crashed.write_bytes(data[:offset])
        recovered = TradeJournal.load(crashed)
        assert crashed.read_bytes() == data[:offset], "load only reads"
        assert recovered.entries() == entries[:whole], offset
        assert recovered.last_answer_id == whole

        # Answers leave the gateway only after their dispatch's write
        # completed, so the released ones are those of whole dispatches.
        released = max([0] + [b for b in boundaries if b <= whole])
        _, accountant = recover_accounting(recovered)
        spent = accountant.spent(full_dataset(entries))
        assert spent == released_epsilon(entries[:whole])
        assert spent >= released_epsilon(entries[:released])

        # The resumed journal appends on a whole line after the cut.
        resumed = recovered.append(**payload_of(entries[0]))
        assert resumed.answer_id == whole + 1
        recovered.close()
        reloaded = TradeJournal.load(crashed)
        assert reloaded.entries() == entries[:whole] + (resumed,)
        reloaded.close()


def test_a_cut_before_the_newline_keeps_the_entry(two_dispatches, tmp_path):
    """A whole JSON object missing only its newline is a complete entry:
    recovery keeps it (over-counting ε′ is the safe side) and ends the
    line before appending."""
    path, _ = two_dispatches
    data = path.read_bytes()
    end = data.index(b"\n")
    crashed = tmp_path / "no-newline.jsonl"
    crashed.write_bytes(data[:end])
    recovered = TradeJournal.load(crashed)
    assert crashed.read_bytes() == data[:end], "load only reads"
    assert len(recovered) == 1
    recovered.append(**payload_of(recovered.entries()[0]))
    recovered.close()
    with TradeJournal.load(crashed) as reloaded:
        assert len(reloaded) == 2
