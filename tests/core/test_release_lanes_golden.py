"""Golden digests of the three release lanes.

One seeded scenario per lane -- the plain broker, a 1-shard and a
4-shard range-sharded cluster, a streaming window across a roll -- and
one SHA-256 per lane over everything a release fixes: the float bits of
``value``/``raw_value``/``sample_estimate``, ε′, prices, transaction
ids, the ledger and accountant totals and the journal checksum.  Any
change to how a lane plans, estimates, draws or settles moves its digest,
so a refactor of the release path that keeps these digests keeps every
seed bit-identical.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Sequence

import numpy as np
import pytest

from repro.cluster.broker import ClusterBroker
from repro.core.query import AccuracySpec, PrivateAnswer, RangeQuery
from repro.core.service import PrivateRangeCountingService
from repro.durability.journal import TradeJournal
from repro.estimators.base import NodeData
from repro.pricing.functions import InverseVariancePricing
from repro.pricing.variance_model import VarianceModel
from repro.privacy.budget import BudgetAccountant
from repro.resilience.deadline import Deadline
from repro.streaming.broker import StreamingBroker, StreamingStation
from repro.streaming.journal import WindowLog
from repro.streaming.window import EpochSummary

TIGHT = AccuracySpec(alpha=0.1, delta=0.5)
LOOSE = AccuracySpec(alpha=0.2, delta=0.6)

#: A deadline that has passed, and one that never will, on a fixed clock.
EXPIRED = Deadline(expires_at=0.0, clock=lambda: 1.0)
OPEN = Deadline(expires_at=10.0, clock=lambda: 1.0)


class Digest:
    """SHA-256 over a lane's outcomes and books, fed in a fixed order."""

    def __init__(self) -> None:
        self._sha = hashlib.sha256()

    def floats(self, *values: float) -> None:
        for value in values:
            self._sha.update(struct.pack("<d", value))

    def text(self, value: str) -> None:
        self._sha.update(value.encode("utf-8") + b"\0")

    def outcomes(self, outcomes: Sequence["PrivateAnswer | Exception"]) -> None:
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                self.text(type(outcome).__name__)
                continue
            self.floats(
                outcome.value,
                outcome.raw_value,
                outcome.sample_estimate,
                outcome.plan.epsilon_prime,
                outcome.price,
            )
            self.text(f"{outcome.consumer}#{outcome.transaction_id}")

    def books(self, broker) -> None:
        ledger, accountant = broker.ledger, broker.accountant
        self.floats(ledger.total_revenue(), accountant.spent(broker.dataset))
        self.text(f"{len(ledger)}/{len(accountant.history(broker.dataset))}")
        self.text(broker.journal.checksum())

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def _values(seed: int, size: int = 4000) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, 100.0, size)


def plain_lane() -> str:
    service = PrivateRangeCountingService.from_values(_values(3), k=8, seed=11)
    broker = service.broker
    broker.journal = TradeJournal()
    digest = Digest()

    # A shared spec, per-row consumers and int bounds; the first purchase
    # tops the store up from empty.  Row 3 replays row 0.
    queries = [
        RangeQuery(low=10, high=40),
        RangeQuery(low=20.0, high=80.0),
        RangeQuery(low=0.0, high=55.5),
        RangeQuery(low=10, high=40),
        RangeQuery(low=60.0, high=90),
    ]
    first = broker.answer_batch(
        queries, TIGHT, ["ann", "bob", "ann", "cat", "bob"], replays={3: 0}
    )
    digest.outcomes(first)

    # Per-row tiers, a caller replay of a cached answer, and one consumer
    # whose deadline has passed.
    cached = first[1]
    assert isinstance(cached, PrivateAnswer)
    queries = [
        RangeQuery(low=5.0, high=95.0),
        cached.query,
        RangeQuery(low=30.0, high=35.0),
        RangeQuery(low=45.0, high=70.0),
    ]
    second = broker.answer_batch(
        queries,
        [LOOSE, cached.spec, TIGHT, LOOSE],
        ["dan", "eve", "late", "dan"],
        replays={1: cached},
        deadlines=[OPEN, None, EXPIRED, None],
    )
    assert type(second[2]).__name__ == "DeadlineExceededError"
    digest.outcomes(second)

    # A budget edge: room for the first consumer's release only.
    spent = broker.accountant.spent(broker.dataset)
    plan = broker.planner.plan(TIGHT, broker.base_station.sampling_rate)
    broker.accountant = BudgetAccountant(capacity=spent + 1.5 * plan.epsilon_prime)
    broker.accountant.charge(broker.dataset, spent, "carried")
    third = broker.answer_batch(
        [RangeQuery(low=12.0, high=34.0), RangeQuery(low=40.0, high=41.0)],
        TIGHT,
        ["fay", "gus"],
    )
    assert type(third[1]).__name__ == "PrivacyBudgetExceededError"
    digest.outcomes(third)
    digest.books(broker)
    return digest.hexdigest()


def cluster_lane(shards: int) -> str:
    partition = "range-sharded" if shards > 1 else "even"
    broker = ClusterBroker.from_values(
        _values(42), k=16, shards=shards, seed=13, partition=partition
    )
    broker.journal = TradeJournal()
    digest = Digest()
    # Straddling, inside one shard, exactly covering a band (exact-cover
    # only), all pruned, and a straddler that also covers a whole band;
    # a 1-shard cluster broadcasts every one of them.
    bands = [(shard.band.low, shard.band.high) for shard in broker.shards]
    if shards == 1:
        bands = [(0.0, 25.0), (25.0, 50.0), (50.0, 75.0), (75.0, 100.0)]
    boundary = bands[0][1]
    ranges = [
        (boundary - 5.0, boundary + 5.0),
        (bands[0][0] + 1.0, bands[0][1] - 1.0),
        bands[-1],
        (-20.0, -10.0),
        (bands[0][1] - 2.0, bands[-1][0] + 2.0),
        (boundary - 5.0, boundary + 5.0),
    ]
    queries = [RangeQuery(low=lo, high=hi) for lo, hi in ranges]
    first = broker.answer_batch(
        queries,
        [TIGHT, TIGHT, LOOSE, TIGHT, LOOSE, TIGHT],
        ["ann", "bob", "ann", "cat", "bob", "dan"],
        replays={5: 0},
    )
    digest.outcomes(first)
    for answer in first:
        assert isinstance(answer, PrivateAnswer)
        digest.text(
            f"{answer.pruned_shards}{answer.exact_shards}"
            f"{answer.route_signature}{answer.delta_reported!r}"
        )
    second = broker.answer_batch(
        [RangeQuery(low=15.0, high=75.0), queries[0]],
        LOOSE,
        ["eve", "fay"],
        replays={1: first[0]},
    )
    digest.outcomes(second)
    digest.books(broker)
    return digest.hexdigest()


def _epoch(epoch: int, rate: float = 0.8, per_node: int = 50) -> EpochSummary:
    rng = np.random.default_rng(3 + epoch)
    samples = tuple(
        NodeData(node_id=node_id, values=rng.uniform(0, 100, per_node)).sample(rate, rng)
        for node_id in (1, 2, 3)
    )
    return EpochSummary(
        epoch=epoch, samples=samples, record_count=3 * per_node, rate=rate
    )


def streaming_lane() -> str:
    station = StreamingStation(window_epochs=2)
    for epoch in range(2):
        station.commit_roll([_epoch(epoch)])
    floor = AccuracySpec(alpha=0.15, delta=0.5)
    broker = StreamingBroker(
        station=station,
        pricing=InverseVariancePricing(VarianceModel(n=300), base_price=10.0),
        floor=floor,
        journal=TradeJournal(),
        window_log=WindowLog(),
        rng=np.random.default_rng(7),
    )
    digest = Digest()
    queries = [
        RangeQuery(low=20.0, high=70.0, dataset="stream"),
        RangeQuery(low=0, high=100, dataset="stream"),
        RangeQuery(low=20.0, high=70.0, dataset="stream"),
    ]
    specs = [floor, AccuracySpec(alpha=0.3, delta=0.4), floor]
    before = broker.answer_batch(queries, specs, ["ann", "bob", "cat"], replays={2: 0})
    digest.outcomes(before)
    # The roll evicts epoch 0: the next batch plans and estimates over
    # epochs 1 and 2.
    station.commit_roll([_epoch(2, rate=0.9)])
    after = broker.answer_batch(queries[:2], specs[:2], ["ann", "dan"])
    digest.outcomes(after)
    digest.books(broker)
    for epoch in (0, 1, 2):
        digest.floats(broker.epoch_accountant.spent("stream", epoch))
    digest.text(broker.window_log.checksum())
    return digest.hexdigest()


GOLDEN = {
    "plain": "fc624e91afaae52802de70067dfa1e4f9f57075abd357a9e31aae75bb611a32d",
    "cluster1": "af89289ec02089bbfd31038611234767ffabf69331326cfded0306f957800f0d",
    "cluster4": "dbf262aef8a08eb19589430a6624bff881dab3ab9f817fba6997a48e2a11ae57",
    "streaming": "b82a784ae9aba17efa2763e3f250a3c7b8a6facb95c4939a25b1381fb9abf177",
}

LANES = {
    "plain": plain_lane,
    "cluster1": lambda: cluster_lane(1),
    "cluster4": lambda: cluster_lane(4),
    "streaming": streaming_lane,
}


@pytest.mark.parametrize("lane", sorted(LANES))
def test_lane_digest_is_pinned(lane: str) -> None:
    assert LANES[lane]() == GOLDEN[lane]

