"""The cluster's backbone invariant: 1 shard == the plain broker, bit for bit.

A single-shard loss-free :class:`~repro.cluster.broker.ClusterBroker`
must reproduce :class:`~repro.core.broker.DataBroker` *exactly* -- same
released values, same plans, same prices, same ledger transactions, same
accountant history -- because every seed stream, every partition and
every charge path is arranged to coincide.  Any drift here means the
federation changed the product it sells.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.broker import ClusterBroker
from repro.core.query import AccuracySpec, RangeQuery
from repro.core.service import PrivateRangeCountingService
from repro.durability.journal import TradeJournal
from repro.errors import PrivacyBudgetExceededError


def plain_broker(values, k, seed):
    return PrivateRangeCountingService.from_values(values, k=k, seed=seed).broker


ANSWER_FIELDS = (
    "value",
    "raw_value",
    "sample_estimate",
    "price",
    "plan",
    "consumer",
    "transaction_id",
)


@pytest.mark.parametrize("replicas", [True, False])
@pytest.mark.parametrize("seed", [5, 11, 99])
def test_single_shard_cluster_is_bit_identical(uniform_values, replicas, seed):
    k = 8
    plain = plain_broker(uniform_values, k, seed)
    cluster = ClusterBroker.from_values(
        uniform_values, k=k, shards=1, seed=seed, replicas=replicas
    )
    cluster.journal = TradeJournal()

    plain.base_station.ensure_rate(0.3)
    cluster.ensure_rate(0.3)

    workload = [
        (10.0, 40.0, AccuracySpec(alpha=0.1, delta=0.5)),
        (20.0, 80.0, AccuracySpec(alpha=0.15, delta=0.6)),
        (0.0, 55.0, AccuracySpec(alpha=0.2, delta=0.5)),
        (60.0, 90.0, AccuracySpec(alpha=0.1, delta=0.5)),
        (5.0, 95.0, AccuracySpec(alpha=0.15, delta=0.6)),
        (30.0, 35.0, AccuracySpec(alpha=0.2, delta=0.5)),
    ]
    queries = [RangeQuery(low=lo, high=hi) for lo, hi, _ in workload]
    specs = [spec for _, _, spec in workload]

    expected = plain.answer_batch(queries, specs, consumer="c")
    got = cluster.answer_batch(queries, specs, consumer="c")

    for a, b in zip(expected, got):
        for name in ANSWER_FIELDS:
            assert getattr(a, name) == getattr(b, name), name
    # The merged answer still carries its (single) shard provenance.
    assert all(len(b.shard_answers) == 1 for b in got)
    assert all(not b.degraded for b in got)
    assert all(b.delta_reported == b.spec.delta for b in got)

    # Books reconcile entry for entry.
    assert plain.ledger.transactions == cluster.ledger.transactions
    assert plain.accountant.history("default") == cluster.accountant.history(
        "default"
    )
    assert plain.accountant.spent("default") == cluster.accountant.spent(
        "default"
    )

    # Shards are estimate-plus-noise lanes: they keep no books.
    for shard in cluster.shards:
        for lane in (shard.primary, shard.replica):
            if lane is not None:
                assert len(lane.ledger) == 0
                assert lane.accountant.history("default") == ()

    # A batch refused at coordinator admission -- after the gather --
    # leaves the cluster's books and journal untouched.
    cluster.accountant.capacity = cluster.accountant.spent("default")

    def books():
        return (
            cluster.ledger.transactions,
            cluster.accountant.history("default"),
            cluster.policy.epsilon_spent_by("c"),
            cluster.policy.purchases_by("c"),
            cluster.journal.checksum(),
        )

    before = books()
    with pytest.raises(PrivacyBudgetExceededError):
        cluster.answer_batch(queries, specs, consumer="c")
    assert books() == before


def test_single_shard_quote_and_planner_match(uniform_values):
    plain = plain_broker(uniform_values, 8, 7)
    cluster = ClusterBroker.from_values(uniform_values, k=8, shards=1, seed=7)
    spec = AccuracySpec(alpha=0.1, delta=0.5)
    assert cluster.quote(spec) == plain.quote(spec)
    assert cluster.planner.required_rate(spec) == plain.planner.required_rate(
        spec
    )
    p = plain.planner.required_rate(spec)
    assert cluster.planner.plan(spec, p) == plain.planner.plan(spec, p)


def test_single_shard_replay_matches(uniform_values):
    plain = plain_broker(uniform_values, 8, 7)
    cluster = ClusterBroker.from_values(uniform_values, k=8, shards=1, seed=7)
    plain.base_station.ensure_rate(0.3)
    cluster.ensure_rate(0.3)
    query = RangeQuery(low=10.0, high=60.0)
    spec = AccuracySpec(alpha=0.1, delta=0.5)
    a = plain.answer(query, spec, consumer="c")
    b = cluster.answer(query, spec, consumer="c")
    ra = plain.replay(a, consumer="d")
    rb = cluster.replay(b, consumer="d")
    assert ra.value == rb.value
    assert ra.price == rb.price
    assert plain.ledger.transactions == cluster.ledger.transactions
