"""The cluster's backbone invariant: a broadcast cluster == the plain broker.

A loss-free :class:`~repro.cluster.broker.ClusterBroker` whose route
touches every shard -- one shard, or an even partition -- must reproduce
:class:`~repro.core.broker.DataBroker` over the same fleet *exactly*:
same released values, same plans, same prices, same ledger
transactions, same accountant history, same journal bytes.  The
coordinator pools every shard's samples in node order, plans over the
whole fleet and draws one noise per query from the same seed stream, so
it computes what the plain broker computes.  Any drift here means the
federation changed the product it sells.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
import pytest

from repro.chaos.injectors import books_equal
from repro.cluster.broker import ClusterBroker
from repro.core.query import AccuracySpec, PrivateAnswer, RangeQuery
from repro.core.service import PrivateRangeCountingService
from repro.durability.journal import TradeJournal
from repro.errors import PrivacyBudgetExceededError
from repro.serving import ServingConfig, ServingGateway


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

    # Shards only lend their samples: they keep no books and draw no
    # noise.
    for shard in cluster.shards:
        for lane in (shard.primary, shard.replica):
            if lane is not None:
                assert len(lane.ledger) == 0
                assert lane.accountant.history("default") == ()

    # A batch refused at coordinator admission -- before any noise is
    # drawn -- leaves the cluster's books, journal and rng untouched.
    state = cluster.rng.bit_generator.state
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
    assert cluster.rng.bit_generator.state == state


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


# ----------------------------------------------------------------------
# the seeded identity matrix: s-shard broadcast cluster vs plain broker
# ----------------------------------------------------------------------
MATRIX_VALUES = np.random.default_rng(17).uniform(0.0, 100.0, 4000)
MATRIX_TIERS = (
    AccuracySpec(alpha=0.1, delta=0.5),
    AccuracySpec(alpha=0.15, delta=0.6),
    AccuracySpec(alpha=0.05, delta=0.5),
)
PATHS = ("scalar", "batch", "gateway-cache", "gateway-nocache")


def matrix_workload(seed: int) -> "List[Tuple[str, float, float, AccuracySpec]]":
    """Mixed tiers, three consumers, and a repeated (range, tier) pair
    so the gateway cache has a duplicate to coalesce."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(9):
        low = float(rng.uniform(0.0, 70.0))
        high = low + float(rng.uniform(5.0, 30.0))
        rows.append((f"c{i % 3}", low, high, MATRIX_TIERS[i % 3]))
    rows.append(("c1",) + rows[0][1:])
    return rows


def run_path(broker, path: str, rows) -> "Sequence[PrivateAnswer]":
    if path == "scalar":
        return [
            broker.answer(RangeQuery(low=lo, high=hi), spec, consumer=c)
            for c, lo, hi, spec in rows
        ]
    if path == "batch":
        return broker.answer_batch(
            [RangeQuery(low=lo, high=hi) for _, lo, hi, _ in rows],
            [spec for *_, spec in rows],
            [c for c, *_ in rows],
        )
    gateway = ServingGateway(
        broker,
        config=ServingConfig(
            batch_window=10.0,
            max_batch=len(rows),
            enable_cache=path == "gateway-cache",
        ),
    )
    futures = [
        gateway.submit_range(lo, hi, spec.alpha, spec.delta, consumer=c)
        for c, lo, hi, spec in rows
    ]
    with gateway:  # the worker picks the whole queue up as one dispatch
        return [future.result(timeout=30.0) for future in futures]


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_broadcast_cluster_matches_plain_broker(shards, path):
    seed = 3 + shards
    plain = PrivateRangeCountingService.from_values(
        MATRIX_VALUES, k=8, seed=seed
    ).broker
    cluster = ClusterBroker.from_values(
        MATRIX_VALUES, k=8, shards=shards, seed=seed
    )
    plain.journal, cluster.journal = TradeJournal(), TradeJournal()
    rows = matrix_workload(seed)
    if shards > 1:
        # An s >= 2 cluster provisions denser than the plain broker, so
        # the identity is over a common sample.  A 1-shard cluster is not
        # pre-collected: its first release tops the fleet up exactly as
        # the plain broker's does, so the top-up path is in the identity.
        rate = max(cluster.planner.required_rate(spec) for spec in MATRIX_TIERS)
        plain.base_station.ensure_rate(rate)
        cluster.ensure_rate(rate)
    expected = run_path(plain, path, rows)
    got = run_path(cluster, path, rows)

    assert all(answer.route_signature == "b" for answer in got)
    for a, b in zip(expected, got):
        assert (a.value, a.raw_value, a.sample_estimate) == (
            b.value, b.raw_value, b.sample_estimate
        )
        assert a.plan == b.plan
        assert a.price == b.price
    assert plain.base_station.sampling_rate == cluster.base_station.sampling_rate
    assert plain.accountant.history("default") == cluster.accountant.history(
        "default"
    )
    for consumer in ("c0", "c1", "c2"):
        assert plain.policy.epsilon_spent_by(consumer) == (
            cluster.policy.epsilon_spent_by(consumer)
        )
    assert books_equal(plain, cluster)
    assert plain.journal.checksum() == cluster.journal.checksum()
    assert plain.rng.bit_generator.state == cluster.rng.bit_generator.state
