"""Range-aware routing behaviour of the ClusterBroker answer path."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster.broker import ClusterAnswer, ClusterBroker
from repro.cluster.planning import RoutePlan
from repro.core.planner import QueryPlanner
from repro.core.query import AccuracySpec, RangeQuery
from repro.serving.telemetry import MetricsRegistry

SPEC = AccuracySpec(alpha=0.1, delta=0.5)


@pytest.fixture(scope="module")
def values():
    return np.random.default_rng(42).uniform(0.0, 100.0, 4000)


@pytest.fixture(scope="module")
def routed4(values):
    """A 4-shard range-sharded cluster with tight bands."""
    broker = ClusterBroker.from_values(
        values, k=16, shards=4, seed=13, partition="range-sharded"
    )
    broker.ensure_rate(0.5)
    return broker


class TestExactCover:
    def test_band_covering_query_spends_nothing(self, routed4):
        band = routed4.shards[0].band
        before = routed4.accountant.spent(routed4.dataset)
        answer = routed4.answer(
            RangeQuery(low=band.low, high=band.high), SPEC, consumer="x"
        )
        assert isinstance(answer, ClusterAnswer)
        assert answer.exact_shards == (0,)
        assert answer.pruned_shards == (1, 2, 3)
        # The cached total is exact: every shard-0 record is in range.
        assert answer.value == float(routed4.shards[0].n)
        assert answer.plan.epsilon_prime == 0.0
        assert answer.plan.delta_prime == 1.0
        assert routed4.accountant.spent(routed4.dataset) == before
        # The consumer still pays the cluster list price.
        assert answer.price == routed4.quote(SPEC)

    def test_all_pruned_is_metadata_only(self, routed4):
        before = routed4.accountant.spent(routed4.dataset)
        answer = routed4.answer(
            RangeQuery(low=-20.0, high=-10.0), SPEC, consumer="x"
        )
        assert answer.pruned_shards == (0, 1, 2, 3)
        assert answer.exact_shards == ()
        assert answer.value == 0.0
        assert answer.plan.epsilon_prime == 0.0
        assert routed4.accountant.spent(routed4.dataset) == before


class TestRoutedRelease:
    def test_straddler_charges_one_pooled_release(self, routed4):
        # A range straddling the shard-1/shard-2 boundary pools exactly
        # those two shards into one release at the consumer's own δ.
        boundary = routed4.shards[1].band.high
        before = routed4.accountant.spent(routed4.dataset)
        answer = routed4.answer(
            RangeQuery(low=boundary - 5.0, high=boundary + 5.0),
            SPEC,
            consumer="x",
        )
        touched = tuple(
            j
            for j in range(4)
            if j not in answer.pruned_shards and j not in answer.exact_shards
        )
        assert len(touched) >= 2
        shards = [routed4.shards[j] for j in touched]
        assert answer.plan.k == sum(shard.k for shard in shards)
        assert answer.plan.n == sum(shard.n for shard in shards)
        assert answer.plan.delta == SPEC.delta
        assert answer.plan.alpha > SPEC.alpha  # the boosted tolerance
        spent = routed4.accountant.spent(routed4.dataset) - before
        assert spent == answer.plan.epsilon_prime

    def test_provenance_partitions_the_fleet(self, routed4):
        answer = routed4.answer(
            RangeQuery(low=10.0, high=30.0), SPEC, consumer="x"
        )
        touched = tuple(
            j
            for j in range(4)
            if j not in answer.pruned_shards and j not in answer.exact_shards
        )
        ids = sorted(answer.pruned_shards + answer.exact_shards + touched)
        assert ids == [0, 1, 2, 3]
        if answer.route_signature != "b":
            assert answer.route_signature.startswith("p")
            assert ";x" in answer.route_signature
            assert ";q" in answer.route_signature

    def test_route_is_memoized_and_deterministic(self, routed4):
        first = routed4.route_for_range(10.0, 30.0, SPEC)
        second = routed4.route_for_range(10.0, 30.0, SPEC)
        assert second == first
        assert second is first  # cache hit returns the stored plan


class TestSingleShardBitIdentity:
    def test_single_shard_always_broadcasts(self, values):
        broker = ClusterBroker.from_values(
            values, k=16, shards=1, seed=13, partition="range-sharded"
        )
        broker.ensure_rate(0.5)
        band = broker.shards[0].band
        # Even a band-covering query must NOT answer from cached totals:
        # that would break bit-identity with the plain DataBroker.
        route = broker.route_for_range(band.low, band.high, SPEC)
        assert not route.routed
        assert route.signature == "b"
        answer = broker.answer(
            RangeQuery(low=band.low, high=band.high), SPEC, consumer="x"
        )
        assert answer.exact_shards == ()
        assert answer.plan.epsilon_prime > 0.0


class TestRoutingTelemetry:
    def test_counters_cover_pruning_and_split(self, values):
        telemetry = MetricsRegistry()
        broker = ClusterBroker.from_values(
            values, k=16, shards=4, seed=13, partition="range-sharded"
        )
        broker.telemetry = telemetry
        broker.ensure_rate(0.5)
        band = broker.shards[0].band
        boundary = broker.shards[1].band.high
        broker.answer(RangeQuery(low=-20.0, high=-10.0), SPEC, consumer="x")
        broker.answer(
            RangeQuery(low=band.low, high=band.high), SPEC, consumer="x"
        )
        broker.answer(
            RangeQuery(low=boundary - 5.0, high=boundary + 5.0),
            SPEC,
            consumer="x",
        )
        snapshot = telemetry.snapshot()
        pruned = broker.telemetry.histogram("cluster.shards_pruned")
        touched = broker.telemetry.histogram("cluster.shards_touched")
        assert pruned.count == 3
        assert pruned.sum > 0.0
        assert touched.count == 3
        assert telemetry.value("cluster.routed_queries") == 3.0
        assert telemetry.value("cluster.metadata_answers") == 2.0
        # The straddler touches two shards; the other two queries none.
        assert touched.sum == 2.0
        assert "cluster.shards_pruned" in snapshot["histograms"]


def old_split_epsilon(
    broker: ClusterBroker, route: RoutePlan, delta: float, p: float
) -> float:
    """The retired per-shard lane's ε′ for ``route`` at rate ``p``.

    Every queried shard planned on its own at ``(α_t, δ^(1/t))`` and the
    release was charged the max over them (parallel composition).
    """
    sub = AccuracySpec(alpha=route.spec.alpha, delta=delta ** (1.0 / route.touched))
    return max(
        QueryPlanner(k=broker.shards[j].k, n=broker.shards[j].n).plan(sub, p).epsilon_prime
        for j in route.queried
    )


class TestPooledEpsilon:
    @given(
        shards=st.integers(min_value=2, max_value=8),
        per_shard=st.integers(min_value=1, max_value=3),
        records=st.integers(min_value=800, max_value=3000),
        alpha=st.floats(min_value=0.03, max_value=0.3),
        delta=st.floats(min_value=0.3, max_value=0.9),
        quantiles=st.tuples(
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_pooled_plan_never_spends_more_than_the_split(
        self, shards, per_shard, records, alpha, delta, quantiles, seed
    ):
        values = np.random.default_rng(seed).gamma(2.0, 10.0, records)
        broker = ClusterBroker.from_values(
            values,
            k=shards * per_shard,
            shards=shards,
            seed=seed,
            partition="range-sharded",
            replicas=False,
        )
        low, high = sorted(float(np.quantile(values, q)) for q in quantiles)
        spec = AccuracySpec(alpha=alpha, delta=delta)
        route = broker.route_for_range(low, high, spec)
        assume(route.queried)
        sub = AccuracySpec(alpha=route.spec.alpha, delta=delta ** (1.0 / route.touched))
        p = min(1.0, max(
            QueryPlanner(k=broker.shards[j].k, n=broker.shards[j].n).required_rate(sub)
            for j in route.queried
        ))
        assume(all(
            QueryPlanner(k=broker.shards[j].k, n=broker.shards[j].n).supports(sub, p)
            for j in route.queried
        ))
        pooled = broker.planner.plan_for_range(low, high, spec, p).epsilon_prime
        split = old_split_epsilon(broker, route, delta, p)
        if route.touched == 1:
            assert pooled == split
        else:
            assert pooled <= split
