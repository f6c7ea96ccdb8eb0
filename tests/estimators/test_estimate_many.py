"""Tests for the vectorized batch-query path of RankCounting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import AccuracySpec, RangeQuery
from repro.errors import InvalidQueryError
from repro.estimators.base import NodeData, NodeSample
from repro.estimators.rank import RankCountingEstimator, RankIndex


def assert_bits_equal(batch, scalar):
    """Bitwise float comparison: equal int64 views, no tolerance."""
    batch = np.asarray(batch, dtype=np.float64)
    scalar = np.asarray(scalar, dtype=np.float64)
    assert batch.shape == scalar.shape
    assert np.array_equal(batch.view(np.int64), scalar.view(np.int64)), (
        batch,
        scalar,
    )


def scalar_path(est, samples, ranges):
    return [est.estimate(samples, low, high).estimate for low, high in ranges]


@pytest.fixture
def samples(uniform_nodes, rng):
    return [n.sample(0.2, rng) for n in uniform_nodes]


class TestEquivalence:
    def test_matches_single_query_path(self, samples):
        est = RankCountingEstimator()
        ranges = [(0.0, 100.0), (10.0, 20.0), (50.0, 50.0), (99.0, 120.0),
                  (-10.0, -5.0)]
        batch = est.estimate_many(samples, ranges)
        assert_bits_equal(batch, scalar_path(est, samples, ranges))

    def test_empty_sample_handled(self):
        empty = NodeSample(node_id=1, values=np.array([]),
                           ranks=np.array([]), node_size=7, p=0.3)
        est = RankCountingEstimator()
        batch = est.estimate_many([empty], [(0.0, 1.0), (2.0, 3.0)])
        assert list(batch) == [7.0, 7.0]

    def test_empty_ranges(self, samples):
        out = RankCountingEstimator().estimate_many(samples, [])
        assert out.shape == (0,)

    def test_validation(self, samples):
        est = RankCountingEstimator()
        with pytest.raises(ValueError):
            est.estimate_many([], [(0.0, 1.0)])
        with pytest.raises(InvalidQueryError):
            est.estimate_many(samples, [(2.0, 1.0)])
        with pytest.raises(InvalidQueryError):
            est.estimate_many(samples, [(0.0, float("inf"))])

    def test_mixed_rate_rejected_like_scalar(self, uniform_nodes, rng):
        """Parity: mixed-p sample lists raise on both paths (rank.py)."""
        est = RankCountingEstimator()
        mixed = [
            uniform_nodes[0].sample(0.2, rng),
            uniform_nodes[1].sample(0.5, rng),
        ]
        with pytest.raises(ValueError, match="share one sampling rate"):
            est.estimate(mixed, 0.0, 50.0)
        with pytest.raises(ValueError, match="share one sampling rate"):
            est.estimate_many(mixed, [(0.0, 50.0)])

    def test_mixed_rate_on_empty_node_tolerated_like_scalar(self, rng):
        """An empty node's p is ignored by both paths, like in estimate()."""
        est = RankCountingEstimator()
        full = NodeData(node_id=1, values=rng.uniform(0, 100, 50)).sample(
            0.4, rng
        )
        empty = NodeSample(node_id=2, values=np.array([]),
                           ranks=np.array([]), node_size=0, p=0.9)
        scalar = est.estimate([full, empty], 10.0, 60.0).estimate
        batch = est.estimate_many([full, empty], [(10.0, 60.0)])
        assert batch[0] == scalar


class TestBasicCountingBatch:
    def test_matches_single_query_path(self, samples):
        from repro.estimators.basic import BasicCountingEstimator

        est = BasicCountingEstimator()
        ranges = [(0.0, 100.0), (10.0, 20.0), (50.0, 50.0), (-5.0, -1.0)]
        batch = est.estimate_many(samples, ranges)
        assert_bits_equal(batch, scalar_path(est, samples, ranges))

    def test_validation(self, samples):
        from repro.estimators.basic import BasicCountingEstimator

        est = BasicCountingEstimator()
        with pytest.raises(ValueError):
            est.estimate_many([], [(0.0, 1.0)])
        with pytest.raises(InvalidQueryError):
            est.estimate_many(samples, [(2.0, 1.0)])
        assert est.estimate_many(samples, []).shape == (0,)


class TestSeededFuzzEquivalence:
    """Seeded fuzz: batch equals scalar bit for bit over adversarial fleets.

    Each trial mixes the cases the four-case rule branches on: empty
    nodes, nodes whose sample has no witnesses, heavy duplicate-value
    ties, and query bounds sitting exactly on data values.
    """

    @pytest.mark.parametrize("seed", range(25))
    def test_batch_bit_identical_to_scalar(self, seed):
        rng = np.random.default_rng(seed)
        est = RankCountingEstimator()
        nodes = []
        for node_id in range(1, int(rng.integers(2, 7)) + 1):
            kind = rng.integers(0, 3)
            if kind == 0:
                values = np.zeros(0)  # empty node
            elif kind == 1:
                # Duplicate-heavy integer data: many exact ties.
                values = rng.integers(0, 8, rng.integers(1, 80)).astype(float)
            else:
                values = rng.uniform(0, 100, rng.integers(1, 80))
            nodes.append(NodeData(node_id=node_id, values=values))
        # A tiny p makes no-witness samples likely on small nodes.
        p = float(rng.choice([0.05, 0.3, 1.0]))
        samples = [n.sample(p, rng) for n in nodes]

        bounds = []
        for _ in range(12):
            lo, hi = sorted(rng.uniform(-10, 110, 2))
            bounds.append((float(lo), float(hi)))
        # Bounds exactly on data values exercise the tie handling.
        non_empty = [n.values for n in nodes if n.size > 0]
        concat = np.concatenate(non_empty) if non_empty else np.zeros(0)
        if len(concat) >= 2:
            v = float(np.sort(concat)[len(concat) // 2])
            bounds.append((v, v))
            bounds.append((float(concat.min()), v))

        batch = est.estimate_many(samples, bounds)
        assert_bits_equal(batch, scalar_path(est, samples, bounds))


@given(
    count=st.integers(min_value=0, max_value=60),
    p=st.floats(min_value=0.05, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
    bounds=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.floats(min_value=0, max_value=100, allow_nan=False),
        ).map(lambda t: (min(t), max(t))),
        min_size=1,
        max_size=10,
    ),
)
@settings(max_examples=150, deadline=None)
def test_batch_always_matches_scalar(count, p, seed, bounds):
    """Property: the vectorized path is pointwise identical to the scalar."""
    rng = np.random.default_rng(seed)
    node = NodeData(node_id=1, values=rng.uniform(0, 100, count))
    sample = node.sample(p, np.random.default_rng(seed + 1))
    est = RankCountingEstimator()
    batch = est.estimate_many([sample], bounds)
    assert_bits_equal(batch, scalar_path(est, [sample], bounds))


def _node_sample(node_id, kind, size, p, seed):
    """One node's sample of a given shape (see ``fleets`` below)."""
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return NodeSample(node_id=node_id, values=np.zeros(0),
                          ranks=np.zeros(0, dtype=np.int64), node_size=0, p=p)
    if kind == "unsampled":
        # A populated node whose Bernoulli draw kept nothing.
        return NodeSample(node_id=node_id, values=np.zeros(0),
                          ranks=np.zeros(0, dtype=np.int64),
                          node_size=size, p=p)
    if kind == "duplicates":
        values = rng.integers(0, 6, size).astype(float) * 10.0
    else:
        values = rng.uniform(0.0, 100.0, size)
    return NodeData(node_id=node_id, values=values).sample(p, rng)


fleets = st.lists(
    st.tuples(
        st.sampled_from(["zero", "unsampled", "duplicates", "uniform"]),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=0, max_value=2**31),
    ),
    min_size=1,
    max_size=8,
)
fleet_ranges = st.lists(
    st.one_of(
        # Inside the data, bounds often landing on duplicate values.
        st.tuples(st.integers(0, 10), st.integers(0, 10)).map(
            lambda t: (10.0 * min(t), 10.0 * max(t))
        ),
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.floats(min_value=0, max_value=100, allow_nan=False),
        ).map(lambda t: (min(t), max(t))),
        st.just((-50.0, -1.0)),    # below all data
        st.just((101.0, 500.0)),   # above all data
        st.just((-1.0, 101.0)),    # across all data
        st.just((-1e9, 1e9)),
    ),
    min_size=1,
    max_size=12,
)


@given(
    fleet=fleets,
    p=st.sampled_from([0.05, 0.3, 0.37, 1.0]),
    bounds=fleet_ranges,
)
@settings(max_examples=200, deadline=None)
def test_batch_bit_identical_over_mixed_fleets(fleet, p, bounds):
    """Property: node-stacked batch ≡ scalar, bitwise, on any fleet mix.

    Fleets mix duplicate-valued nodes, ``node_size == 0`` nodes and
    populated nodes with empty samples next to ordinary ones.
    """
    samples = [
        _node_sample(node_id, kind, size, p, seed)
        for node_id, (kind, size, seed) in enumerate(fleet, start=1)
    ]
    est = RankCountingEstimator()
    batch = est.estimate_many(samples, bounds)
    assert_bits_equal(batch, scalar_path(est, samples, bounds))


# ----------------------------------------------------------------------
# the rank index: built once per sample set, reused by every batch
# ----------------------------------------------------------------------
shared_value_fleets = st.lists(
    st.tuples(
        st.sampled_from(["zero", "unsampled", "ties", "ties", "uniform"]),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2**31),
    ),
    min_size=1,
    max_size=6,
)


def _tied_sample(node_id, kind, size, p, seed):
    """Like ``_node_sample``, but ``ties`` nodes all draw from one small
    value set, so equal values sit on several nodes at once."""
    if kind != "ties":
        return _node_sample(node_id, kind, size, p, seed)
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 4, size).astype(float) * 10.0
    return NodeData(node_id=node_id, values=values).sample(p, rng)


@given(
    fleet=shared_value_fleets,
    p=st.sampled_from([0.05, 0.3, 1.0]),
    batches=st.lists(fleet_ranges, min_size=1, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_rank_index_matches_scalar_across_batches(fleet, p, batches):
    """Property: one index, reused batch after batch, ≡ scalar bitwise.

    Fleets put equal values on several nodes, duplicates within a node,
    ``node_size == 0`` nodes and populated nodes with empty samples side
    by side; ranges also sit on the merged data's edges.
    """
    samples = [
        _tied_sample(node_id, kind, size, p, seed)
        for node_id, (kind, size, seed) in enumerate(fleet, start=1)
    ]
    index = RankIndex(samples)
    assert list(index) == samples and len(index) == len(samples)
    est = RankCountingEstimator()
    merged = index.merged
    edges = [(float(merged[0]), float(merged[-1])), (float(merged[0]),) * 2,
             (float(merged[-1]),) * 2] if len(merged) else []
    for bounds in batches + ([edges] if edges else []):
        assert_bits_equal(
            est.estimate_many(index, bounds), scalar_path(est, samples, bounds)
        )


class TestRankIndexStaleness:
    """Every index owner rebuilds when its sample set changes."""

    RANGES = [(0.0, 100.0), (20.0, 70.0), (35.5, 36.5), (-5.0, 3.0)]

    @staticmethod
    def fresh(samples, ranges):
        return RankCountingEstimator().estimate_many(list(samples), ranges)

    def test_base_station_top_up(self, uniform_nodes):
        from repro.core.service import PrivateRangeCountingService

        values = np.concatenate([n.values for n in uniform_nodes])
        service = PrivateRangeCountingService.from_values(values, k=5, seed=3)
        station = service.station
        station.ensure_rate(0.1)
        before = station.rank_index()
        assert station.rank_index() is before  # reused within a round
        station.ensure_rate(0.4)
        after = station.rank_index()
        assert after is not before
        # The broker's release path estimates from the rebuilt index.
        answers = service.broker.answer_batch(
            [RangeQuery(low=lo, high=hi) for lo, hi in self.RANGES],
            AccuracySpec(alpha=0.3, delta=0.3),
        )
        assert station.sampling_rate == 0.4  # no further top-up ran
        assert_bits_equal(
            np.array([answer.sample_estimate for answer in answers]),
            self.fresh(station.samples(), self.RANGES),
        )

    def test_replica_sync_from(self, uniform_nodes):
        from repro.core.service import PrivateRangeCountingService

        values = np.concatenate([n.values for n in uniform_nodes])
        primary = PrivateRangeCountingService.from_values(values, k=5, seed=3)
        replica = PrivateRangeCountingService.from_values(values, k=5, seed=4)
        primary.station.collect(0.2)
        replica.station.collect(0.2)
        stale = replica.station.rank_index()
        primary.station.ensure_rate(0.5)
        replica.station.sync_from(primary.station)
        assert replica.station.rank_index() is not stale
        assert_bits_equal(
            RankCountingEstimator().estimate_many(
                replica.station.rank_index(), self.RANGES
            ),
            self.fresh(primary.station.samples(), self.RANGES),
        )

    def test_streaming_roll(self):
        from repro.pricing.functions import InverseVariancePricing
        from repro.pricing.variance_model import VarianceModel
        from repro.streaming.broker import StreamingBroker, StreamingStation
        from repro.streaming.window import EpochSummary

        def summary(epoch):
            rng = np.random.default_rng(epoch)
            samples = tuple(
                NodeData(node_id=i, values=rng.uniform(0, 100, 60)).sample(0.5, rng)
                for i in (1, 2, 3)
            )
            return EpochSummary(epoch=epoch, samples=samples,
                                record_count=180, rate=0.5)

        station = StreamingStation(window_epochs=2)
        floor = AccuracySpec(alpha=0.9, delta=0.1)
        broker = StreamingBroker(
            station=station,
            pricing=InverseVariancePricing(VarianceModel(n=360)),
            floor=floor,
        )
        queries = [
            RangeQuery(low=lo, high=hi, dataset="stream") for lo, hi in self.RANGES
        ]
        for epoch in range(4):
            station.commit_roll([summary(epoch)])
            epochs = station.snapshot().epochs
            expected = np.zeros(len(self.RANGES))
            for live in epochs:
                expected += self.fresh(live.samples, self.RANGES)
            answers = broker.answer_batch(queries, floor)
            assert_bits_equal(
                np.array([answer.sample_estimate for answer in answers]), expected
            )
            assert [e.epoch for e in epochs] == list(range(max(0, epoch - 1), epoch + 1))

    def test_cluster_failover_to_a_diverged_replica(self, uniform_nodes):
        from repro.cluster.broker import ClusterBroker

        values = np.concatenate([n.values for n in uniform_nodes])
        cluster = ClusterBroker.from_values(values, k=8, shards=2, seed=3)
        cluster.ensure_rate(0.3)
        spec = AccuracySpec(alpha=0.1, delta=0.5)
        queries = [RangeQuery(low=lo, high=hi) for lo, hi in self.RANGES]

        def expected(answers):
            out = []
            for query, answer in zip(queries, answers):
                route = cluster.route_for_range(query.low, query.high, spec)
                pooled = [s for j in route.queried for s in cluster.shards[j].samples()]
                estimate = float(route.exact_n)
                if pooled:
                    estimate += self.fresh(pooled, [(query.low, query.high)])[0]
                out.append(estimate)
            return out

        healthy = cluster.answer_batch(queries, spec, consumer="c")
        assert [a.sample_estimate for a in healthy] == expected(healthy)
        # The primary's radio dies mid-round: the replica runs the round
        # alone and now holds a denser sample than the stale primary.
        shard = cluster.shards[0]
        shard.cut_primary_link()
        cluster.ensure_rate(0.6)
        assert not shard.primary_alive
        assert shard.replica_station.sampling_rate > shard.primary_station.sampling_rate
        degraded = cluster.answer_batch(queries, spec, consumer="c")
        assert any(a.degraded_shards for a in degraded)
        assert [a.sample_estimate for a in degraded] == expected(degraded)
