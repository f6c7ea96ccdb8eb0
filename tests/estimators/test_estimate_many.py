"""Tests for the vectorized batch-query path of RankCounting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidQueryError
from repro.estimators.base import NodeData, NodeSample
from repro.estimators.rank import RankCountingEstimator


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
