"""The one-pass cluster gather: one masked estimate per dispatch.

A cluster dispatch reads each queried shard once, indexes the read set,
and estimates every admitted row in one ``estimate_many`` call whose
mask keeps each row to its touched shards' nodes.  These tests hold it
to the pooled algorithm it replaced -- one rank index and one
``estimate_many`` per touched shard set, plus the exact-cover total --
bit for bit, and to that algorithm's refusal scope for shards sampled at
different rates.
"""

from __future__ import annotations

import copy
import struct
from typing import List, Sequence, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cluster.broker import ClusterAnswer, ClusterBroker
from repro.cluster.shard import PARTITION_STRATEGIES
from repro.core.query import AccuracySpec, RangeQuery
from repro.datasets.partition import ShardBounds, partition_range_sharded
from repro.estimators import rank
from repro.estimators.rank import RankCountingEstimator, RankIndex
from repro.privacy.laplace import sample_laplace_many

TIERS = (AccuracySpec(alpha=0.1, delta=0.5), AccuracySpec(alpha=0.2, delta=0.6))


def _values(seed: int = 42) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, 100.0, 2000)


def _holed(values: np.ndarray, k: int, seed: int) -> "Tuple[list, ShardBounds]":
    """Range-sharded, with node 2's records moved onto node 1: both sit
    in shard 0, whose band is unchanged, and node 2 holds no records."""
    parts, _ = partition_range_sharded(values, k, with_bounds=True)
    parts[0] = np.concatenate([parts[0], parts[1]])
    parts[1] = parts[1][:0]
    return parts, ShardBounds.from_parts(parts)


def _cluster(partition: str) -> ClusterBroker:
    """A 4-shard, 8-device cluster provisioned for every tier."""
    with mock.patch.dict(PARTITION_STRATEGIES, {"holed": _holed}):
        broker = ClusterBroker.from_values(
            _values(), k=8, shards=4, seed=13, partition=partition
        )
    broker.ensure_rate(max(broker.planner.required_rate(t) for t in TIERS))
    return broker


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _reference(
    broker: ClusterBroker,
    rows: Sequence[Tuple[float, float, AccuracySpec]],
) -> "Tuple[List[float], List[float], List[float], List[float]]":
    """Each row's ``sample_estimate``, ``raw_value``, ``value`` and ε′ as
    the per-touched-set algorithm computes them: a rank index over the
    row's touched shards' samples, ``estimate_many`` over it, the
    exact-cover total added, and the dispatch's noise from a copy of
    the broker's generator."""
    reads = {j: shard.read_samples(gate=False) for j, shard in enumerate(broker.shards)}
    rate = broker.base_station.sampling_rate
    estimates, plans = [], []
    for low, high, spec in rows:
        route = broker.route_for_range(low, high, spec)
        plans.append(broker.planner.plan_for_range(low, high, spec, rate))
        offset = np.array([float(route.exact_n)])
        if route.queried:
            index = RankIndex([s for j in route.queried for s in reads[j].samples])
            offset = offset + RankCountingEstimator().estimate_many(index, [(low, high)])
        estimates.append(float(offset[0]))
    sampled = [bool(broker.route_for_range(lo, hi, s).queried) for lo, hi, s in rows]
    noise = np.zeros(len(rows))
    noise[np.asarray(sampled, dtype=bool)] = sample_laplace_many(
        [plan.noise_scale for plan, used in zip(plans, sampled) if used],
        copy.deepcopy(broker.rng),
    )
    raw = np.asarray(estimates) + noise
    released = np.clip(raw, 0.0, float(broker.n))
    return estimates, list(raw), list(released), [p.epsilon_prime for p in plans]


def _dispatch(
    broker: ClusterBroker, rows: Sequence[Tuple[float, float, AccuracySpec]]
) -> List[ClusterAnswer]:
    outcomes = broker.answer_batch(
        [RangeQuery(low, high) for low, high, _ in rows],
        [spec for _, _, spec in rows],
        [f"c{i % 3}" for i in range(len(rows))],
    )
    for outcome in outcomes:
        assert isinstance(outcome, ClusterAnswer), outcome
    return outcomes


# Range bounds on the 0..100 value domain, extended past both ends so
# all-pruned and band-covering ranges come up.
_bound = st.floats(min_value=-5.0, max_value=105.0, allow_nan=False)
_row = st.tuples(_bound, _bound, st.sampled_from(TIERS)).map(
    lambda r: (min(r[0], r[1]), max(r[0], r[1]), r[2])
)
_step = st.one_of(
    st.lists(_row, min_size=1, max_size=12),
    st.tuples(st.just("kill"), st.integers(min_value=0, max_value=3)),
)

#: Pruned everywhere (t = 0), exactly shard 1's band or more (t = 0 with
#: an exact cover, or t = 2 around it), inside shard 0 where node 2 is
#: empty (t = 1), across the 1/2 boundary (t = 2).
_KINDS = [
    (-4.0, -1.0, TIERS[0]),
    (24.0, 51.0, TIERS[1]),
    (3.0, 9.0, TIERS[0]),
    (45.0, 55.0, TIERS[1]),
]


@settings(
    max_examples=25,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.sampled_from(["holed", "even"]),
    st.lists(_step, min_size=1, max_size=5),
    st.integers(min_value=0, max_value=5),
)
@example("holed", [_KINDS, ("kill", 0), _KINDS, _KINDS], 2)
@example("even", [_KINDS, ("kill", 2), _KINDS], 1)
@example("holed", [[(0.0, 100.0, TIERS[0])] * 3 + _KINDS[:1]], 0)
def test_gather_matches_the_per_touched_set_algorithm(partition, steps, bump_at):
    broker = _cluster(partition)
    for at, step in enumerate(steps):
        if at == bump_at:
            # A new round on every shard: the next read set must re-index.
            # One only: a second top-up trips over the record-less node
            # (its sample keeps the first rate).
            broker.ensure_rate(min(0.999, broker.base_station.sampling_rate * 1.25))
        if step[0] == "kill":
            broker.shards[step[1]].fail_primary()
            continue
        expected = _reference(broker, step)
        answers = _dispatch(broker, step)
        for name, column in zip(
            ("sample_estimate", "raw_value", "value"), expected[:3]
        ):
            assert [_bits(getattr(a, name)) for a in answers] == [
                _bits(v) for v in column
            ], name
        assert [a.plan.epsilon_prime for a in answers] == expected[3]


def test_gather_covers_every_touched_count():
    """The fixed examples route with t = 0, 1, 2 and 4 and hit a
    node holding no records."""
    holed, even = _cluster("holed"), _cluster("even")
    touched = {holed.route_for_range(lo, hi, s).touched for lo, hi, s in _KINDS}
    touched |= {even.route_for_range(lo, hi, s).touched for lo, hi, s in _KINDS}
    assert touched == {0, 1, 2, 4}
    assert any(s.node_size == 0 for s in holed.shards[0].samples())
    assert holed.route_for_range(*_KINDS[2]).queried == (0,)


def test_one_estimate_call_per_dispatch(monkeypatch):
    broker = _cluster("holed")
    calls: List[int] = []
    real = RankCountingEstimator.estimate_many

    def counted(self, samples, ranges, nodes=None):
        calls.append(len(ranges))
        return real(self, samples, ranges, nodes)

    monkeypatch.setattr(RankCountingEstimator, "estimate_many", counted)
    _dispatch(broker, _KINDS)
    assert calls == [len(_KINDS)]


def test_store_version_bump_rebuilds_the_index():
    broker = _cluster("holed")
    _dispatch(broker, _KINDS)
    before = next(iter(broker._indexes.values()))[1]
    _dispatch(broker, _KINDS)
    assert next(iter(broker._indexes.values()))[1] is before
    broker.ensure_rate(min(0.999, broker.base_station.sampling_rate * 1.25))
    _dispatch(broker, _KINDS)
    assert next(iter(broker._indexes.values()))[1] is not before


class TestMixedRateRefusalScope:
    """Shards sampled at different rates refuse only the dispatches
    that pool them together.

    The per-touched-set algorithm checks the shared rate over each
    touched set's samples: rows that each stay inside one shard answer
    even when the shards they read disagree on ``p``; a row that pools
    two such shards refuses the dispatch's fresh rows.  A read-set index
    checked as a whole would refuse both dispatches.
    """

    @pytest.fixture
    def mixed(self):
        broker = ClusterBroker.from_values(
            np.random.default_rng(42).uniform(0.0, 100.0, 4000),
            k=16, shards=4, seed=13, partition="range-sharded",
        )
        broker.ensure_rate(0.4)
        broker.shards[0].ensure_rate(1.5 * broker.shards[0].sampling_rate)
        rates = [round(shard.sampling_rate, 6) for shard in broker.shards]
        assert rates == [0.6, 0.4, 0.4, 0.4]
        return broker

    def _rows(self, broker: ClusterBroker, *ranges: "Tuple[float, float]"):
        spec = AccuracySpec(alpha=0.1, delta=0.5)
        return broker.answer_batch(
            [RangeQuery(low, high) for low, high in ranges],
            spec,
            [f"c{i}" for i in range(len(ranges))],
        )

    def test_rows_inside_single_shards_answer(self, mixed):
        edge = mixed.shards[0].band.high
        outcomes = self._rows(mixed, (edge - 10.0, edge - 5.0), (edge + 5.0, edge + 10.0))
        assert [type(o) for o in outcomes] == [ClusterAnswer, ClusterAnswer]
        assert [(o.exact_shards, o.pruned_shards) for o in outcomes] == [
            ((), (1, 2, 3)), ((), (0, 2, 3)),
        ]

    def test_a_row_pooling_both_rates_refuses_the_dispatch(self, mixed):
        edge = mixed.shards[0].band.high
        outcomes = self._rows(
            mixed, (edge - 10.0, edge - 5.0), (edge - 2.0, edge + 2.0),
            (edge + 5.0, edge + 10.0),
        )
        assert all(isinstance(o, ValueError) for o in outcomes), outcomes
        assert "share one sampling rate" in str(outcomes[0])


class TestMaskedEstimateMany:
    """``estimate_many`` with a node mask, against the unmasked call over
    each range's own nodes."""

    @pytest.fixture
    def samples(self):
        broker = _cluster("holed")
        return broker.base_station.samples()

    def test_each_range_sums_only_its_nodes(self, samples):
        index = RankIndex(samples)
        owners = [s for s in samples if s.node_size > 0]
        ranges = [(3.0, 9.0), (20.0, 60.0), (-1.0, 101.0), (50.0, 50.0)]
        rng = np.random.default_rng(5)
        nodes = rng.random((len(owners), len(ranges))) < 0.5
        nodes[:, 3] = False
        got = RankCountingEstimator().estimate_many(index, ranges, nodes=nodes)
        for r, (low, high) in enumerate(ranges):
            own = [s for s, keep in zip(owners, nodes[:, r]) if keep]
            want = (
                RankCountingEstimator().estimate_many(own, [(low, high)])[0]
                if own else 0.0
            )
            assert _bits(got[r]) == _bits(want)

    def test_rate_check_is_per_range(self, samples):
        index = RankIndex(samples)
        assert not index.mixed_rates
        index.rates[0, 0] += 0.1  # node 1 now disagrees with the rest
        index.mixed_rates = True
        nodes = np.zeros((index.rates.shape[0], 2), dtype=bool)
        nodes[1:, 0] = True
        nodes[:, 1] = True
        estimator = RankCountingEstimator()
        estimator.estimate_many(index, [(10.0, 20.0)], nodes=nodes[:, :1])
        with pytest.raises(ValueError, match="share one sampling rate"):
            estimator.estimate_many(index, [(10.0, 20.0)] * 2, nodes=nodes)
        with pytest.raises(ValueError, match="share one sampling rate"):
            estimator.estimate_many(index, [(10.0, 20.0)])


def test_node_estimates_are_the_scalar_rule():
    """The per-node matrix is the scalar four-case rule, node by node."""
    samples = _cluster("holed").base_station.samples()
    index = RankIndex(samples)
    lows, highs = np.array([3.0, 40.0]), np.array([9.0, 70.0])
    matrix = rank._node_estimates(index, lows, highs)
    owners = [s for s in samples if s.node_size > 0]
    for row, sample in zip(matrix, owners):
        assert list(map(_bits, row)) == [
            _bits(rank.rank_counting_node_estimate(sample, lo, hi))
            for lo, hi in zip(lows, highs)
        ]
