"""A standing ``(α, δ)`` range query served over a rolling window.

End-to-end properties of continuous monitoring on the streaming
pipeline: the window's record/node accounting, the per-roll calibration
law, release legality and accuracy against the exact window count, and
the lifetime privacy cap that retires a standing query.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import AccuracySpec, RangeQuery
from repro.core.service import PrivateRangeCountingService
from repro.errors import InfeasiblePlanError, PrivacyBudgetExceededError
from repro.privacy.budget import BudgetAccountant
from repro.streaming.runtime import StreamingConfig, build_streaming_cluster

SPEC = AccuracySpec(alpha=0.15, delta=0.5)
QUERY = RangeQuery(low=20.0, high=70.0, dataset="stream")


def make_cluster(devices=4, window_epochs=4, seed=3, spec=SPEC, **kwargs):
    return build_streaming_cluster(StreamingConfig(
        shards=1,
        devices_per_shard=devices,
        window_epochs=window_epochs,
        floor=spec,
        seed=seed,
        **kwargs,
    ))


def window(size, seed):
    return np.random.default_rng(seed).uniform(0, 100, size)


def roll_in(cluster, values):
    """Ship ``values`` as the open epoch's arrivals, then roll.

    Returns the rate the coordinator sealed the epoch at.
    """
    epoch = cluster.open_epoch
    cluster.ingest(values, np.full(len(values), float(epoch)))
    rate = cluster.epoch_rate()
    cluster.roll()
    return rate


def in_range(values, query=QUERY):
    return int(np.count_nonzero((values >= query.low) & (values <= query.high)))


class TestWindowShape:
    def test_window_accounting(self):
        cluster = make_cluster(devices=4, window_epochs=2)
        roll_in(cluster, window(800, 1))
        roll_in(cluster, window(400, 2))
        snapshot = cluster.station.snapshot()
        assert len(snapshot.epochs) == 2
        assert snapshot.record_count == 1200
        assert snapshot.node_count == 8
        # A third roll evicts the oldest epoch from the window.
        roll_in(cluster, window(100, 3))
        snapshot = cluster.station.snapshot()
        assert snapshot.live_epochs == (1, 2)
        assert snapshot.record_count == 500

    def test_rate_decreases_as_data_grows(self):
        cluster = make_cluster()
        p1 = roll_in(cluster, window(500, 1))
        p2 = roll_in(cluster, window(5000, 2))
        assert p2 < p1

    def test_bad_fleet_shape_rejected(self):
        with pytest.raises(ValueError):
            StreamingConfig(devices_per_shard=0)
        with pytest.raises(ValueError):
            StreamingConfig(window_epochs=0)


class TestReleases:
    def test_window_too_young_for_the_floor_refuses(self):
        # 50 records over 4 devices cannot certify α = 0.15 even at p = 1.
        cluster = make_cluster(devices=4)
        roll_in(cluster, window(50, 1))
        with pytest.raises(InfeasiblePlanError):
            cluster.broker.answer(QUERY, SPEC, "dashboard")
        assert cluster.broker.accountant.spent("stream") == 0.0

    def test_release_provenance(self):
        cluster = make_cluster()
        roll_in(cluster, window(1000, 1))
        answer = cluster.broker.answer(QUERY, SPEC, "dashboard")
        assert 0.0 <= answer.value <= 1000
        assert answer.epsilon_prime > 0
        assert answer.plan.epsilon_prime <= answer.plan.epsilon
        assert cluster.broker.routing_signature(QUERY, SPEC) == (
            cluster.station.snapshot().window_id
        )

    def test_within_tolerance_frequency(self):
        """Releases meet the standing (α, δ) guarantee across seeds."""
        hits, trials = 0, 40
        for seed in range(trials):
            cluster = make_cluster(seed=seed)
            first, second = window(600, seed), window(600, seed + 1000)
            roll_in(cluster, first)
            roll_in(cluster, second)
            answer = cluster.broker.answer(QUERY, SPEC, "dashboard")
            truth = in_range(np.concatenate([first, second]))
            if abs(answer.value - truth) <= SPEC.alpha * 1200:
                hits += 1
        assert hits / trials >= SPEC.delta

    def test_estimate_tracks_growing_truth(self):
        """As in-range data accumulates, releases grow accordingly."""
        cluster = make_cluster(seed=9, window_epochs=8)
        values = []
        for i in range(5):
            batch = window(500, 100 + i)
            values.append(batch)
            roll_in(cluster, batch)
        answer = cluster.broker.answer(QUERY, SPEC, "dashboard")
        truth = in_range(np.concatenate(values))
        assert abs(answer.value - truth) <= SPEC.alpha * 2500

    def test_privacy_accumulates_over_releases(self):
        cluster = make_cluster()
        roll_in(cluster, window(800, 1))
        r1 = cluster.broker.answer(QUERY, SPEC, "dashboard")
        roll_in(cluster, window(800, 2))
        r2 = cluster.broker.answer(QUERY, SPEC, "dashboard")
        assert cluster.broker.accountant.spent("stream") == pytest.approx(
            r1.epsilon_prime + r2.epsilon_prime
        )
        assert len(cluster.broker.ledger.transactions) == 2

    def test_lifetime_cap_retires_the_query(self):
        cluster = make_cluster()
        cluster.broker.accountant = BudgetAccountant(capacity=0.05)
        roll_in(cluster, window(800, 1))
        served = 0
        with pytest.raises(PrivacyBudgetExceededError):
            for _ in range(10_000):
                cluster.broker.answer(QUERY, SPEC, "dashboard")
                served += 1
        assert served >= 1
        assert cluster.broker.accountant.spent("stream") <= 0.05 + 1e-12

    def test_standing_query_and_broker_share_one_budget(self, citypulse_small):
        """One accountant governs both ad-hoc queries and the standing
        query: the cap binds their *combined* leakage."""
        accountant = BudgetAccountant(capacity=0.05)
        values = citypulse_small.values("ozone")
        service = PrivateRangeCountingService.from_values(
            values, k=6, dataset="ozone", seed=21
        )
        service.broker.accountant = accountant
        cluster = make_cluster(seed=5, dataset="ozone")
        cluster.broker.accountant = accountant
        roll_in(cluster, values[:800])
        query = RangeQuery(low=70.0, high=110.0, dataset="ozone")

        service.answer(70.0, 110.0, alpha=0.2, delta=0.4)
        cluster.broker.answer(query, SPEC, "dashboard")
        assert accountant.spent("ozone") > 0
        with pytest.raises(PrivacyBudgetExceededError):
            for _ in range(10_000):
                cluster.broker.answer(query, SPEC, "dashboard")
        assert accountant.spent("ozone") <= 0.05 + 1e-12


@given(
    sizes=st.lists(
        st.integers(min_value=1, max_value=400), min_size=1, max_size=6
    ),
    devices=st.integers(min_value=1, max_value=6),
    window_epochs=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=40, deadline=None)
def test_window_accounting_invariants(sizes, devices, window_epochs, seed):
    """Window/record/node accounting always adds up over the live epochs."""
    cluster = make_cluster(devices, window_epochs, seed)
    rng = np.random.default_rng(seed + 1)
    live = deque(maxlen=window_epochs)
    for size in sizes:
        roll_in(cluster, rng.uniform(0, 100, size))
        live.append(size)
    snapshot = cluster.station.snapshot()
    assert len(snapshot.epochs) == len(live)
    assert snapshot.record_count == sum(live)
    assert snapshot.node_count == sum(min(devices, size) for size in live)


@given(
    sizes=st.lists(
        st.integers(min_value=100, max_value=400), min_size=1, max_size=5
    ),
    devices=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=30, deadline=None)
def test_releases_always_legal(sizes, devices, seed):
    """Every release is a legal count of the live window.

    Windows start at 100 records so the floor is certifiable; younger
    ones refuse (see ``test_window_too_young_for_the_floor_refuses``).
    """
    cluster = make_cluster(devices, window_epochs=3, seed=seed)
    rng = np.random.default_rng(seed + 1)
    released = []
    for size in sizes:
        roll_in(cluster, rng.uniform(0, 100, size))
        answer = cluster.broker.answer(QUERY, SPEC, "dashboard")
        released.append(answer.epsilon_prime)
        assert 0.0 <= answer.value <= cluster.station.snapshot().record_count
        assert answer.plan.epsilon_prime <= answer.plan.epsilon
    assert cluster.broker.accountant.spent("stream") == pytest.approx(
        sum(released)
    )


@given(
    sizes=st.lists(
        st.integers(min_value=100, max_value=400), min_size=2, max_size=5
    ),
    devices=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=30, deadline=None)
def test_epoch_rates_follow_calibration_law(sizes, devices, seed):
    """Epoch rates obey Theorem 3.3's scaling exactly: p ∝ √k_eff / n.

    With nothing evicted, each roll's rate satisfies ``p · n / √k_eff`` =
    constant whenever the rate is unclipped, where ``n`` counts the
    window's records after the roll and ``k_eff`` its node samples plus
    every device (each may contribute a sample this epoch).
    """
    cluster = make_cluster(devices, window_epochs=len(sizes), seed=seed)
    rng = np.random.default_rng(seed + 1)
    invariants = []
    for size in sizes:
        before = cluster.station.snapshot()
        p = roll_in(cluster, rng.uniform(0, 100, size))
        if p < 1.0:
            n = before.record_count + size
            k_eff = before.node_count + devices
            invariants.append(p * n / np.sqrt(k_eff))
    for a, b in zip(invariants, invariants[1:]):
        assert a == pytest.approx(b, rel=1e-9)
