"""Replica failover: detection, degraded confidence, recovery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.broker import ClusterBroker
from repro.cluster.health import ShardHealthMonitor
from repro.core.query import AccuracySpec, RangeQuery
from repro.errors import ShardUnavailableError
from repro.resilience.hedging import HedgePolicy
from repro.serving.telemetry import MetricsRegistry


def make_monitored_cluster(values, k=8, shards=2, seed=3, telemetry=None):
    monitor = ShardHealthMonitor(
        interval=30.0, miss_threshold=2, telemetry=telemetry
    )
    cluster = ClusterBroker.from_values(
        values, k=k, shards=shards, seed=seed, monitor=monitor
    )
    cluster.telemetry = telemetry
    return cluster, monitor


class TestMonitorDrivenFailover:
    def test_kill_detect_degrade_revive(self, uniform_values):
        telemetry = MetricsRegistry()
        cluster, monitor = make_monitored_cluster(
            uniform_values, telemetry=telemetry
        )
        cluster.ensure_rate(0.3)
        spec = AccuracySpec(alpha=0.1, delta=0.5)
        query = RangeQuery(low=20.0, high=70.0)

        healthy = cluster.answer(query, spec, consumer="c")
        assert not healthy.degraded
        assert healthy.delta_reported == spec.delta

        monitor.kill_primary(0, detect=True)
        assert monitor.healthy_shards() == (1,)
        assert len(monitor.events) == 1
        assert monitor.events[0].shard_id == 0
        assert telemetry.value("cluster.failovers") == 1.0
        assert telemetry.value("cluster.shard0.primary_healthy") == 0.0

        degraded = cluster.answer(query, spec, consumer="c")
        assert degraded.degraded
        assert degraded.degraded_shards == (0,)
        assert degraded.delta_reported == pytest.approx(
            spec.delta * cluster.replica_confidence
        )
        assert telemetry.value("cluster.degraded_answers") >= 1.0
        # A degraded gather still charges and books normally.
        assert len(cluster.ledger.transactions) == 2

        monitor.revive_primary(0)
        assert monitor.healthy_shards() == (0, 1)
        assert telemetry.value("cluster.shard0.primary_healthy") == 1.0
        recovered = cluster.answer(query, spec, consumer="c")
        assert not recovered.degraded

    def test_first_degraded_wall_is_stamped(self, uniform_values):
        cluster, monitor = make_monitored_cluster(uniform_values, seed=9)
        cluster.ensure_rate(0.3)
        spec = AccuracySpec(alpha=0.1, delta=0.5)
        assert cluster.first_degraded_wall is None
        monitor.kill_primary(0)
        cluster.answer(RangeQuery(low=10.0, high=60.0), spec, consumer="c")
        assert cluster.first_degraded_wall is not None


class TestMidRoundFailover:
    def test_dead_radio_discovered_during_top_up(self, uniform_values):
        """A primary that dies mid-round fails over inside the gather."""
        cluster = ClusterBroker.from_values(
            uniform_values, k=8, shards=2, seed=3
        )
        # Collect sparsely, then demand a tier the stored rate cannot
        # serve, so the gather must run a top-up over the (cut) radio.
        cluster.ensure_rate(0.1)
        tight = AccuracySpec(alpha=0.02, delta=0.5)
        assert not cluster.planner.supports(tight, 0.1)

        cluster.shards[0].cut_primary_link()
        answer = cluster.answer(
            RangeQuery(low=20.0, high=70.0), tight, consumer="c"
        )
        assert answer.degraded_shards == (0,)
        assert not cluster.shards[0].primary_alive
        assert answer.delta_reported == pytest.approx(
            tight.delta * cluster.replica_confidence
        )

    def test_revive_primary_resyncs_from_replica(self, uniform_values):
        cluster = ClusterBroker.from_values(
            uniform_values, k=8, shards=2, seed=3
        )
        cluster.ensure_rate(0.1)
        shard = cluster.shards[0]
        shard.cut_primary_link()
        cluster.answer(
            RangeQuery(low=20.0, high=70.0),
            AccuracySpec(alpha=0.02, delta=0.5),
            consumer="c",
        )
        # The replica ran the top-up; the primary's store is stale.
        replica_rate = shard.replica_station.sampling_rate
        assert replica_rate > shard.primary_station.sampling_rate
        shard.restore_primary_link()
        shard.revive_primary()
        assert shard.primary_alive
        assert shard.primary_station.sampling_rate == replica_rate


class TestNoReplica:
    def test_dead_primary_without_replica_raises(self, uniform_values):
        cluster = ClusterBroker.from_values(
            uniform_values, k=8, shards=2, seed=3, replicas=False
        )
        cluster.ensure_rate(0.3)
        cluster.shards[0].fail_primary()
        with pytest.raises(ShardUnavailableError):
            cluster.answer(
                RangeQuery(low=20.0, high=70.0),
                AccuracySpec(alpha=0.1, delta=0.5),
                consumer="c",
            )


class TestPooledFailover:
    """The noise is the coordinator's, so failover changes provenance only."""

    QUERIES = [RangeQuery(low=float(lo), high=float(lo) + 30.0) for lo in range(0, 70, 10)]
    SPEC = AccuracySpec(alpha=0.1, delta=0.5)

    def twin(self, values):
        cluster = ClusterBroker.from_values(values, k=8, shards=2, seed=3)
        cluster.ensure_rate(0.3)
        return cluster

    def test_degraded_gather_releases_the_healthy_answers(self, uniform_values):
        healthy, degraded = self.twin(uniform_values), self.twin(uniform_values)
        degraded.shards[0].fail_primary()
        a = healthy.answer_batch(self.QUERIES, self.SPEC, consumer="c")
        b = degraded.answer_batch(self.QUERIES, self.SPEC, consumer="c")
        for x, y in zip(a, b):
            assert (x.value, x.raw_value, x.sample_estimate) == (
                y.value, y.raw_value, y.sample_estimate
            )
            assert x.plan == y.plan
            assert (x.degraded_shards, y.degraded_shards) == ((), (0,))
            assert x.delta_reported == self.SPEC.delta
            assert y.delta_reported == pytest.approx(
                self.SPEC.delta * degraded.replica_confidence
            )
        assert healthy.accountant.history("default") == (
            degraded.accountant.history("default")
        )

    def test_hedge_race_draws_once_per_fresh_row(self, uniform_values):
        plain, hedged = self.twin(uniform_values), self.twin(uniform_values)
        # Shard 0 limps far past its warmed latency, so every gated read
        # of it is hedged on the bypass lane and the two lanes race.
        hedged.hedging = HedgePolicy(min_samples=1, floor=0.001)
        hedged.hedging.observe("shard0", 0.001)
        hedged.shards[0].injected_latency = 0.2
        a = plain.answer_batch(self.QUERIES, self.SPEC, consumer="c")
        b = hedged.answer_batch(self.QUERIES, self.SPEC, consumer="c")
        assert hedged.hedging.hedges_fired >= 1
        assert [x.value for x in a] == [y.value for y in b]
        reference = np.random.default_rng(3 + 1)
        reference.random(len(self.QUERIES))
        assert hedged.rng.bit_generator.state == reference.bit_generator.state
        assert plain.rng.bit_generator.state == reference.bit_generator.state
