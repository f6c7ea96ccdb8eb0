"""Unit tests for the privacy-aware answer cache."""

from __future__ import annotations

import pytest

from repro.core.query import AccuracySpec, PrivateAnswer, RangeQuery
from repro.privacy.optimizer import PrivacyPlan
from repro.serving.answer_cache import AnswerCache
from repro.serving.telemetry import MetricsRegistry

from .conftest import RATE

_PLAN = PrivacyPlan(
    alpha=0.1, delta=0.5, alpha_prime=0.05, delta_prime=0.25,
    epsilon=0.5, epsilon_prime=0.2, sensitivity=2.0, noise_scale=4.0,
    p=0.3, k=8, n=4_000,
)


def _answer(low: float = 0.0, high: float = 10.0) -> PrivateAnswer:
    query = RangeQuery(low=low, high=high, dataset="default")
    spec = AccuracySpec(alpha=0.1, delta=0.5)
    return PrivateAnswer(
        value=42.0,
        raw_value=42.3,
        sample_estimate=41.0,
        query=query,
        spec=spec,
        plan=_PLAN,
        price=1.0,
        consumer="alice",
        transaction_id=1,
    )


def _key(version: int, low: float = 0.0, high: float = 10.0):
    answer = _answer(low, high)
    return AnswerCache.key_for(answer.query, answer.spec, version)


class TestKeying:
    def test_key_embeds_query_tier_version_and_routing(self):
        query = RangeQuery(low=1.0, high=2.0, dataset="ozone")
        spec = AccuracySpec(alpha=0.1, delta=0.5)
        assert AnswerCache.key_for(query, spec, 3) == (
            "ozone", 1.0, 2.0, 0.1, 0.5, 3, "",
        )
        assert AnswerCache.key_for(query, spec, 3, routing="p0;x;q1") == (
            "ozone", 1.0, 2.0, 0.1, 0.5, 3, "p0;x;q1",
        )

    def test_version_distinguishes_keys(self):
        assert _key(1) != _key(2)

    def test_routing_distinguishes_keys(self):
        query = RangeQuery(low=1.0, high=2.0, dataset="ozone")
        spec = AccuracySpec(alpha=0.1, delta=0.5)
        broadcast = AnswerCache.key_for(query, spec, 3, routing="b")
        routed = AnswerCache.key_for(query, spec, 3, routing="p0;x;q1")
        assert broadcast != routed
        # store_version stays at index 5: invalidate_before depends on it.
        assert broadcast[5] == 3


class TestLookup:
    def test_miss_then_hit(self):
        cache = AnswerCache()
        key = _key(1)
        assert cache.get(key) is None
        answer = _answer()
        cache.put(key, answer)
        assert cache.get(key) is answer
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        assert stats.hit_rate == pytest.approx(0.5)

    def test_lru_eviction(self):
        cache = AnswerCache(capacity=2)
        cache.put(_key(1, 0, 1), _answer(0, 1))
        cache.put(_key(1, 0, 2), _answer(0, 2))
        cache.get(_key(1, 0, 1))  # refresh the older entry
        cache.put(_key(1, 0, 3), _answer(0, 3))  # evicts (0, 2)
        assert _key(1, 0, 1) in cache
        assert _key(1, 0, 2) not in cache
        assert cache.stats.evictions == 1

    def test_bulk_calls_match_one_call_per_key(self):
        """get_many / put_many: same answers, counters, evictions and
        recency as one get / put per key; telemetry once per call."""
        one_by_one = AnswerCache(capacity=3, telemetry=MetricsRegistry())
        bulk = AnswerCache(capacity=3, telemetry=MetricsRegistry())
        keys = [_key(1, low=float(i)) for i in range(5)]
        answers = [_answer(low=float(i)) for i in range(5)]
        for key, answer in zip(keys[:4], answers):
            one_by_one.put(key, answer)
        bulk.put_many(list(zip(keys[:4], answers)))
        lookups = [keys[2], keys[0], keys[3], keys[2], keys[4]]
        assert bulk.get_many(lookups) == [one_by_one.get(k) for k in lookups]
        one_by_one.put(keys[4], answers[0])
        bulk.put_many([(keys[4], answers[0])])
        assert bulk.stats == one_by_one.stats
        assert list(bulk._entries) == list(one_by_one._entries)
        assert (
            bulk.telemetry.snapshot()["counters"]
            == one_by_one.telemetry.snapshot()["counters"]
        )

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            AnswerCache(capacity=0)


class TestInvalidation:
    def test_invalidate_before_drops_only_stale(self):
        cache = AnswerCache()
        cache.put(_key(1), _answer())
        cache.put(_key(2, 0, 20), _answer(0, 20))
        assert cache.invalidate_before(2) == 1
        assert len(cache) == 1
        assert _key(2, 0, 20) in cache
        assert cache.stats.invalidations == 1

    def test_clear(self):
        cache = AnswerCache()
        cache.put(_key(1), _answer())
        cache.clear()
        assert len(cache) == 0

    def test_bound_station_purges_on_commit(self, service):
        cache = AnswerCache()
        cache.bind_station(service.station)
        version = service.station.store_version
        cache.put(_key(version), _answer())
        service.collect(RATE + 0.2)  # top-up commits a new store version
        assert service.station.store_version > version
        assert len(cache) == 0
        assert cache.stats.invalidations == 1


class TestTelemetryMirror:
    def test_counters_mirrored(self):
        registry = MetricsRegistry()
        cache = AnswerCache(capacity=1, telemetry=registry)
        cache.get(_key(1))
        cache.put(_key(1), _answer())
        cache.get(_key(1))
        cache.put(_key(1, 0, 20), _answer(0, 20))  # evicts
        assert registry.value("cache.misses") == 1
        assert registry.value("cache.hits") == 1
        assert registry.value("cache.evictions") == 1
