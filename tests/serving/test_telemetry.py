"""Unit tests for the serving metrics registry."""

from __future__ import annotations

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.telemetry import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter().value == 0.0

    def test_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1.0)


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge()
        gauge.set(10.0)
        gauge.add(-3.0)
        assert gauge.value == pytest.approx(7.0)


class TestHistogram:
    def test_exact_moments(self):
        hist = Histogram()
        for v in (1.0, 2.0, 3.0, 4.0):
            hist.observe(v)
        assert hist.count == 4
        assert hist.sum == pytest.approx(10.0)
        assert hist.mean == pytest.approx(2.5)

    def test_percentile_interpolates(self):
        hist = Histogram()
        for v in (0.0, 10.0):
            hist.observe(v)
        assert hist.percentile(0.0) == pytest.approx(0.0)
        assert hist.percentile(50.0) == pytest.approx(5.0)
        assert hist.percentile(100.0) == pytest.approx(10.0)

    def test_percentile_bounds(self):
        with pytest.raises(ValueError):
            Histogram().percentile(101.0)

    def test_empty_percentile_is_zero(self):
        assert Histogram().percentile(99.0) == 0.0

    def test_decimation_keeps_moments_exact(self):
        hist = Histogram(cap=8)
        for v in range(100):
            hist.observe(float(v))
        # Moments are exact past the cap even though samples were dropped.
        assert hist.count == 100
        assert hist.sum == pytest.approx(sum(range(100)))
        assert hist.summary()["max"] == pytest.approx(99.0)
        assert hist.summary()["min"] == pytest.approx(0.0)

    def test_empty_summary(self):
        assert Histogram().summary() == {"count": 0}

    def test_rejects_tiny_cap(self):
        with pytest.raises(ValueError):
            Histogram(cap=1)


def _bits(x):
    return struct.pack("<d", x)


class _ReferenceHistogram:
    """One value at a time, as ``Histogram.observe`` did before the bulk
    path: the model ``observe_many`` must reproduce."""

    def __init__(self, cap):
        self.cap, self.values = cap, []
        self.count, self.sum, self.min, self.max = 0, 0.0, float("inf"), float("-inf")

    def observe(self, value):
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self.values) >= self.cap:
            self.values = self.values[::2]
        self.values.append(value)

    def state(self):
        return (self.count, _bits(self.sum), _bits(self.min), _bits(self.max),
                [_bits(v) for v in self.values])


def _state(hist):
    """Everything a histogram keeps, floats as their bit patterns."""
    with hist._lock:
        return (
            hist.count, _bits(hist.sum), _bits(hist._min), _bits(hist._max),
            [_bits(v) for v in hist._values],
        )


@given(
    chunks=st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64)),
        max_size=8,
    ),
    cap=st.integers(min_value=2, max_value=9),
)
@settings(max_examples=200, deadline=None)
def test_observe_many_is_repeated_observe(chunks, cap):
    """Property: count, sum, min, max bit-equal and the same reservoir past
    ``cap``, however the values are split into calls."""
    reference, one_by_one, bulk = (
        _ReferenceHistogram(cap), Histogram(cap=cap), Histogram(cap=cap)
    )
    for chunk in chunks:
        for value in chunk:
            reference.observe(value)
            one_by_one.observe(value)
        bulk.observe_many(chunk)
    assert _state(bulk) == _state(one_by_one) == reference.state()


def test_registry_observe_many_creates_nothing_when_empty():
    registry = MetricsRegistry()
    registry.observe_many("x", [])
    assert registry.snapshot()["histograms"] == {}
    registry.observe_many("x", [1, 2])
    assert registry.histogram("x").count == 2


class TestMetricsRegistry:
    def test_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_one_line_probes(self):
        registry = MetricsRegistry()
        registry.inc("served", 2.0)
        registry.set_gauge("depth", 5.0)
        registry.observe("latency", 0.25)
        assert registry.value("served") == pytest.approx(2.0)
        assert registry.value("depth") == pytest.approx(5.0)
        assert registry.histogram("latency").count == 1

    def test_value_of_unknown_metric_is_zero(self):
        assert MetricsRegistry().value("nothing") == 0.0

    def test_timer_observes_seconds(self):
        registry = MetricsRegistry()
        with registry.timer("block_s"):
            pass
        hist = registry.histogram("block_s")
        assert hist.count == 1
        assert hist.sum >= 0.0

    def test_snapshot_is_json_ready(self):
        registry = MetricsRegistry()
        registry.inc("b")
        registry.inc("a")
        registry.set_gauge("g", 1.0)
        registry.observe("h", 2.0)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "b"]  # sorted
        assert snap["gauges"]["g"] == 1.0
        assert snap["histograms"]["h"]["count"] == 1
        # Round-trips through JSON without custom encoders.
        assert json.loads(registry.to_json()) == snap
