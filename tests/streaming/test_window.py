"""Unit tests for epoch summaries, merges, and the window ring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.query import AccuracySpec, RangeQuery
from repro.errors import InsufficientSamplesError, StreamingError
from repro.estimators.base import NodeData
from repro.estimators.rank import RankCountingEstimator
from repro.pricing.functions import InverseVariancePricing
from repro.pricing.variance_model import VarianceModel
from repro.streaming.broker import StreamingBroker, StreamingStation
from repro.streaming.window import (
    EpochSummary,
    WindowSummary,
    merge_epoch_summaries,
    pooled_rate,
    window_checksum,
)


def make_summary(epoch, node_ids, rate=0.5, seed=3, per_node=20):
    """A sealed epoch with one sampled node per id."""
    rng = np.random.default_rng(seed)
    samples = []
    for node_id in node_ids:
        node = NodeData(
            node_id=node_id,
            values=rng.uniform(0, 100, per_node),
        )
        samples.append(node.sample(rate, rng))
    return EpochSummary(
        epoch=epoch,
        samples=tuple(samples),
        record_count=per_node * len(node_ids),
        rate=rate,
    )


class TestEpochSummary:
    def test_payload_roundtrip_is_bit_exact(self):
        summary = make_summary(4, [1, 2, 3])
        back = EpochSummary.from_payload(summary.to_payload())
        assert back.epoch == summary.epoch
        assert back.record_count == summary.record_count
        assert back.rate == summary.rate
        for a, b in zip(summary.samples, back.samples):
            assert a.node_id == b.node_id
            assert a.node_size == b.node_size
            np.testing.assert_array_equal(a.values, b.values)
            np.testing.assert_array_equal(a.ranks, b.ranks)

    def test_rejects_mixed_rates(self):
        good = make_summary(0, [1])
        bad_sample = good.samples[0]
        with pytest.raises(ValueError):
            EpochSummary(
                epoch=0,
                samples=(bad_sample,),
                record_count=20,
                rate=bad_sample.p + 0.1,
            )

    def test_empty_epoch(self):
        summary = EpochSummary(epoch=2, samples=(), record_count=0, rate=0.0)
        assert summary.is_empty
        assert summary.node_count == 0


class TestMerge:
    def test_merge_is_commutative(self):
        a = make_summary(1, [1, 2], seed=5)
        b = make_summary(1, [3, 4], seed=7)
        ab = merge_epoch_summaries(a, b)
        ba = merge_epoch_summaries(b, a)
        assert window_checksum([ab]) == window_checksum([ba])

    def test_merge_is_associative(self):
        a = make_summary(1, [1], seed=5)
        b = make_summary(1, [2], seed=7)
        c = make_summary(1, [3], seed=9)
        left = merge_epoch_summaries(merge_epoch_summaries(a, b), c)
        right = merge_epoch_summaries(a, merge_epoch_summaries(b, c))
        assert window_checksum([left]) == window_checksum([right])
        assert left.record_count == right.record_count == 60

    def test_merge_rejects_different_epochs(self):
        with pytest.raises(StreamingError):
            merge_epoch_summaries(
                make_summary(1, [1]), make_summary(2, [2])
            )

    def test_merge_rejects_duplicate_node_ids(self):
        with pytest.raises(StreamingError):
            merge_epoch_summaries(
                make_summary(1, [1], seed=5), make_summary(1, [1], seed=7)
            )

    def test_merge_rejects_rate_mismatch(self):
        with pytest.raises(StreamingError):
            merge_epoch_summaries(
                make_summary(1, [1], rate=0.5),
                make_summary(1, [2], rate=0.6),
            )

    def test_empty_side_imposes_no_rate(self):
        full = make_summary(1, [1], rate=0.5)
        empty = EpochSummary(epoch=1, samples=(), record_count=0, rate=0.0)
        merged = merge_epoch_summaries(empty, full)
        assert merged.rate == 0.5
        assert merged.record_count == full.record_count


class TestWindowRing:
    def test_ring_evicts_departed_epochs(self):
        ring = WindowSummary(window_epochs=3)
        for epoch in range(5):
            evicted = ring.add(make_summary(epoch, [epoch + 1]))
            if epoch < 3:
                assert evicted == ()
        assert ring.live_epochs == (2, 3, 4)
        assert ring.occupancy == 3
        assert ring.floor_epoch == 2

    def test_ring_rejects_duplicate_epoch(self):
        ring = WindowSummary(window_epochs=3)
        ring.add(make_summary(0, [1]))
        with pytest.raises(StreamingError):
            ring.add(make_summary(0, [2]))

    def test_ring_rejects_out_of_order_epoch(self):
        ring = WindowSummary(window_epochs=3)
        ring.add(make_summary(5, [1]))
        with pytest.raises(StreamingError):
            ring.add(make_summary(4, [2]))

    def test_gap_evicts_everything_older(self):
        ring = WindowSummary(window_epochs=2)
        ring.add(make_summary(0, [1]))
        evicted = ring.add(make_summary(10, [2]))
        assert [s.epoch for s in evicted] == [0]
        assert ring.live_epochs == (10,)


def window_estimates(epochs, ranges):
    """The streaming broker's sample estimates of ``ranges`` over a
    window holding ``epochs``."""
    station = StreamingStation(window_epochs=len(epochs))
    for summary in epochs:
        station.commit_roll([summary])
    floor = AccuracySpec(alpha=0.9, delta=0.1)
    broker = StreamingBroker(
        station=station,
        pricing=InverseVariancePricing(VarianceModel(n=100)),
        floor=floor,
    )
    queries = [RangeQuery(low=lo, high=hi, dataset="stream") for lo, hi in ranges]
    return [answer.sample_estimate for answer in broker.answer_batch(queries, floor)]


class TestPooledHelpers:
    def test_pooled_estimate_sums_epochs(self):
        a = make_summary(0, [1], rate=1.0, seed=5)
        b = make_summary(1, [2], rate=1.0, seed=7)
        (total,) = window_estimates([a, b], [(0.0, 100.0)])
        # At rate 1.0 the estimate is exact: all 40 records are in range.
        assert total == pytest.approx(40.0)

    def test_pooled_estimate_many_matches_scalar(self):
        estimator = RankCountingEstimator()
        epochs = [
            make_summary(0, [1, 2], seed=5),
            make_summary(1, [3], seed=7),
        ]
        ranges = [(0.0, 30.0), (30.0, 100.0)]
        many = window_estimates(epochs, ranges)
        for i, (low, high) in enumerate(ranges):
            # The epochs' scalar estimates, summed oldest first.
            expected = 0.0
            for summary in epochs:
                expected += estimator.estimate(list(summary.samples), low, high).estimate
            assert many[i] == expected

    def test_pooled_rate_is_sparsest(self):
        epochs = [
            make_summary(0, [1], rate=0.5),
            make_summary(1, [2], rate=0.3),
        ]
        assert pooled_rate(epochs) == pytest.approx(0.3)

    def test_pooled_rate_requires_samples(self):
        with pytest.raises(InsufficientSamplesError):
            pooled_rate([EpochSummary(epoch=0, samples=(), record_count=0,
                                      rate=0.0)])

    def test_checksum_detects_any_difference(self):
        a = make_summary(0, [1], seed=5)
        b = make_summary(0, [1], seed=6)
        assert window_checksum([a]) != window_checksum([b])
        assert window_checksum([a]) == window_checksum(
            [EpochSummary.from_payload(a.to_payload())]
        )
