"""Unit tests for cluster routing and the metadata-only plans."""

from __future__ import annotations

import pytest

from repro.cluster.planning import (
    ALPHA_BOOST_CAP,
    degraded_delta,
    route_query,
    zero_plan,
)
from repro.core.query import AccuracySpec
from repro.datasets.partition import ShardBand, ShardBounds


class TestDegradedDelta:
    def test_no_degradation_is_identity(self):
        assert degraded_delta(0.5, 0, factor=0.9) == 0.5

    def test_one_degraded_shard(self):
        assert degraded_delta(0.5, 1, factor=0.9) == pytest.approx(0.45)

    def test_multiplicative_in_shards(self):
        assert degraded_delta(0.5, 3, factor=0.9) == pytest.approx(
            0.5 * 0.9 ** 3
        )

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            degraded_delta(0.5, 1, factor=0.0)
        with pytest.raises(ValueError):
            degraded_delta(0.5, 1, factor=1.5)


# Gapped bands: adjacent bands share no boundary value, so exact-cover
# and pruning classifications are unambiguous under closed intervals.
BANDS = (
    ShardBand(low=0.0, high=9.0),
    ShardBand(low=10.0, high=19.0),
    ShardBand(low=20.0, high=29.0),
    ShardBand(low=30.0, high=39.0),
)
SIZES = (100, 100, 100, 100)
SPEC = AccuracySpec(alpha=0.1, delta=0.5)


class TestZeroPlan:
    def test_all_costs_zero(self):
        plan = zero_plan(SPEC, n=300, k=24)
        assert plan.epsilon == 0.0
        assert plan.epsilon_prime == 0.0
        assert plan.noise_scale == 0.0
        assert plan.alpha_prime == 0.0
        assert plan.delta_prime == 1.0
        assert (plan.n, plan.k) == (300, 24)


class TestRouteQuery:
    def test_all_pruned_is_metadata_only(self):
        route = route_query(SPEC, 50.0, 60.0, bands=BANDS, sizes=SIZES)
        assert route.routed
        assert route.pruned == (0, 1, 2, 3)
        assert route.exact == ()
        assert route.touched == 0
        assert route.signature == "p0,1,2,3;x;q"

    def test_no_prune_no_exact_broadcasts(self):
        # Two shards, query straddles both and contains neither: band
        # metadata gives nothing to exploit, so the legacy broadcast
        # (bit-identical to the pre-routing cluster) is kept.
        route = route_query(
            SPEC, 5.0, 15.0, bands=BANDS[:2], sizes=SIZES[:2]
        )
        assert not route.routed
        assert route.signature == "b"
        assert route.queried == (0, 1)
        # The broadcast pools the whole fleet at the consumer's target.
        assert route.spec is SPEC
        assert route.exact_n == 0

    def test_narrow_query_routes_one_shard_at_full_delta(self):
        route = route_query(SPEC, 12.0, 18.0, bands=BANDS, sizes=SIZES)
        assert route.routed
        assert route.queried == (1,)
        assert route.pruned == (0, 2, 3)
        # The full confidence target; tolerance is boosted by
        # n/N_t = 400/100 then capped.
        assert route.spec.delta == SPEC.delta
        assert route.spec.alpha == pytest.approx(
            min(SPEC.alpha * 4.0, ALPHA_BOOST_CAP)
        )

    def test_exact_cover_spends_nothing(self):
        route = route_query(SPEC, 9.5, 19.5, bands=BANDS, sizes=SIZES)
        assert route.routed
        assert route.exact == (1,)
        assert route.exact_n == 100
        assert route.touched == 0

    def test_straddle_pools_touched_shards_at_full_delta(self):
        route = route_query(SPEC, 15.0, 25.0, bands=BANDS, sizes=SIZES)
        assert route.routed
        assert route.queried == (1, 2)
        assert route.pruned == (0, 3)
        # One pooled release over both touched shards: no δ split, and
        # the tolerance boost is n/N_t = 400/200.
        assert route.spec.delta == SPEC.delta
        assert route.spec.alpha == pytest.approx(SPEC.alpha * 2.0)
        assert route.signature == "p0,3;x;q1,2"

    def test_empty_band_always_prunes(self):
        bands = BANDS[:3] + (ShardBand.empty(),)
        route = route_query(
            SPEC, 30.0, 40.0, bands=bands, sizes=(100, 100, 100, 0)
        )
        assert 3 in route.pruned
        assert route.touched == 0

    def test_full_domain_bands_always_broadcast(self):
        bounds = ShardBounds.full_domain(4)
        route = route_query(
            SPEC, 12.0, 18.0, bands=bounds.bands, sizes=SIZES
        )
        assert not route.routed

    def test_deterministic_in_inputs(self):
        a = route_query(SPEC, 15.0, 25.0, bands=BANDS, sizes=SIZES)
        b = route_query(SPEC, 15.0, 25.0, bands=BANDS, sizes=SIZES)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            route_query(SPEC, 1.0, 2.0, bands=(), sizes=())
        with pytest.raises(ValueError):
            route_query(SPEC, 1.0, 2.0, bands=BANDS, sizes=(1, 2))
        with pytest.raises(ValueError):
            route_query(SPEC, 2.0, 1.0, bands=BANDS, sizes=SIZES)
        with pytest.raises(ValueError):
            route_query(
                SPEC, 1.0, 2.0, bands=BANDS, sizes=SIZES, alpha_cap=1.0
            )
