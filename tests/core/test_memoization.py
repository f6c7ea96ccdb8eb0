"""Answer replay through the serving cache (the repeated-query DP defense).

Buying through ``service.serve()``: a repeat of an already-released
``(range, tier)`` is served from the gateway's answer cache as a replay
at ε′ = 0, so repeats are free of privacy cost and averaging gains
nothing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.consumer import ArbitrageConsumer
from repro.core.query import AccuracySpec, RangeQuery
from repro.core.service import PrivateRangeCountingService
from repro.pricing.functions import PowerLawVariancePricing
from repro.pricing.variance_model import VarianceModel
from repro.serving import ServingConfig


def make_service(pricing=None, seed=5):
    values = np.random.default_rng(seed).uniform(0, 100, 3000)
    return PrivateRangeCountingService.from_values(
        values, k=6, dataset="default", seed=seed, pricing=pricing
    )


QUERY_ARGS = dict(low=20.0, high=70.0, alpha=0.15, delta=0.5)


class GatewayBroker:
    """The ``pricing``/``quote``/``answer`` surface :class:`ArbitrageConsumer`
    buys through, served by a gateway."""

    def __init__(self, broker, gateway):
        self.pricing = broker.pricing
        self.quote = broker.quote
        self._gateway = gateway

    def answer(self, query, spec, consumer="anonymous"):
        return self._gateway.answer(
            query.low, query.high, spec.alpha, spec.delta, consumer=consumer
        )


class TestMemoization:
    def test_identical_queries_get_identical_answers(self):
        service = make_service()
        with service.serve() as gateway:
            first = gateway.answer(**QUERY_ARGS)
            second = gateway.answer(**QUERY_ARGS)
        assert second.value == first.value
        assert second.raw_value == first.raw_value

    def test_repeat_costs_no_privacy(self):
        service = make_service()
        with service.serve() as gateway:
            first = gateway.answer(**QUERY_ARGS)
            for _ in range(10):
                gateway.answer(**QUERY_ARGS)
        assert service.privacy_spent() == pytest.approx(first.epsilon_prime)

    def test_repeat_still_billed(self):
        service = make_service()
        with service.serve() as gateway:
            gateway.answer(**QUERY_ARGS)
            gateway.answer(**QUERY_ARGS)
        assert len(service.broker.ledger) == 2
        assert service.broker.ledger.total_revenue() == pytest.approx(
            2 * service.quote(QUERY_ARGS["alpha"], QUERY_ARGS["delta"])
        )

    def test_different_queries_not_conflated(self):
        service = make_service()
        with service.serve() as gateway:
            a = gateway.answer(**QUERY_ARGS)
            b = gateway.answer(low=20.0, high=71.0, alpha=0.15, delta=0.5)
            c = gateway.answer(low=20.0, high=70.0, alpha=0.2, delta=0.5)
        assert service.privacy_spent() == pytest.approx(
            a.epsilon_prime + b.epsilon_prime + c.epsilon_prime
        )

    def test_consumer_attribution_preserved(self):
        service = make_service()
        with service.serve() as gateway:
            gateway.answer(**QUERY_ARGS, consumer="alice")
            repeat = gateway.answer(**QUERY_ARGS, consumer="bob")
        assert repeat.consumer == "bob"
        assert service.broker.ledger.spend_of("bob") > 0

    def test_uncached_gateway_draws_fresh_noise(self):
        service = make_service()
        with service.serve(ServingConfig(enable_cache=False)) as gateway:
            first = gateway.answer(**QUERY_ARGS)
            second = gateway.answer(**QUERY_ARGS)
        # Fresh noise almost surely differs.
        assert second.raw_value != first.raw_value
        assert service.privacy_spent() == pytest.approx(
            first.epsilon_prime + second.epsilon_prime
        )


class TestMemoizationDefeatsAveraging:
    def test_attack_gains_nothing_from_identical_answers(self):
        """Against a replaying gateway, the Example 4.1 adversary pays m
        prices for m copies of one number: zero variance reduction."""
        pricing = PowerLawVariancePricing(
            VarianceModel(n=3000), exponent=2.0, base_price=1e10
        )
        service = make_service(pricing=pricing, seed=3)
        adversary = ArbitrageConsumer(name="eve")
        with service.serve() as gateway:
            outcome = adversary.attempt(
                GatewayBroker(service.broker, gateway),
                RangeQuery(low=20.0, high=70.0, dataset="default"),
                AccuracySpec(alpha=0.05, delta=0.8),
            )
        # The money arbitrage may still "succeed" on price, but the
        # statistical benefit is gone: all purchased answers are equal, so
        # the averaged estimate is just one cheap high-variance answer.
        if outcome.attack is not None:
            purchases = service.broker.ledger.purchases_of("eve")
            assert len(purchases) == outcome.purchases
            assert service.privacy_spent() == pytest.approx(
                max(t.epsilon_prime for t in purchases)
            )
