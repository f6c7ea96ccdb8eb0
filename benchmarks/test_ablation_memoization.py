"""Ablation A10: answer memoization as an arbitrage/privacy defense.

Identical repeated queries can be served from a cache of already-released
answers: re-releasing a published value is post-processing (zero
additional ε), and the Example 4.1 adversary's averaged portfolio
collapses to a single cheap answer.  This bench quantifies both effects
against a deliberately attackable price sheet, buying through the
serving gateway with its answer cache off (fresh noise) and on.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import DEVICE_COUNT
from repro.analysis.reporting import format_table
from repro.core.consumer import ArbitrageConsumer
from repro.core.query import AccuracySpec, RangeQuery
from repro.core.service import PrivateRangeCountingService
from repro.pricing.functions import PowerLawVariancePricing
from repro.pricing.variance_model import VarianceModel
from repro.serving import ServingConfig

TARGET = AccuracySpec(alpha=0.05, delta=0.8)
QUERY_BOUNDS = (80.0, 110.0)


def _service(values):
    pricing = PowerLawVariancePricing(
        VarianceModel(n=len(values)), exponent=2.0, base_price=1e10
    )
    return PrivateRangeCountingService.from_values(
        values, k=DEVICE_COUNT, dataset="ozone", seed=13, pricing=pricing
    )


class GatewayBroker:
    """The ``pricing``/``quote``/``answer`` surface the adversary buys
    through, served by a gateway."""

    def __init__(self, broker, gateway):
        self.pricing = broker.pricing
        self.quote = broker.quote
        self._gateway = gateway

    def answer(self, query, spec, consumer="anonymous"):
        return self._gateway.answer(
            query.low, query.high, spec.alpha, spec.delta, consumer=consumer
        )


def test_ablation_memoization_defense(citypulse, benchmark, save_result):
    values = citypulse.values("ozone")
    query = RangeQuery(low=QUERY_BOUNDS[0], high=QUERY_BOUNDS[1],
                       dataset="ozone")
    truth = int(
        np.count_nonzero((values >= QUERY_BOUNDS[0])
                         & (values <= QUERY_BOUNDS[1]))
    )

    def run():
        rows = []
        for memoize in (False, True):
            service = _service(values)
            config = ServingConfig(enable_cache=memoize)
            with service.serve(config) as gateway:
                adversary = ArbitrageConsumer(name="eve")
                outcome = adversary.attempt(
                    GatewayBroker(service.broker, gateway), query, TARGET
                )
            n = service.n
            rows.append(
                (
                    "memoized" if memoize else "fresh-noise",
                    outcome.purchases,
                    float(outcome.paid),
                    float(abs(outcome.estimate - truth) / n),
                    float(service.privacy_spent()),
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(
        "ablation_memoization",
        "# ablation: memoization vs the averaging adversary "
        "(power-law s=2 sheet)\n"
        + format_table(
            ["broker", "purchases", "paid", "final_err_over_n",
             "eps_prime_spent"],
            rows,
        ),
    )

    fresh, memo = rows
    assert fresh[0] == "fresh-noise" and memo[0] == "memoized"
    # The adversary repeats purchases either way (money arbitrage exists),
    # but the memoizing broker leaks once instead of m times ...
    assert memo[4] < fresh[4] / 10
    # ... and the averaged estimate no longer improves: the memoized error
    # is that of ONE cheap high-variance answer, typically far worse than
    # the averaged fresh answers.
    assert memo[3] >= fresh[3] * 0.5
