"""Unit tests for the PrivateRangeCountingService facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.service import PrivateRangeCountingService
from repro.pricing.functions import PowerLawVariancePricing
from repro.pricing.variance_model import VarianceModel


@pytest.fixture
def service(citypulse_small):
    return PrivateRangeCountingService.from_citypulse(
        citypulse_small, "ozone", k=8, seed=11
    )


class TestConstruction:
    def test_from_values(self):
        svc = PrivateRangeCountingService.from_values(
            np.random.default_rng(0).uniform(0, 1, 500), k=5
        )
        assert svc.n == 500
        assert svc.k == 5

    def test_from_citypulse(self, service, citypulse_small):
        assert service.n == len(citypulse_small)
        assert service.broker.dataset == "ozone"

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            PrivateRangeCountingService.from_values(np.array([]), k=2)

    def test_initial_rate_collects_eagerly(self):
        svc = PrivateRangeCountingService.from_values(
            np.random.default_rng(0).uniform(0, 1, 500), k=5, initial_rate=0.3
        )
        assert svc.station.sampling_rate == 0.3

    def test_custom_pricing(self):
        values = np.random.default_rng(0).uniform(0, 1, 400)
        pricing = PowerLawVariancePricing(VarianceModel(n=400), exponent=2.0)
        svc = PrivateRangeCountingService.from_values(values, k=4,
                                                      pricing=pricing)
        assert svc.broker.pricing is pricing

    def test_deterministic_given_seed(self, citypulse_small):
        a = PrivateRangeCountingService.from_citypulse(
            citypulse_small, "ozone", k=8, seed=21
        )
        b = PrivateRangeCountingService.from_citypulse(
            citypulse_small, "ozone", k=8, seed=21
        )
        ans_a = a.answer(70.0, 110.0, alpha=0.1, delta=0.5)
        ans_b = b.answer(70.0, 110.0, alpha=0.1, delta=0.5)
        assert ans_a.value == ans_b.value


class TestOperations:
    def test_answer_within_tolerance_often(self, service):
        truth = service.true_count(70.0, 110.0)
        answer = service.answer(70.0, 110.0, alpha=0.15, delta=0.6)
        assert 0 <= answer.value <= service.n
        # Not a hard guarantee per draw, but the tolerance certificate is.
        assert answer.spec.alpha == 0.15
        assert truth == service.truth.count(70.0, 110.0)

    def test_quote_positive(self, service):
        assert service.quote(0.1, 0.5) > 0

    def test_collect_and_reuse(self, service):
        service.collect(0.4)
        report_before = service.communication_report()
        service.answer(70.0, 110.0, alpha=0.2, delta=0.4)
        report_after = service.communication_report()
        # A dense pre-collection serves the query without extra traffic.
        assert report_after["messages"] == report_before["messages"]

    def test_privacy_spent_accumulates(self, service):
        assert service.privacy_spent() == 0.0
        a1 = service.answer(70.0, 110.0, alpha=0.2, delta=0.5)
        a2 = service.answer(80.0, 90.0, alpha=0.2, delta=0.5)
        assert service.privacy_spent() == pytest.approx(
            a1.epsilon_prime + a2.epsilon_prime
        )

    def test_communication_report_keys(self, service):
        report = service.communication_report()
        assert {"messages", "wire_bytes", "hop_bytes", "sample_pairs"} == set(
            report
        )

    def test_consumer_attribution(self, service):
        service.answer(70.0, 110.0, alpha=0.2, delta=0.5, consumer="carol")
        assert service.broker.ledger.transactions[-1].consumer == "carol"


class TestHistogramAndQuantile:
    def test_histogram_release(self, service):
        release = service.histogram(0.0, 200.0, buckets=5, epsilon=1.0)
        assert release.buckets == 5
        assert 0 <= release.total() <= 5 * service.n
        assert service.privacy_spent() == pytest.approx(release.epsilon_prime)

    def test_histogram_charges_once_for_all_buckets(self, service):
        """Parallel composition: ε' is independent of the bucket count."""
        few = service.histogram(0.0, 200.0, buckets=2, epsilon=0.5)
        many = service.histogram(0.0, 200.0, buckets=20, epsilon=0.5)
        assert few.epsilon_prime == pytest.approx(many.epsilon_prime)

    def test_histogram_roughly_tracks_distribution(self, service):
        service.collect(0.5)
        release = service.histogram(0.0, 200.0, buckets=4, epsilon=50.0)
        truth = [
            service.true_count(release.edges[b], release.edges[b + 1])
            for b in range(4)
        ]
        # Edges overlap by one point between buckets; compare loosely.
        for measured, expected in zip(release.counts, truth):
            assert abs(measured - expected) < 0.1 * service.n + 50

    def test_quantile_estimate(self, service):
        service.collect(0.5)
        median = service.estimate_quantile(0.5)
        rank = service.true_count(0.0, median)  # ozone values are >= 0
        assert abs(rank - 0.5 * service.n) < 0.05 * service.n

    def test_quantile_charges_no_privacy(self, service):
        before = service.privacy_spent()
        service.estimate_quantile(0.25)
        assert service.privacy_spent() == before

    def test_private_quantile_release(self, service):
        before = service.privacy_spent()
        release = service.private_quantile(0.5, epsilon=20.0)
        lo, hi = service.truth.values[0], service.truth.values[-1]
        assert lo <= release.value <= hi
        assert service.privacy_spent() == pytest.approx(
            before + release.epsilon_prime
        )

    def test_private_quantile_accuracy_with_big_budget(self, service):
        service.collect(0.5)
        release = service.private_quantile(0.5, epsilon=100.0, probes=24)
        true_median = float(np.median(service.truth.values))
        # Ozone spans ~[60, 130]; generous budget localizes well.
        assert abs(release.value - true_median) < 5.0


class TestRefusedReleasesDrawNothing:
    """A histogram or quantile the accountant refuses must not touch the
    broker's rng, the sample store or the journal: every later answer
    stays what it would have been had the release never been asked for."""

    @pytest.mark.parametrize("release", ["histogram", "quantile"])
    def test_refused_release_leaves_rng_store_and_journal(self, service, release):
        import copy

        from repro.durability.journal import TradeJournal
        from repro.errors import PrivacyBudgetExceededError
        from repro.privacy.budget import BudgetAccountant

        broker = service.broker
        broker.journal = TradeJournal()
        broker.accountant = BudgetAccountant(capacity=1e-9)
        rng_state = copy.deepcopy(broker.rng.bit_generator.state)
        version = service.station.store_version
        with pytest.raises(PrivacyBudgetExceededError):
            if release == "histogram":
                service.histogram(0.0, 200.0, buckets=4, epsilon=0.5)
            else:
                service.private_quantile(0.5, epsilon=0.5)
        assert broker.rng.bit_generator.state == rng_state
        assert service.station.store_version == version
        assert len(broker.journal) == 0
        assert broker.accountant.history(broker.dataset) == ()
