"""Accounting and equivalence guarantees of the vectorized batch path.

``DataBroker.answer_batch`` promises to be *semantically identical* to a
scalar ``answer()`` loop: same deterministic estimates (bit for bit),
same noise stream, same ledger transactions, same accountant entries,
same per-consumer policy counters -- only faster.  These tests pin that
contract, including replays of an earlier answer (ε′ = 0, whether it is
a cached answer or an earlier row of the batch) and the atomic batch
admission semantics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.policy import BrokerPolicy, PolicyViolationError
from repro.core.query import AccuracySpec, RangeQuery
from repro.core.service import PrivateRangeCountingService
from repro.durability.journal import TradeJournal
from repro.errors import LedgerError, PrivacyBudgetExceededError
from repro.privacy.budget import BudgetAccountant

SPEC = AccuracySpec(alpha=0.12, delta=0.5)


def make_service(seed=11, policy=None, capacity=None):
    values = np.random.default_rng(4).uniform(0, 100, 5000)
    service = PrivateRangeCountingService.from_values(values, k=8, seed=seed)
    service.broker.journal = TradeJournal()
    if policy is not None:
        service.broker.policy = policy
    if capacity is not None:
        service.broker.accountant = BudgetAccountant(capacity=capacity)
    return service


def make_queries():
    return [
        RangeQuery(low=float(x), high=float(x) + 25.0)
        for x in (0.0, 10.0, 20.0, 30.0, 10.0)  # note: duplicate of #2
    ]


def run_both(replay):
    """Answer the same workload on two identical stacks, scalar vs batch.

    With ``replay`` the duplicate query re-releases its first answer: the
    scalar loop replays the cached answer, the batch replays row 1.
    """
    scalar_svc, batch_svc = make_service(), make_service()
    queries = make_queries()
    scalar = [
        scalar_svc.broker.answer(q, SPEC, consumer="carol") for q in queries[:4]
    ]
    scalar += scalar_svc.broker.answer_batch(
        queries[4:], SPEC, consumer="carol",
        replays={0: scalar[1]} if replay else None,
    )
    batch = batch_svc.broker.answer_batch(
        queries, SPEC, consumer="carol", replays={4: 1} if replay else None
    )
    return scalar_svc, batch_svc, scalar, batch


class TestBitIdenticalAnswers:
    @pytest.mark.parametrize("replay", [False, True])
    def test_answers_match_scalar_loop(self, replay):
        _, _, scalar, batch = run_both(replay)
        for s, b in zip(scalar, batch):
            assert b.sample_estimate == s.sample_estimate
            assert b.raw_value == s.raw_value
            assert b.value == s.value
            assert b.price == s.price
            assert b.epsilon_prime == s.epsilon_prime
            assert b.transaction_id == s.transaction_id
            assert b.consumer == s.consumer

    def test_in_batch_duplicate_is_cache_hit_when_memoized(self):
        svc = make_service()
        batch = svc.broker.answer_batch(
            make_queries(), SPEC, consumer="c", replays={4: 1}
        )
        assert batch[4].raw_value == batch[1].raw_value
        # Only four fresh releases were charged, as in the scalar loop.
        assert len(svc.broker.accountant.history("default")) == 4

    def test_duplicates_fresh_when_not_memoized(self):
        svc = make_service()
        batch = svc.broker.answer_batch(make_queries(), SPEC, consumer="c")
        assert batch[4].raw_value != batch[1].raw_value
        assert len(svc.broker.accountant.history("default")) == 5


class TestAccountingParity:
    @pytest.mark.parametrize("replay", [False, True])
    def test_ledger_transactions_identical(self, replay):
        scalar_svc, batch_svc, _, _ = run_both(replay)
        assert (
            batch_svc.broker.ledger.transactions
            == scalar_svc.broker.ledger.transactions
        )

    @pytest.mark.parametrize("replay", [False, True])
    def test_accountant_history_identical(self, replay):
        scalar_svc, batch_svc, _, _ = run_both(replay)
        assert batch_svc.broker.accountant.history(
            "default"
        ) == scalar_svc.broker.accountant.history("default")
        assert batch_svc.privacy_spent() == scalar_svc.privacy_spent()

    @pytest.mark.parametrize("replay", [False, True])
    def test_journal_checksum_identical(self, replay):
        scalar_svc, batch_svc, _, _ = run_both(replay)
        assert len(batch_svc.broker.journal) == len(make_queries())
        assert (
            batch_svc.broker.journal.checksum()
            == scalar_svc.broker.journal.checksum()
        )

    @pytest.mark.parametrize("replay", [False, True])
    def test_policy_counters_identical(self, replay):
        scalar_svc, batch_svc, _, _ = run_both(replay)
        for svc_pair in ((scalar_svc, batch_svc),):
            a, b = svc_pair
            assert b.broker.policy.purchases_by(
                "carol"
            ) == a.broker.policy.purchases_by("carol")
            assert b.broker.policy.epsilon_spent_by(
                "carol"
            ) == a.broker.policy.epsilon_spent_by("carol")

    def test_epsilon_total_matches_answers(self):
        svc = make_service()
        before = svc.privacy_spent()
        answers = svc.broker.answer_batch(make_queries(), SPEC, consumer="c")
        assert svc.privacy_spent() - before == pytest.approx(
            sum(a.epsilon_prime for a in answers)
        )


class TestAtomicAdmission:
    def test_purchase_cap_refuses_whole_batch(self):
        svc = make_service(policy=BrokerPolicy(max_purchases_per_consumer=3))
        with pytest.raises(PolicyViolationError):
            svc.broker.answer_batch(make_queries(), SPEC, consumer="c")
        # Nothing was charged or billed.
        assert len(svc.broker.ledger) == 0
        assert svc.privacy_spent() == 0.0
        assert svc.broker.policy.purchases_by("c") == 0

    def test_epsilon_cap_refuses_whole_batch(self):
        probe = make_service()
        one = probe.broker.answer(make_queries()[0], SPEC, consumer="c")
        cap = 2.5 * one.epsilon_prime  # room for two of the five releases
        svc = make_service(policy=BrokerPolicy(max_epsilon_per_consumer=cap))
        with pytest.raises(PolicyViolationError):
            svc.broker.answer_batch(make_queries(), SPEC, consumer="c")
        assert len(svc.broker.ledger) == 0
        assert svc.broker.policy.epsilon_spent_by("c") == 0.0

    def test_dataset_budget_refuses_whole_batch(self):
        probe = make_service()
        one = probe.broker.answer(make_queries()[0], SPEC, consumer="c")
        svc = make_service(capacity=2.5 * one.epsilon_prime)
        with pytest.raises(PrivacyBudgetExceededError):
            svc.broker.answer_batch(make_queries(), SPEC, consumer="c")
        assert len(svc.broker.ledger) == 0
        assert svc.privacy_spent() == 0.0

    def test_spec_band_checked_before_release(self):
        svc = make_service(policy=BrokerPolicy(max_alpha=0.05))
        with pytest.raises(PolicyViolationError):
            svc.broker.answer_batch(make_queries(), SPEC, consumer="c")
        assert len(svc.broker.ledger) == 0


class TestScalarRejection:
    def test_rejected_scalar_answer_leaves_every_book_untouched(self):
        """A refused scalar answer journals, settles, charges, bills and
        draws nothing: it is a one-query batch, admitted atomically."""
        probe = make_service()
        one = probe.broker.answer(make_queries()[0], SPEC, consumer="c")
        svc = make_service(capacity=1.5 * one.epsilon_prime)
        broker = svc.broker
        broker.answer(make_queries()[0], SPEC, consumer="c")

        def state():
            return (
                broker.journal.checksum(),
                len(broker.journal),
                broker.ledger.transactions,
                broker.accountant.history("default"),
                broker.accountant.spent("default"),
                broker.policy.epsilon_spent_by("c"),
                broker.policy.purchases_by("c"),
                broker.rng.bit_generator.state,
            )

        before = state()
        with pytest.raises(PrivacyBudgetExceededError):
            broker.answer(make_queries()[1], SPEC, consumer="c")
        assert state() == before
        assert len(broker.journal) == len(broker.ledger) == 1


class TestPerQuerySpecs:
    def test_one_spec_per_query(self):
        svc = make_service()
        queries = make_queries()[:3]
        specs = [
            AccuracySpec(alpha=0.12, delta=0.5),
            AccuracySpec(alpha=0.2, delta=0.5),
            AccuracySpec(alpha=0.12, delta=0.5),
        ]
        answers = svc.broker.answer_batch(queries, specs, consumer="c")
        assert [a.spec for a in answers] == specs
        # Two distinct tiers -> two distinct plans and prices.
        assert answers[0].plan is answers[2].plan
        assert answers[0].price == answers[2].price
        assert answers[0].plan is not answers[1].plan

    def test_spec_count_mismatch_rejected(self):
        svc = make_service()
        with pytest.raises(ValueError, match="one spec per query"):
            svc.broker.answer_batch(make_queries()[:2], [SPEC], consumer="c")


class TestMarketplaceBuyMany:
    def test_batch_purchase_settles_per_query(self):
        svc = make_service()
        queries = make_queries()[:3]
        price = svc.broker.quote(SPEC)
        svc.market.open_account("dana", funds=price * 3)
        answers = svc.market.buy_many("dana", queries, SPEC)
        assert len(answers) == 3
        assert svc.market.balance_of("dana") == pytest.approx(0.0)
        assert len(svc.market.settlements) == 3
        assert svc.market.spend_of("dana") == pytest.approx(price * 3)

    def test_insufficient_funds_refused_before_release(self):
        svc = make_service()
        queries = make_queries()[:3]
        svc.market.open_account("ed", funds=svc.broker.quote(SPEC) * 2)
        with pytest.raises(LedgerError):
            svc.market.buy_many("ed", queries, SPEC)
        assert svc.privacy_spent() == 0.0
        assert len(svc.broker.ledger) == 0

    def test_empty_batch_rejected(self):
        svc = make_service()
        svc.market.open_account("flo", funds=1.0)
        with pytest.raises(LedgerError):
            svc.market.buy_many("flo", [], SPEC)


class TestServiceAnswerMany:
    def test_answer_many_equals_scalar_answers(self):
        scalar_svc, batch_svc = make_service(), make_service()
        ranges = [(0.0, 25.0), (10.0, 35.0), (20.0, 45.0)]
        scalar = [
            scalar_svc.answer(lo, hi, alpha=SPEC.alpha, delta=SPEC.delta)
            for lo, hi in ranges
        ]
        batch = batch_svc.answer_many(
            ranges, alpha=SPEC.alpha, delta=SPEC.delta
        )
        assert [a.value for a in batch] == [a.value for a in scalar]
        assert [a.sample_estimate for a in batch] == [
            a.sample_estimate for a in scalar
        ]


class TestBulkBooks:
    """The kernel writes each book in one pass, or not at all."""

    @staticmethod
    def books(broker):
        return (
            len(broker.journal),
            broker.ledger.transactions,
            broker.ledger.total_revenue(),
            broker.accountant.history("default"),
            broker.policy.epsilon_spent_by("c"),
            broker.policy.purchases_by("c"),
        )

    @pytest.mark.parametrize("fault", ["nan_price", "negative_epsilon"])
    def test_one_bad_row_journals_and_bills_nothing(self, fault, monkeypatch):
        import dataclasses

        from repro.core.query import PrivateAnswer
        from repro.core.settlement import admit, open_batch, release_batch
        from repro.errors import JournalError

        broker = make_service().broker
        other = AccuracySpec(alpha=0.2, delta=0.5)
        queries = make_queries()[:3]
        specs = [SPEC, other, SPEC]
        if fault == "nan_price":
            real = broker.pricing.price
            monkeypatch.setattr(broker.pricing, "price", lambda alpha, delta: (
                float("nan") if alpha == other.alpha else real(alpha, delta)
            ))
        before = self.books(broker)
        batch = open_batch(broker, "broker", queries, specs, "c")
        broker.base_station.ensure_rate(
            max(broker.planner.required_rate(spec) for spec in specs)
        )
        plans = [
            broker.planner.plan(spec, broker.base_station.sampling_rate)
            for spec in specs
        ]
        if fault == "negative_epsilon":
            plans[1] = dataclasses.replace(
                plans[1], epsilon_prime=-0.5 * plans[0].epsilon_prime
            )
        rows, plans = admit(broker, batch, batch.fresh, plans)
        with pytest.raises(JournalError):
            release_batch(
                broker, batch, answer_type=PrivateAnswer, rows=rows,
                plans=plans, value=[1.0] * 3, raw_value=[1.0] * 3,
                sample_estimate=[1.0] * 3,
            )
        assert self.books(broker) == before

    @pytest.mark.parametrize("row", [5, 1, -1])
    def test_replay_rows_outside_the_batch_are_refused(self, row):
        """A replay keyed past the batch used to be dropped silently, and
        its row released fresh and charged ε′."""
        broker = make_service().broker
        cached = broker.answer(make_queries()[0], SPEC, consumer="c")
        before = self.books(broker)
        with pytest.raises(ValueError, match="outside the batch"):
            broker.answer_batch(
                [make_queries()[0]], SPEC, "c", replays={row: cached}
            )
        assert self.books(broker) == before
