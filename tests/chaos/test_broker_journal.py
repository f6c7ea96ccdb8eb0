"""Broker journaling: entry content, ordering, and journal-before-charge."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.service import PrivateRangeCountingService
from repro.durability.journal import TradeJournal
from tests.chaos.conftest import DEVICES, RANGES, RECORDS


def build_service(shards: int = 1) -> PrivateRangeCountingService:
    values = np.random.default_rng(0).uniform(0.0, 200.0, RECORDS)
    service = PrivateRangeCountingService.from_values(
        values, k=DEVICES, seed=11, shards=shards
    )
    service.broker.journal = TradeJournal()
    return service


class TestDataBrokerJournal:
    def test_answer_journals_the_full_trade(self):
        service = build_service()
        broker = service.broker
        answer = service.answer(10.0, 70.0, 0.1, 0.5, consumer="alice")
        assert len(broker.journal) == 1
        entry = broker.journal.entries()[0]
        assert entry.kind == "release"
        assert entry.consumer == "alice"
        assert entry.dataset == broker.dataset
        assert (entry.low, entry.high) == (10.0, 70.0)
        assert (entry.alpha, entry.delta) == (0.1, 0.5)
        assert entry.epsilon_prime == answer.plan.epsilon_prime
        assert entry.price == answer.price
        assert entry.store_version == broker.base_station.store_version
        assert entry.label == "alice:[10.0,70.0]"

    def test_batch_journals_one_entry_per_query_in_order(self):
        service = build_service()
        answers = service.answer_many(list(RANGES), 0.1, 0.5, consumer="bob")
        entries = service.broker.journal.entries()
        assert len(entries) == len(RANGES)
        assert [e.answer_id for e in entries] == list(
            range(1, len(RANGES) + 1)
        )
        assert [(e.low, e.high) for e in entries] == list(RANGES)
        assert [e.epsilon_prime for e in entries] == [
            a.plan.epsilon_prime for a in answers
        ]

    def test_replay_journals_zero_epsilon_but_full_price(self):
        service = build_service()
        broker = service.broker
        first = service.answer(10.0, 70.0, 0.1, 0.5, consumer="alice")
        second = broker.answer_batch(
            [first.query], first.spec, consumer="carol", replays={0: first}
        )[0]
        assert second.value == first.value  # replayed, not re-noised
        entries = broker.journal.entries()
        assert [e.kind for e in entries] == ["release", "replay"]
        assert entries[1].epsilon_prime == 0.0
        assert entries[1].price == entries[0].price
        assert entries[1].consumer == "carol"

    def test_journal_order_matches_ledger_order(self):
        service = build_service()
        for step, (low, high) in enumerate(RANGES):
            service.answer(low, high, 0.1, 0.5, consumer=f"c{step % 2}")
        service.answer_many(list(RANGES), 0.15, 0.4, consumer="c2")
        entries = service.broker.journal.entries()
        txns = service.broker.ledger.transactions
        assert len(entries) == len(txns)
        for entry, txn in zip(entries, txns):
            assert entry.consumer == txn.consumer
            assert entry.price == txn.price
            assert entry.epsilon_prime == txn.epsilon_prime

    def test_journal_append_precedes_every_charge(self, monkeypatch):
        """Journal-before-release: a charge crash leaves the trade journaled."""
        service = build_service()
        broker = service.broker

        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        # The scalar answer is a one-query batch: it charges via charge_many.
        monkeypatch.setattr(broker.accountant, "charge_many", crash)
        with pytest.raises(RuntimeError):
            service.answer(10.0, 70.0, 0.1, 0.5, consumer="alice")
        assert len(broker.journal) == 1
        assert len(broker.ledger) == 0

    def test_every_broker_journals_in_memory_by_default(self):
        values = np.random.default_rng(0).uniform(0.0, 200.0, RECORDS)
        for shards in (1, 2):
            service = PrivateRangeCountingService.from_values(
                values, k=DEVICES, seed=11, shards=shards
            )
            journal = service.broker.journal
            assert isinstance(journal, TradeJournal)
            assert journal.path is None
            answer = service.answer(10.0, 70.0, 0.1, 0.5, consumer="alice")
            assert [e.epsilon_prime for e in journal.entries()] == [
                answer.plan.epsilon_prime
            ]


class TestClusterBrokerJournal:
    def test_cluster_batch_journals_one_consolidated_entry_per_query(self):
        service = build_service(shards=2)
        broker = service.broker
        answers = service.answer_many(list(RANGES), 0.1, 0.5, consumer="dana")
        entries = broker.journal.entries()
        # One consolidated release per query -- shard lanes only draw
        # noise; they never trade, so they never hit the journal.
        assert len(entries) == len(RANGES)
        assert all(e.kind == "release" for e in entries)
        assert all(e.epsilon_prime > 0 for e in entries)
        assert [e.price for e in entries] == [a.price for a in answers]
        assert all(e.dataset == broker.dataset for e in entries)

    def test_cluster_replay_journals_zero_epsilon(self):
        service = build_service(shards=2)
        broker = service.broker
        [cached] = service.answer_many([RANGES[0]], 0.1, 0.5, consumer="dana")
        replayed = broker.replay(cached, consumer="erin")
        entries = broker.journal.entries()
        assert entries[-1].kind == "replay"
        assert entries[-1].epsilon_prime == 0.0
        assert entries[-1].consumer == "erin"
        assert replayed.value == cached.value
