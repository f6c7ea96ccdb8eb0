"""Recovery semantics: the books are a fold of the journal.

The contract under test (``repro.durability.recovery``):

* recovery posts every journaled record through the live write path
  (``repro.core.settlement.post_record``) into fresh books, so
  recovering twice gives equal books, each trade booked once;
* it never enforces a cap while folding, then applies the caps of the
  broker it recovers, so the per-consumer caps survive a restart;
* because brokers journal *before* they charge (journal-before-release),
  a crash in the window between the two makes recovery over-count ε,
  never under-count.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.chaos import books_equal
from repro.cli import main as cli_main
from repro.core.policy import BrokerPolicy, PolicyViolationError
from repro.core.service import PrivateRangeCountingService
from repro.core.settlement import post_record
from repro.durability import codec
from repro.durability.journal import JournalEntry, TradeJournal
from repro.durability.recovery import recover_accounting
from repro.errors import JournalError, PrivacyBudgetExceededError
from repro.records import DispatchRecord
from tests.chaos.conftest import DEVICES, RANGES, RECORDS, TIERS, journal_record


def build_service(seed: int = 11) -> PrivateRangeCountingService:
    values = np.random.default_rng(0).uniform(0.0, 200.0, RECORDS)
    service = PrivateRangeCountingService.from_values(
        values, k=DEVICES, seed=seed
    )
    service.broker.journal = TradeJournal()
    return service


def run_trades(service: PrivateRangeCountingService, steps: range) -> list:
    """A deterministic mixed-tier workload over the shared test ranges."""
    answers = []
    for step in steps:
        low, high = RANGES[step % len(RANGES)]
        spec = TIERS[step % len(TIERS)]
        answers.append(
            service.answer(
                low, high, spec.alpha, spec.delta, consumer=f"c{step % 3}"
            )
        )
    return answers


def restart(service: PrivateRangeCountingService, path) -> None:
    """The restart recipe of docs/OPERATIONS.md §11, on a broker built
    with the same configuration (caps included) as the one that died."""
    broker = service.broker
    journal = TradeJournal.load(path)
    broker.ledger, broker.accountant, broker.policy = recover_accounting(
        journal, broker
    )
    broker.journal = journal


class TestReplayIdempotence:
    def test_double_replay_applies_once(self):
        journal = TradeJournal()
        journal.append_many([journal_record(low=float(i)) for i in range(3)])
        first = recover_accounting(journal)
        second = recover_accounting(journal)
        assert books_equal(first, second)
        assert len(second.ledger) == 3
        assert second.ledger.total_revenue() == first.ledger.total_revenue()
        assert second.accountant.spent("default") == pytest.approx(0.06)
        assert second.policy.purchases_by("c1") == 3

    def test_replay_entries_bill_but_never_charge(self):
        journal = TradeJournal()
        journal.append_many([journal_record(epsilon_prime=0.02, price=1.5)])
        journal.append_many(
            [journal_record(kind="replay", epsilon_prime=0.0, price=1.5)]
        )
        ledger, accountant, policy = recover_accounting(journal)
        # Both trades are billed and bought; only the release spends ε.
        assert len(ledger) == 2
        assert ledger.total_revenue() == pytest.approx(3.0)
        assert len(accountant.history("default")) == 1
        assert accountant.spent("default") == pytest.approx(0.02)
        assert policy.counters() == {"c1": (0.02, 2)}

    def test_out_of_order_replay_is_loud(self, tmp_path):
        """Recovery folds the journal's records in id order; a file whose
        answer ids do not run 1, 2, 3, ... never loads."""
        record = DispatchRecord.from_rows([journal_record()])
        strings = codec.StringTable()
        path = tmp_path / "backwards.journal"
        path.write_bytes(codec.header(codec.TRADE_LOG) + b"".join(
            codec.encode_trades([(first_id, record)], strings)
            for first_id in (2, 1)
        ))
        with pytest.raises(JournalError, match="ids must run"):
            TradeJournal.load(path)

    def test_replay_never_enforces_capacity(self):
        journal = TradeJournal()
        journal.append_many(
            [journal_record(epsilon_prime=0.5) for _ in range(4)]
        )
        broker = build_service().broker
        broker.accountant.capacity = 1.0
        broker.policy = BrokerPolicy(
            max_epsilon_per_consumer=1.0, max_purchases_per_consumer=2
        )
        # 2.0 > every cap, yet every journaled spend must land: the
        # releases already happened, so recovery records history.
        books = recover_accounting(journal, broker)
        assert books.accountant.spent("default") == pytest.approx(2.0)
        assert books.policy.counters() == {"c1": (2.0, 4)}
        # The caps apply to what comes next.
        assert books.accountant.capacity == 1.0
        assert books.policy.max_purchases_per_consumer == 2
        assert not books.accountant.can_afford("default", 0.1)
        assert not books.policy.can_release("c1", 0.1)


class TestCapsSurviveRestart:
    """A consumer's caps hold across a crash and restart: the recovered
    policy carries the purchases and ε′ it had already sold them."""

    @staticmethod
    def capped(path, **caps) -> PrivateRangeCountingService:
        service = build_service()
        service.broker.policy = BrokerPolicy(**caps)
        service.broker.journal = TradeJournal(path=path)
        return service

    @staticmethod
    def buy(service: PrivateRangeCountingService, step: int):
        low, high = RANGES[step]
        return service.answer(low, high, 0.1, 0.5, consumer="capped")

    def test_purchase_cap_holds_across_a_restart(self, tmp_path):
        path = tmp_path / "trades.journal"
        live = self.capped(path, max_purchases_per_consumer=2)
        self.buy(live, 0)
        self.buy(live, 1)
        with pytest.raises(PolicyViolationError):
            self.buy(live, 2)
        live.broker.journal.close()

        restarted = build_service()
        restarted.broker.policy = BrokerPolicy(max_purchases_per_consumer=2)
        restart(restarted, path)
        assert restarted.broker.policy.purchases_by("capped") == 2
        assert books_equal(restarted.broker, live.broker)
        with pytest.raises(PolicyViolationError):
            self.buy(restarted, 2)
        assert len(restarted.broker.ledger) == 2

    def test_epsilon_cap_holds_across_a_restart(self, tmp_path):
        path = tmp_path / "trades.journal"
        probe = build_service()
        self.buy(probe, 0)
        self.buy(probe, 1)
        cap = probe.broker.policy.epsilon_spent_by("capped")

        live = self.capped(path, max_epsilon_per_consumer=cap)
        self.buy(live, 0)
        self.buy(live, 1)
        with pytest.raises(PolicyViolationError):
            self.buy(live, 2)
        live.broker.journal.close()

        restarted = build_service()
        restarted.broker.policy = BrokerPolicy(max_epsilon_per_consumer=cap)
        restart(restarted, path)
        assert restarted.broker.policy.epsilon_spent_by("capped") == cap
        assert books_equal(restarted.broker, live.broker)
        with pytest.raises(PolicyViolationError):
            self.buy(restarted, 2)
        assert len(restarted.broker.ledger) == 2


@pytest.mark.parametrize("kinds, consumers, runs", [
    ("rrrr", "aabb", [[0, 1], [2, 3]]),
    ("rrrr", "abba", [[0], [1, 2], [3]]),
    ("rprr", "aaab", [[0, 2], [3]]),
    ("crrc", "-aa-", [[0], [1, 2], [3]]),
    ("pppp", "abab", []),
])
def test_the_accountant_is_charged_once_per_run(kinds, consumers, runs):
    """``post_record`` charges each run of one consumer's ε′-spending rows
    as one chunk, in row order; replay rows spend nothing."""
    kind = {"r": "release", "p": "replay", "c": "charge"}
    record = DispatchRecord.from_rows(
        journal_record(
            kind=kind[k], consumer=c, low=float(i),
            epsilon_prime=0.0 if k == "p" else 0.01 * (i + 1),
            price=0.0 if k == "c" else 1.5,
        )
        for i, (k, c) in enumerate(zip(kinds, consumers))
    )
    assert [rows.tolist() for _, rows in record.charge_runs()] == runs
    books = recover_accounting(TradeJournal())
    charged = []
    books.accountant.charge_many = lambda dataset, eps, labels: charged.append(
        list(eps)
    )
    post_record(books, record)
    assert charged == [[0.01 * (i + 1) for i in run] for run in runs]
    assert len(books.ledger) == kinds.count("r") + kinds.count("p")


class TestDumpMigration:
    def test_dump_lines_in_one_append_recover_the_books(self, tmp_path, capsys):
        """The format-change migration of docs/OPERATIONS.md §11: the
        ``journal-dump`` lines of a journal, appended to a fresh one in
        one ``append_many``, recover the books of the broker that wrote
        it -- one record mixing kinds and consumers, folded row by row."""
        service = build_service()
        broker = service.broker
        path = tmp_path / "old.journal"
        broker.journal = TradeJournal(path=path)
        run_trades(service, range(0, 4))
        service.histogram(0.0, 200.0, buckets=4, epsilon=0.5)
        service.answer_many(list(RANGES), 0.1, 0.5, consumer="c1")
        run_trades(service, range(4, 7))
        broker.journal.close()

        assert cli_main(["journal-dump", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        entries = [JournalEntry.from_payload(json.loads(line)) for line in lines]
        assert {entry.kind for entry in entries} == {"release", "charge"}
        journal = TradeJournal(path=tmp_path / "new.journal")
        journal.append_many(
            {k: v for k, v in vars(e).items() if k != "answer_id"} for e in entries
        )
        journal.close()
        (record,) = TradeJournal.load(tmp_path / "new.journal").records()
        assert len(record) == len(entries)
        assert books_equal(
            recover_accounting(TradeJournal.load(tmp_path / "new.journal")), broker
        )


class TestCrashWindow:
    def test_crash_between_journal_and_charge_overcounts(self, monkeypatch):
        service = build_service()
        broker = service.broker
        run_trades(service, range(0, 3))
        live_spent = broker.accountant.spent(broker.dataset)
        live_txns = len(broker.ledger)

        def crash(*args, **kwargs):
            raise RuntimeError("simulated crash after journal append")

        # The scalar answer is a one-query batch: it charges via charge_many.
        monkeypatch.setattr(broker.accountant, "charge_many", crash)
        with pytest.raises(RuntimeError):
            service.answer(10.0, 70.0, 0.1, 0.5, consumer="c0")

        # The trade reached the journal but never the books.
        assert len(broker.journal) == live_txns + 1
        assert len(broker.ledger) == live_txns
        assert broker.accountant.spent(broker.dataset) == live_spent

        ledger, accountant, _ = recover_accounting(broker.journal)
        # Recovery over-counts the half-landed trade: accounted ε after
        # recovery is at least the ε actually released (never less).
        assert accountant.spent(broker.dataset) > live_spent
        assert len(ledger) == live_txns + 1

    def test_batch_crash_journals_before_any_charge(self, monkeypatch):
        service = build_service()
        broker = service.broker
        run_trades(service, range(0, 2))
        pre_journal = len(broker.journal)
        pre_txns = len(broker.ledger)

        def crash(*args, **kwargs):
            raise RuntimeError("simulated crash in batch settle")

        monkeypatch.setattr(broker.accountant, "charge_many", crash)
        with pytest.raises(RuntimeError):
            service.answer_many(list(RANGES), 0.1, 0.5, consumer="c1")

        # The whole batch hit the journal atomically; the books saw none
        # of it — recovery can only over-count, never under-count.
        assert len(broker.journal) == pre_journal + len(RANGES)
        assert len(broker.ledger) == pre_txns
        recovered = recover_accounting(broker.journal)
        assert len(recovered.ledger) == pre_txns + len(RANGES)
        assert recovered.accountant.spent(broker.dataset) >= (
            broker.accountant.spent(broker.dataset)
        )


class TestRecoveryEquivalence:
    def test_mid_run_recovery_is_bit_identical(self):
        """Crash + journal replay halfway equals an uninterrupted twin."""
        uninterrupted = build_service()
        crashed = build_service()

        answers_a = run_trades(uninterrupted, range(0, 7))
        answers_b = run_trades(crashed, range(0, 7))

        # Simulate losing the in-memory books: rebuild them from the
        # journal alone and swap them into the live broker.
        broker = crashed.broker
        recovered = recover_accounting(broker.journal, broker)
        assert books_equal(recovered, broker)
        broker.ledger, broker.accountant, broker.policy = recovered

        answers_a += run_trades(uninterrupted, range(7, 14))
        answers_b += run_trades(crashed, range(7, 14))

        # Recovery must not perturb anything: values, prices, transaction
        # ids, and the final books all match the uninterrupted run.
        assert [a.value for a in answers_a] == [b.value for b in answers_b]
        assert [a.transaction_id for a in answers_a] == [
            b.transaction_id for b in answers_b
        ]
        assert books_equal(uninterrupted.broker, crashed.broker)


class TestOutOfTradeCharges:
    """Histogram and quantile releases spend ε′ outside the trade path;
    their charges must reach the journal like every trade's."""

    def test_histogram_and_quantile_spends_recover_bit_exact(self, tmp_path):
        service = build_service()
        broker = service.broker
        path = tmp_path / "journal.bin"
        broker.journal = TradeJournal(path=path)
        run_trades(service, range(0, 1))
        service.histogram(0.0, 200.0, buckets=4, epsilon=0.5)
        service.private_quantile(0.5, epsilon=0.5)
        run_trades(service, range(1, 2))

        kinds = [entry.kind for entry in broker.journal.entries()]
        assert kinds == ["release", "charge", "charge", "release"]
        live_history = broker.accountant.history(broker.dataset)
        assert len(live_history) == 4
        for journal in (broker.journal, TradeJournal.load(path)):
            recovered = recover_accounting(journal)
            assert recovered.accountant.spent(broker.dataset) == (
                broker.accountant.spent(broker.dataset)
            )
            assert recovered.accountant.history(broker.dataset) == live_history
            # The charges were never billed nor bought: the ledger and the
            # policy hold the trades only.
            assert recovered.ledger.transactions == broker.ledger.transactions
            assert len(recovered.ledger) == 2
            assert sum(n for _, n in recovered.policy.counters().values()) == 2
            assert books_equal(recovered, broker)

    def test_refused_charge_journals_nothing(self):
        service = build_service()
        broker = service.broker
        run_trades(service, range(0, 2))
        spent = broker.accountant.spent(broker.dataset)
        broker.accountant.capacity = spent + 1e-9
        pre_journal = len(broker.journal)
        with pytest.raises(PrivacyBudgetExceededError):
            service.histogram(0.0, 200.0, buckets=4, epsilon=0.5)
        with pytest.raises(PrivacyBudgetExceededError):
            service.private_quantile(0.5, epsilon=0.5)
        assert len(broker.journal) == pre_journal
        assert broker.accountant.spent(broker.dataset) == spent

    def test_charge_entries_are_never_billed(self):
        with pytest.raises(JournalError):
            TradeJournal().append_many([journal_record(kind="charge", price=1.5)])
        journal = TradeJournal()
        journal.append_many([journal_record(kind="charge", price=0.0)])
        ledger, accountant, policy = recover_accounting(journal)
        assert len(ledger) == 0
        assert policy.counters() == {}
        assert accountant.history("default")[0].epsilon == 0.02
