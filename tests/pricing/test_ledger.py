"""Unit tests for the billing ledger."""

from __future__ import annotations

import pytest

from repro.errors import LedgerError
from repro.pricing.ledger import BillingLedger, Transaction


class TestTransaction:
    def test_rejects_negative_price(self):
        with pytest.raises(LedgerError):
            Transaction(1, "alice", "ozone", 0.1, 0.5, -1.0, 0.1)

    def test_rejects_negative_epsilon(self):
        with pytest.raises(LedgerError):
            Transaction(1, "alice", "ozone", 0.1, 0.5, 1.0, -0.1)


class TestBillingLedger:
    @pytest.fixture
    def ledger(self):
        ledger = BillingLedger()
        ledger.record("alice", "ozone", 0.1, 0.5, 10.0, 0.01)
        ledger.record("bob", "ozone", 0.2, 0.4, 5.0, 0.02)
        ledger.record("alice", "no2", 0.1, 0.9, 20.0, 0.03)
        return ledger

    def test_len(self, ledger):
        assert len(ledger) == 3

    def test_ids_monotone(self, ledger):
        ids = [t.transaction_id for t in ledger.transactions]
        assert ids == sorted(ids)
        assert len(set(ids)) == 3

    def test_total_revenue(self, ledger):
        assert ledger.total_revenue() == pytest.approx(35.0)

    def test_revenue_by_consumer(self, ledger):
        by_consumer = ledger.revenue_by_consumer()
        assert by_consumer["alice"] == pytest.approx(30.0)
        assert by_consumer["bob"] == pytest.approx(5.0)

    def test_revenue_by_dataset(self, ledger):
        by_dataset = ledger.revenue_by_dataset()
        assert by_dataset["ozone"] == pytest.approx(15.0)
        assert by_dataset["no2"] == pytest.approx(20.0)

    def test_spend_of(self, ledger):
        assert ledger.spend_of("alice") == pytest.approx(30.0)
        assert ledger.spend_of("nobody") == 0.0

    def test_purchases_of(self, ledger):
        purchases = ledger.purchases_of("alice")
        assert len(purchases) == 2
        assert all(t.consumer == "alice" for t in purchases)

    def test_transactions_immutable_view(self, ledger):
        view = ledger.transactions
        assert isinstance(view, tuple)

    def test_empty_ledger(self):
        ledger = BillingLedger()
        assert len(ledger) == 0
        assert ledger.total_revenue() == 0.0
        assert ledger.revenue_by_consumer() == {}


class TestIncrementalAggregates:
    """The O(1) aggregate indexes must agree with full scans on every
    write path (record, record_many, and artifact loading)."""

    @staticmethod
    def _assert_indexed(ledger):
        txns = ledger.transactions
        assert ledger.total_revenue() == pytest.approx(
            sum(t.price for t in txns)
        )
        for consumer in {t.consumer for t in txns}:
            assert ledger.spend_of(consumer) == pytest.approx(
                sum(t.price for t in txns if t.consumer == consumer)
            )
        for dataset in {t.dataset for t in txns}:
            assert ledger.revenue_by_dataset()[dataset] == pytest.approx(
                sum(t.price for t in txns if t.dataset == dataset)
            )

    def test_record_many_keeps_aggregates_in_sync(self):
        ledger = BillingLedger()
        ledger.record("alice", "ozone", 0.1, 0.5, 10.0, 0.01)
        ledger.record_many(
            [
                dict(consumer="bob", dataset="ozone", alpha=0.2, delta=0.4,
                     price=5.0, epsilon_prime=0.02),
                dict(consumer="alice", dataset="no2", alpha=0.1, delta=0.9,
                     price=20.0, epsilon_prime=0.03),
            ]
        )
        self._assert_indexed(ledger)
        assert ledger.spend_of("alice") == pytest.approx(30.0)

    def test_record_many_is_sequential_record(self):
        sales = [
            dict(consumer=f"c{i % 3}", dataset=("ozone", "no2")[i % 2],
                 alpha=0.1, delta=0.5, price=0.1 * (i + 1) + 1e-9 * i,
                 epsilon_prime=0.01 * i)
            for i in range(40)
        ]
        one_by_one, bulk = BillingLedger(), BillingLedger()
        one_by_one.record("z", "ozone", 0.1, 0.5, 3.0, 0.0)
        bulk.record("z", "ozone", 0.1, 0.5, 3.0, 0.0)
        singles = [one_by_one.record(**sale) for sale in sales]
        # Extra keys (the rest of a journal record) are ignored.
        txns = bulk.record_many([{**sale, "label": "x"} for sale in sales])
        assert txns == singles
        assert bulk.transactions == one_by_one.transactions
        assert bulk.total_revenue() == one_by_one.total_revenue()
        assert bulk.revenue_by_consumer() == one_by_one.revenue_by_consumer()
        assert bulk.revenue_by_dataset() == one_by_one.revenue_by_dataset()

    @pytest.mark.parametrize("field", ["price", "epsilon_prime"])
    def test_record_many_with_one_bad_sale_records_nothing(self, field):
        ledger = BillingLedger()
        ledger.record("z", "ozone", 0.1, 0.5, 3.0, 0.0)
        good = dict(consumer="a", dataset="ozone", alpha=0.1, delta=0.5,
                    price=1.0, epsilon_prime=0.1)
        with pytest.raises(LedgerError):
            ledger.record_many([good, {**good, field: -1.0}, good])
        assert len(ledger) == 1
        assert ledger.total_revenue() == 3.0
        assert ledger.revenue_by_consumer() == {"z": 3.0}

    def test_loaded_ledger_is_indexed(self, tmp_path):
        from repro.io import load_ledger, save_ledger

        ledger = BillingLedger()
        ledger.record("alice", "ozone", 0.1, 0.5, 10.0, 0.01)
        ledger.record("bob", "ozone", 0.2, 0.4, 5.0, 0.02)
        ledger.record("alice", "no2", 0.1, 0.9, 20.0, 0.03)
        path = tmp_path / "ledger.json"
        save_ledger(path, ledger)
        loaded = load_ledger(path)
        self._assert_indexed(loaded)
        assert loaded.total_revenue() == pytest.approx(35.0)
        assert loaded.spend_of("alice") == pytest.approx(30.0)
        # Loaded ledgers keep appending correctly.
        loaded.record("carol", "ozone", 0.1, 0.5, 1.0, 0.01)
        self._assert_indexed(loaded)
