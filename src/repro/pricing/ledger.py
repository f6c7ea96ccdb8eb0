"""Billing ledger: the broker's transaction log and revenue accounting.

The marketplace (Section II-A) charges each consumer ``π(α, δ)`` per
answered query.  :class:`BillingLedger` records every sale immutably so the
broker can audit revenue per consumer, per dataset, and over time, and so
the arbitrage benches can total an adversary's actual spending.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Tuple,
    Union,
)

from repro.errors import LedgerError
from repro.records import DispatchRecord, RowViews, as_record, fold

__all__ = ["Transaction", "BillingLedger", "Sales"]


@dataclass(frozen=True)
class Transaction:
    """One completed sale of an ``(α, δ)`` product."""

    transaction_id: int
    consumer: str
    dataset: str
    alpha: float
    delta: float
    price: float
    epsilon_prime: float

    def __post_init__(self) -> None:
        if self.price < 0:
            raise LedgerError("price must be non-negative")
        if self.epsilon_prime < 0:
            raise LedgerError("epsilon_prime must be non-negative")


class Sales(RowViews[Transaction]):
    """One :meth:`BillingLedger.record_many` call's sales: the record and
    the first transaction id (the ids run on by one).
    :class:`Transaction` views are built on read."""

    __slots__ = ("first_id", "record")

    def __init__(self, first_id: int, record: DispatchRecord) -> None:
        self.first_id = first_id
        self.record = record

    def __len__(self) -> int:
        return len(self.record)

    def __iter__(self) -> Iterator[Transaction]:
        record = self.record
        consumers, datasets = record.consumers, record.datasets
        for txn_id, consumer, dataset, alpha, delta, price, epsilon_prime in zip(
            itertools.count(self.first_id), record.consumer.tolist(),
            record.dataset.tolist(), record.alpha.tolist(), record.delta.tolist(),
            record.price.tolist(), record.epsilon_prime.tolist(),
        ):
            yield Transaction(
                txn_id, consumers[consumer], datasets[dataset], alpha, delta,
                price, epsilon_prime,
            )


#: A sale's fields; the rest of a row (of a journal record, say) is ignored.
_SALE_FIELDS = ("consumer", "dataset", "alpha", "delta", "price", "epsilon_prime")

#: What a sale leaves out of a dispatch record.  Its kind does not matter
#: to the ledger; "release" keeps the record's replay and charge checks
#: out of the way.
_SALE_DEFAULTS: Mapping[str, Any] = {
    "kind": "release", "low": 0.0, "high": 0.0, "store_version": 0,
    "label": None,
}


def _sales(rows: "Iterable[Mapping[str, Any]]") -> DispatchRecord:
    """A dispatch record of one mapping per sale (callers outside the
    settlement kernel)."""
    sales = []
    for row in rows:
        missing = [name for name in _SALE_FIELDS if name not in row]
        if missing:
            raise LedgerError(f"a sale needs {list(_SALE_FIELDS)}; missing {missing}")
        sales.append({name: row[name] for name in _SALE_FIELDS})
    return DispatchRecord.from_rows(sales, _SALE_DEFAULTS, error=LedgerError)


class BillingLedger:
    """Append-only transaction log with aggregate views.

    Every write is one :class:`~repro.records.DispatchRecord`, kept whole
    as one chunk; the :class:`Transaction` views are built when someone
    reads them.  Transaction ids run 1, 2, 3, ... in recording order.
    Aggregates (total revenue, per-consumer and per-dataset totals) are
    folded in on every write, so the serving layer's admission checks
    stay O(1) regardless of ledger length.
    """

    def __init__(self) -> None:
        self._chunks: List[Sales] = []
        self._count = 0
        self._total_revenue: float = 0.0
        self._revenue_by_consumer: Dict[str, float] = {}
        self._revenue_by_dataset: Dict[str, float] = {}

    def record(
        self,
        consumer: str,
        dataset: str,
        alpha: float,
        delta: float,
        price: float,
        epsilon_prime: float,
    ) -> Transaction:
        """Append a sale and return the immutable transaction record."""
        return self.record_many([{
            "consumer": consumer,
            "dataset": dataset,
            "alpha": alpha,
            "delta": delta,
            "price": price,
            "epsilon_prime": epsilon_prime,
        }])[0]

    def record_many(
        self, sales: "Union[DispatchRecord, Iterable[Mapping[str, Any]]]"
    ) -> "Sales":
        """Append one transaction per row of ``sales``, in order.

        ``sales`` is the settlement kernel's dispatch record, or one
        mapping per sale with the keyword arguments of :meth:`record`
        (``consumer``, ``dataset``, ``alpha``, ``delta``, ``price``,
        ``epsilon_prime``; other keys -- the rest of a journal record --
        are ignored).  Ids are assigned sequentially and the aggregates
        folded sale by sale, so the ledger ends up identical to recording
        each sale individually.  The whole batch is validated first: one
        bad sale records none of them.  This is the brokers' bulk path.
        Returns the new transactions (views built on read;
        ``.first_id`` is the first one's id).
        """
        record = as_record(sales, _sales)
        record.check(LedgerError)
        # Each aggregate is a left fold in sale order
        # (:func:`~repro.records.fold`), bit-equal to adding sale by sale.
        prices = record.price
        self._total_revenue = fold(prices, self._total_revenue)
        for totals, column, names in (
            (self._revenue_by_consumer, "consumer", record.consumers),
            (self._revenue_by_dataset, "dataset", record.datasets),
        ):
            for code, rows in record.groups(column):
                name = names[code]
                totals[name] = fold(prices[rows], totals.get(name, 0.0))
        chunk = Sales(self._count + 1, record)
        if len(chunk):
            self._chunks.append(chunk)
            self._count += len(chunk)
        return chunk

    def __len__(self) -> int:
        return self._count

    @property
    def transactions(self) -> Tuple[Transaction, ...]:
        """Immutable view of every recorded sale, oldest first."""
        return tuple(itertools.chain.from_iterable(self._chunks))

    def total_revenue(self) -> float:
        """Sum of all sale prices (maintained incrementally, O(1))."""
        return self._total_revenue

    def revenue_by_consumer(self) -> Dict[str, float]:
        """Total spend per consumer name."""
        return dict(self._revenue_by_consumer)

    def revenue_by_dataset(self) -> Dict[str, float]:
        """Total revenue per dataset key."""
        return dict(self._revenue_by_dataset)

    def spend_of(self, consumer: str) -> float:
        """Total spend of one consumer (O(1); the admission hot path)."""
        return self._revenue_by_consumer.get(consumer, 0.0)

    def purchases_of(self, consumer: str) -> Tuple[Transaction, ...]:
        """All transactions of one consumer, oldest first."""
        return tuple(t for t in self.transactions if t.consumer == consumer)
