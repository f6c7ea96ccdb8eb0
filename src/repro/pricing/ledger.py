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
    Protocol,
    Tuple,
    Union,
)

import numpy as np
import numpy.typing as npt

from repro.errors import LedgerError
from repro.records import DispatchRecord, RowViews, as_record, fold

__all__ = ["Transaction", "BillingLedger", "Sales", "TradeRecord"]


class TradeRecord(Protocol):
    """Structural view of a journaled trade (``repro.durability`` entry).

    Declared locally so the strictly-typed pricing layer never imports the
    durability package: any object exposing these attributes — in practice
    :class:`repro.durability.journal.JournalEntry` — can be replayed.
    """

    @property
    def answer_id(self) -> int: ...

    @property
    def kind(self) -> str: ...

    @property
    def consumer(self) -> str: ...

    @property
    def dataset(self) -> str: ...

    @property
    def alpha(self) -> float: ...

    @property
    def delta(self) -> float: ...

    @property
    def price(self) -> float: ...

    @property
    def epsilon_prime(self) -> float: ...

    @property
    def label(self) -> str: ...


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
    its transaction ids.  :class:`Transaction` views are built on read."""

    __slots__ = ("ids", "record")

    def __init__(self, ids: "npt.NDArray[np.int64]", record: DispatchRecord) -> None:
        self.ids = ids
        self.record = record

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Transaction]:
        record = self.record
        consumers, datasets = record.consumers, record.datasets
        for txn_id, consumer, dataset, alpha, delta, price, epsilon_prime in zip(
            self.ids.tolist(), record.consumer.tolist(), record.dataset.tolist(),
            record.alpha.tolist(), record.delta.tolist(), record.price.tolist(),
            record.epsilon_prime.tolist(),
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
    settlement kernel, and restore/replay)."""
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
    reads them.  Aggregates (total revenue, per-consumer and per-dataset
    totals) are folded in on every write, so the serving layer's
    admission checks stay O(1) regardless of ledger length.
    """

    def __init__(self) -> None:
        self._clear()

    def _clear(self) -> None:
        self._chunks: List[Sales] = []
        self._count = 0
        self._next_id = 1
        self._total_revenue: float = 0.0
        self._revenue_by_consumer: Dict[str, float] = {}
        self._revenue_by_dataset: Dict[str, float] = {}
        # Highest journal answer_id already folded into this ledger; the
        # idempotency floor for replay_journal (0 = nothing replayed yet).
        self._journal_high_water: int = 0

    def _append(self, ids: "npt.NDArray[np.int64]", record: DispatchRecord) -> Sales:
        """Keep one chunk and fold its prices into the aggregates.

        Each aggregate is a left fold in sale order
        (:func:`~repro.records.fold`), bit-equal to adding sale by sale.
        """
        record.check(LedgerError)
        prices = record.price
        self._total_revenue = fold(prices, self._total_revenue)
        for totals, column, names in (
            (self._revenue_by_consumer, "consumer", record.consumers),
            (self._revenue_by_dataset, "dataset", record.datasets),
        ):
            for code, rows in record.groups(column):
                name = names[code]
                totals[name] = fold(prices[rows], totals.get(name, 0.0))
        sales = Sales(ids, record)
        if len(sales):
            self._chunks.append(sales)
            self._count += len(sales)
        return sales

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
        Returns the new transactions (views built on read; ``.ids``
        holds their ids).
        """
        record = as_record(sales, _sales)
        start = self._next_id
        sales_chunk = self._append(
            np.arange(start, start + len(record), dtype=np.int64), record
        )
        self._next_id = start + len(record)
        return sales_chunk

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

    # ------------------------------------------------------------------ #
    # Durability: snapshot / restore / journal replay                    #
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """Serializable copy of the full ledger state.

        Captures the transaction log, the *next* transaction id, and the
        journal high-water mark, so :meth:`restore` followed by
        :meth:`replay_journal` of the journal suffix reproduces the live
        ledger bit for bit — including transaction ids.
        """
        transactions = self.transactions
        return {
            "transactions": [dict(t.__dict__) for t in transactions],
            # The id counter only advances by appending, so the next id is
            # always one past the newest transaction.
            "next_transaction_id": (
                transactions[-1].transaction_id + 1 if transactions else 1
            ),
            "journal_high_water": self._journal_high_water,
        }

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Replace this ledger's state with a :meth:`snapshot` copy."""
        payloads = list(snapshot["transactions"])
        high_water = int(snapshot["journal_high_water"])
        self._clear()
        if payloads:
            ids = np.array(
                [payload["transaction_id"] for payload in payloads],
                dtype=np.int64,
            )
            self._append(ids, _sales(payloads))
        self._next_id = int(snapshot["next_transaction_id"])
        self._journal_high_water = high_water

    def replay_journal(self, entries: "Iterable[TradeRecord]") -> int:
        """Re-apply journaled trades this ledger has not yet seen.

        Entries at or below the journal high-water mark are skipped, so
        replaying the same journal twice — or replaying a full journal on
        top of a snapshot that already contains its prefix — records each
        sale exactly once (the *never double-charges* half of recovery).
        Transactions are recorded through the normal write path, so the
        rebuilt ledger's transaction ids match the uninterrupted run's.
        ``charge`` entries (a histogram or quantile ε′ spend) were never
        billed and record nothing.  Entries must run in ``answer_id``
        order; otherwise nothing is applied.  Returns the number of
        entries applied.
        """
        sales: List[Dict[str, Any]] = []
        previous = 0
        high_water = self._journal_high_water
        for entry in entries:
            if entry.answer_id <= previous:
                raise LedgerError(
                    f"journal replay out of order: answer_id "
                    f"{entry.answer_id} after {previous}"
                )
            previous = entry.answer_id
            if entry.answer_id <= high_water:
                continue
            high_water = entry.answer_id
            if entry.kind == "charge":
                continue
            sales.append({
                "consumer": entry.consumer,
                "dataset": entry.dataset,
                "alpha": entry.alpha,
                "delta": entry.delta,
                "price": entry.price,
                "epsilon_prime": entry.epsilon_prime,
            })
        if sales:
            self.record_many(sales)
        self._journal_high_water = high_water
        return len(sales)
