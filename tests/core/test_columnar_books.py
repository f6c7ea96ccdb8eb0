"""Property test: the columnar books equal a row-by-row reference.

Random dispatches go through the settlement kernel's ``release_batch``,
which hands one :class:`~repro.records.DispatchRecord` to the journal,
the policy, the accountant and the ledger.  Beside it, a plain-Python
reference settles the same admitted batch the way the kernel did before
it went columnar: one dict per row in settlement order, one journal
entry, one transaction and one budget entry each, every aggregate a
``+=`` loop.  Dispatches mix consumers, the caller's replays of cached
answers and of earlier rows, the broker's own in-batch replays, refused
consumer groups and, now and then, a row whose price is NaN or negative
(the journal must refuse that whole dispatch and no book may move).
After every dispatch the ledger's aggregates, transaction ids, the
accountant's total and history, the policy's ε and purchases per
consumer and the journal entries -- live, and decoded from the file --
must be bit-equal to the reference.
"""

from __future__ import annotations

import copy
import struct
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import BrokerPolicy, PolicyViolationError
from repro.core.query import AccuracySpec, PrivateAnswer, RangeQuery
from repro.core.settlement import admit, open_batch, release_batch
from repro.durability.journal import TradeJournal
from repro.errors import JournalError
from repro.pricing.ledger import BillingLedger
from repro.privacy.budget import BudgetAccountant

TIERS = (AccuracySpec(0.1, 0.5), AccuracySpec(0.2, 0.6), AccuracySpec(0.05, 0.9))
CONSUMERS = ("a", "b", "c", "dé")
DATASET = "ozone"


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


class _Station:
    store_version = 4


#: The store version the estimates are drawn at: past the one each call
#: opens at, so a replay of a cached answer is journaled differently.
RELEASED_AT = 5


@dataclass
class _Pricing:
    """List prices, with one tier that can be made to misprice."""

    bad: Optional[float] = None

    def price(self, alpha: float, delta: float) -> float:
        if self.bad is not None and alpha == TIERS[2].alpha:
            return self.bad
        return 1.0 / (alpha * alpha) + delta / 3.0


@dataclass
class _Broker:
    journal: TradeJournal
    dataset: str = DATASET
    policy: BrokerPolicy = field(default_factory=BrokerPolicy)
    accountant: BudgetAccountant = field(default_factory=BudgetAccountant)
    ledger: BillingLedger = field(default_factory=BillingLedger)
    pricing: _Pricing = field(default_factory=_Pricing)
    telemetry: Any = None
    base_station: _Station = field(default_factory=_Station)


# ---------------------------------------------------------------------- #
# The row-by-row reference                                               #
# ---------------------------------------------------------------------- #
@dataclass
class Reference:
    entries: List[Dict[str, Any]] = field(default_factory=list)
    transactions: List[Tuple[Any, ...]] = field(default_factory=list)
    revenue: float = 0.0
    by_consumer: Dict[str, float] = field(default_factory=dict)
    by_dataset: Dict[str, float] = field(default_factory=dict)
    spent: float = 0.0
    history: List[Tuple[str, float]] = field(default_factory=list)
    policy_epsilon: Dict[str, float] = field(default_factory=dict)
    purchases: Dict[str, int] = field(default_factory=dict)

    def settle(self, broker, batch, rows, plans) -> None:
        """Settle an admitted batch one row at a time (the kernel's old
        loop), refusing the whole dispatch if a row is invalid."""
        policy = copy.deepcopy(broker.policy)
        column = {row: k for k, row in enumerate(rows)}
        prices: Dict[Tuple[float, float], float] = {}
        bought: Dict[str, int] = {}
        records: List[Dict[str, Any]] = []
        runs: Dict[str, List[Tuple[str, float]]] = {}
        for i in batch.settlement_order():
            if i in batch.failed:
                continue
            consumer, query, spec = batch.consumers[i], batch.queries[i], batch.specs[i]
            source = batch.replays.get(i)
            if isinstance(source, int):
                if source in batch.failed:
                    batch.refuse([i], batch.failed[source])
                    continue
                if i in batch.standalone:
                    try:
                        policy.admit(consumer, spec, bought.get(consumer, 0))
                    except PolicyViolationError as exc:
                        batch.refuse([i], exc)
                        continue
            bought[consumer] = bought.get(consumer, 0) + 1
            tier = (spec.alpha, spec.delta)
            if tier not in prices:
                prices[tier] = broker.pricing.price(*tier)
            label = f"{consumer}:[{query.low},{query.high}]"
            if source is not None:
                kind, epsilon_prime, version = "replay", 0.0, RELEASED_AT
                if i in batch.standalone and not isinstance(source, int):
                    version = batch.opened_at
            else:
                kind, version = "release", RELEASED_AT
                epsilon_prime = plans[column[i]].epsilon_prime
                runs.setdefault(consumer, []).append((label, epsilon_prime))
            records.append(dict(
                kind=kind, consumer=consumer, dataset=DATASET, low=query.low,
                high=query.high, alpha=spec.alpha, delta=spec.delta,
                epsilon_prime=epsilon_prime, price=prices[tier],
                store_version=version, label=label,
            ))
        if any(not (r["price"] >= 0 and np.isfinite(r["price"])) for r in records):
            return
        for record in records:
            self.entries.append({"answer_id": len(self.entries) + 1, **record})
            name = record["consumer"]
            self.policy_epsilon[name] = (
                self.policy_epsilon.get(name, 0.0) + record["epsilon_prime"]
            )
            self.purchases[name] = self.purchases.get(name, 0) + 1
        for charges in runs.values():
            for label, epsilon_prime in charges:
                self.history.append((label, epsilon_prime))
                self.spent += epsilon_prime
        for record in records:
            self.transactions.append((
                len(self.transactions) + 1, record["consumer"], DATASET,
                record["alpha"], record["delta"], record["price"],
                record["epsilon_prime"],
            ))
            price, name = record["price"], record["consumer"]
            self.revenue += price
            self.by_consumer[name] = self.by_consumer.get(name, 0.0) + price
            self.by_dataset[DATASET] = self.by_dataset.get(DATASET, 0.0) + price


def same_entries(got, want) -> bool:
    if len(got) != len(want):
        return False
    for entry, expected in zip(got, want):
        for name, value in expected.items():
            actual = getattr(entry, name)
            if isinstance(value, float):
                if bits(actual) != bits(value):
                    return False
            elif actual != value:
                return False
    return True


def assert_books_equal(broker, reference: Reference) -> None:
    ledger, accountant, policy = broker.ledger, broker.accountant, broker.policy
    assert bits(ledger.total_revenue()) == bits(reference.revenue)
    assert {k: bits(v) for k, v in ledger.revenue_by_consumer().items()} == {
        k: bits(v) for k, v in reference.by_consumer.items()
    }
    assert {k: bits(v) for k, v in ledger.revenue_by_dataset().items()} == {
        k: bits(v) for k, v in reference.by_dataset.items()
    }
    assert [
        (t.transaction_id, t.consumer, t.dataset, t.alpha, t.delta, t.price,
         t.epsilon_prime)
        for t in ledger.transactions
    ] == reference.transactions
    assert bits(accountant.spent(DATASET)) == bits(reference.spent)
    assert [(e.label, bits(e.epsilon)) for e in accountant.history(DATASET)] == [
        (label, bits(epsilon)) for label, epsilon in reference.history
    ]
    for name in CONSUMERS:
        assert bits(policy.epsilon_spent_by(name)) == bits(
            reference.policy_epsilon.get(name, 0.0)
        )
        assert policy.purchases_by(name) == reference.purchases.get(name, 0)
    assert same_entries(broker.journal.entries(), reference.entries)


# ---------------------------------------------------------------------- #
# Random dispatches                                                      #
# ---------------------------------------------------------------------- #
@st.composite
def dispatches(draw):
    size = draw(st.integers(1, 12))
    rows = []
    for _ in range(size):
        low = draw(st.one_of(
            st.floats(0.0, 100.0, allow_subnormal=False),
            st.integers(0, 100),
            st.sampled_from((-0.0, 1e-17)),
        ))
        rows.append((
            draw(st.sampled_from(CONSUMERS)),
            low,
            draw(st.sampled_from((0.5, 25.0, 2.5e300))),
            draw(st.integers(0, len(TIERS) - 1)),
            draw(st.floats(1e-6, 0.5)),
        ))
    return {
        "rows": rows,
        # Caller replays: row -> an earlier row, or the previous
        # dispatch's answer at some position.
        "replay_rows": draw(st.lists(st.integers(1, size - 1), max_size=3))
        if size > 1 else [],
        "cached_rows": draw(st.lists(st.integers(0, size - 1), max_size=2)),
        # The broker's own replays (memo hits): row -> earlier row.
        "memo_rows": draw(st.lists(st.integers(1, size - 1), max_size=2))
        if size > 1 else [],
        "refused": draw(st.sampled_from((None,) + CONSUMERS)),
        "bad_price": draw(st.sampled_from((None, None, None, float("nan"), -1.0))),
    }


def run_dispatch(broker, reference, spec, previous, rng):
    queries = [
        RangeQuery(low, low + width) for _, low, width, _, _ in spec["rows"]
    ]
    specs = [TIERS[tier] for _, _, _, tier, _ in spec["rows"]]
    consumers = [consumer for consumer, *_ in spec["rows"]]
    replays: Dict[int, Any] = {}
    for row in spec["replay_rows"]:
        replays[row] = int(rng.integers(0, row))
    for row in spec["cached_rows"]:
        if previous and row not in replays:
            replays[row] = previous[int(rng.integers(0, len(previous)))]
    batch = open_batch(broker, "broker", queries, specs, consumers, replays=replays)
    if spec["refused"] is not None:
        rows = batch.groups().get(spec["refused"], [])
        batch.refuse(rows, PolicyViolationError("refused for the test"))
    fresh = batch.fresh
    for row in spec["memo_rows"]:
        if row in fresh:
            earlier = [i for i in fresh if i < row]
            if earlier:
                batch.replays[row] = earlier[0]
    fresh = batch.fresh
    plans = [
        SimpleNamespace(epsilon_prime=spec["rows"][i][4]) for i in fresh
    ]
    fresh, plans = admit(broker, batch, fresh, plans)
    values = rng.uniform(0.0, 50.0, len(fresh))
    broker.pricing.bad = spec["bad_price"]
    mirror = copy.deepcopy(batch)
    reference.settle(broker, mirror, fresh, plans)
    try:
        outcomes = release_batch(
            broker, batch, answer_type=PrivateAnswer, rows=fresh, plans=plans,
            value=values, raw_value=values, sample_estimate=values,
            store_version=RELEASED_AT,
        )
    except JournalError:
        assert spec["bad_price"] is not None
        return previous
    finally:
        broker.pricing.bad = None
    assert spec["bad_price"] is None or all(
        spec["rows"][i][3] != 2 for i in range(len(queries))
        if not isinstance(outcomes[i], Exception)
    )
    return [a for a in outcomes if not isinstance(a, Exception)]


@settings(max_examples=40, deadline=None)
@given(plan=st.lists(dispatches(), min_size=1, max_size=6), seed=st.integers(0, 9))
def test_columnar_books_equal_the_row_by_row_reference(plan, seed):
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "trades.journal"
        broker = _Broker(journal=TradeJournal(path=path))
        reference = Reference()
        previous: List[PrivateAnswer] = []
        for spec in plan:
            previous = run_dispatch(broker, reference, spec, previous, rng)
            assert_books_equal(broker, reference)
        broker.journal.close()
        with TradeJournal.load(path) as loaded:
            assert same_entries(loaded.entries(), reference.entries)


@pytest.mark.parametrize("bad", [float("nan"), -1.0])
def test_a_mispriced_row_refuses_its_whole_dispatch(bad):
    broker = _Broker(journal=TradeJournal())
    reference = Reference()
    spec = {
        "rows": [("a", 1.0, 2.0, 0, 0.1), ("b", 3.0, 4.0, 2, 0.2)],
        "replay_rows": [], "cached_rows": [], "memo_rows": [],
        "refused": None, "bad_price": bad,
    }
    run_dispatch(broker, reference, spec, [], np.random.default_rng(0))
    assert len(broker.journal) == len(broker.ledger) == 0
    assert broker.accountant.history(DATASET) == ()
    assert broker.policy.purchases_by("a") == 0
    assert_books_equal(broker, reference)
