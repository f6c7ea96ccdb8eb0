"""The settlement kernel: the one release path every broker trades through.

The paper's trade runs plan → estimate → perturb → charge (Section II-A).
The first three steps are each broker's *estimate source*:

* :class:`~repro.core.broker.DataBroker` -- top-up, plan,
  ``estimate_many``, Laplace draw;
* :class:`~repro.streaming.broker.StreamingBroker` -- window snapshot,
  pooled estimates, Laplace draw;
* :class:`~repro.cluster.broker.ClusterBroker` -- route, scatter to the
  shard lanes, merge.

The charging half is identical for all three and lives only here:

1. :func:`open_batch` -- deadline checkpoint, spec broadcast, dataset
   check, and the policy's spec-band / purchase-cap admission;
2. :func:`admit` -- the batch's total ε′ against every budget book (the
   policy's per-consumer cap, the lifetime accountant, and for streaming
   the per-epoch ledgers), atomically, before anything is released;
3. :func:`release_batch` -- journal every trade *before* any book
   mutates (journal-before-release), then settle the policy, charge the
   accountant(s), record the sales, and assemble the answers.

:func:`replay` is the single ε′ = 0 re-release: handing a released noisy
count to another buyer is post-processing, so it is journaled and billed
but charges no budget.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
)

import numpy as np
import numpy.typing as npt

from repro.core.policy import BrokerPolicy, PolicyViolationError
from repro.core.query import AccuracySpec, PrivateAnswer, RangeQuery
from repro.errors import PrivacyBudgetExceededError
from repro.pricing.functions import PricingFunction
from repro.pricing.ledger import BillingLedger
from repro.privacy.budget import BudgetAccountant
from repro.privacy.optimizer import PrivacyPlan
from repro.resilience.deadline import check_deadline

if TYPE_CHECKING:  # pragma: no cover - types only, avoids import cycles
    from repro.durability.journal import TradeJournal
    from repro.serving.telemetry import MetricsRegistry
    from repro.streaming.accounting import EpochBudgetAccountant
    from repro.streaming.journal import WindowLog

__all__ = ["Batch", "WindowBooks", "open_batch", "admit", "release_batch", "replay"]

_A = TypeVar("_A", bound=PrivateAnswer)

#: A per-row column of released numbers (a list or a float64 array).
Column = Union[Sequence[float], npt.NDArray[np.float64]]


class _Versioned(Protocol):
    @property
    def store_version(self) -> int: ...


class Broker(Protocol):
    """The books and metadata a broker hands the kernel."""

    @property
    def dataset(self) -> str: ...
    @property
    def policy(self) -> Optional[BrokerPolicy]: ...
    @property
    def accountant(self) -> BudgetAccountant: ...
    @property
    def ledger(self) -> BillingLedger: ...
    @property
    def pricing(self) -> PricingFunction: ...
    @property
    def journal(self) -> "Optional[TradeJournal]": ...
    @property
    def telemetry(self) -> "Optional[MetricsRegistry]": ...
    @property
    def base_station(self) -> _Versioned: ...


@dataclass(frozen=True)
class Batch:
    """One admitted batch on its way through the kernel."""

    #: Metric / deadline-stage prefix: ``broker``, ``cluster`` or ``streaming``.
    prefix: str
    consumer: str
    queries: List[RangeQuery]
    specs: List[AccuracySpec]


@dataclass(frozen=True)
class WindowBooks:
    """Streaming's per-epoch books for one batch's window snapshot.

    Every release is charged to each live epoch's ledger and, when a
    window log is attached, journaled there first so recovery rebuilds
    the per-epoch books bit-exactly.
    """

    accountant: "EpochBudgetAccountant"
    log: "Optional[WindowLog]"
    epochs: List[int]
    window_id: str


def _policy(broker: Broker) -> BrokerPolicy:
    policy = broker.policy
    assert policy is not None, "brokers install a policy at construction"
    return policy


def _journal_trades(
    journal: "Optional[TradeJournal]", records: List[Dict[str, Any]]
) -> None:
    """Commit trades to the write-ahead journal, pre-release.

    Runs before any policy, accountant or ledger write and before an
    answer leaves the kernel: a crash after the append can only make
    recovery *over*-count ε, never under-count it.  No-op when no journal
    is attached.
    """
    if journal is not None:
        journal.append_many(records)


def _label(consumer: str, query: RangeQuery) -> str:
    return f"{consumer}:[{query.low},{query.high}]"


def _trade(
    kind: str,
    broker: Broker,
    consumer: str,
    query: RangeQuery,
    spec: AccuracySpec,
    epsilon_prime: float,
    price: float,
    store_version: int,
    label: str,
) -> Dict[str, Any]:
    """One journal record (the recovery replay format)."""
    return dict(
        kind=kind,
        consumer=consumer,
        dataset=broker.dataset,
        low=query.low,
        high=query.high,
        alpha=spec.alpha,
        delta=spec.delta,
        epsilon_prime=epsilon_prime,
        price=price,
        store_version=store_version,
        label=label,
    )


def open_batch(
    broker: Broker,
    prefix: str,
    queries: Sequence[RangeQuery],
    spec: "AccuracySpec | Sequence[AccuracySpec]",
    consumer: str,
) -> Batch:
    """Validate a batch and admit its specs and size against the policy.

    ``spec`` may be one shared tier or one :class:`AccuracySpec` per
    query.  An expired request (deadline scope installed by the serving
    gateway) is refused here, before anything is planned or drawn.
    """
    if not queries:
        raise ValueError("at least one query is required")
    check_deadline(f"{prefix}.answer_batch")
    if isinstance(spec, AccuracySpec):
        specs = [spec] * len(queries)
    else:
        specs = list(spec)
        if len(specs) != len(queries):
            raise ValueError(
                f"got {len(specs)} specs for {len(queries)} queries; "
                "pass one spec per query or a single shared spec"
            )
    for query in queries:
        if query.dataset not in ("default", broker.dataset):
            raise ValueError(
                f"query targets dataset {query.dataset!r}, {prefix} serves "
                f"{broker.dataset!r}"
            )
    _policy(broker).admit_batch(consumer, specs)
    return Batch(prefix, consumer, list(queries), specs)


def admit(
    broker: Broker,
    batch: Batch,
    plans: Sequence[PrivacyPlan],
    window: Optional[WindowBooks] = None,
) -> None:
    """Refuse the batch unless its fresh releases fit every budget book.

    ``plans`` are the plans of the rows that will be charged (replays
    cost nothing).  Checked as one sum, so a batch completes in full or
    charges nothing.
    """
    total = sum(plan.epsilon_prime for plan in plans)
    if not _policy(broker).can_release(batch.consumer, total):
        raise PolicyViolationError(
            f"consumer {batch.consumer!r} would exceed the per-consumer "
            "privacy cap"
        )
    if not broker.accountant.can_afford(broker.dataset, total):
        raise PrivacyBudgetExceededError(
            f"dataset {broker.dataset!r}: batch of {len(plans)} releases "
            f"(ε′={total:.6g}) would exceed capacity "
            f"{broker.accountant.capacity:.6g}"
        )
    if window is not None and not window.accountant.can_afford(
        broker.dataset, window.epochs, total
    ):
        raise PrivacyBudgetExceededError(
            f"dataset {broker.dataset!r}: batch ε′={total:.6g} would exceed "
            f"the per-epoch capacity {window.accountant.capacity:.6g} on "
            f"window epochs {window.epochs}"
        )


def release_batch(
    broker: Broker,
    batch: Batch,
    *,
    answer_type: Type[_A],
    plans: Sequence[PrivacyPlan],
    value: Column,
    raw_value: Column,
    sample_estimate: Column,
    extras: Optional[Sequence[Mapping[str, Any]]] = None,
    replays: Optional[Mapping[int, Union[_A, int]]] = None,
    store_version: Optional[int] = None,
    window: Optional[WindowBooks] = None,
) -> List[_A]:
    """Journal, settle, charge, bill and assemble one admitted batch.

    Rows listed in ``replays`` re-release an earlier answer (a cached one,
    or the index of an earlier row of this batch) at ε′ = 0.  Every other
    row is a fresh release; ``plans``, ``value`` (released, clamped),
    ``raw_value`` (noisy, unclamped), ``sample_estimate`` and ``extras``
    (extra answer fields) run over those rows in order.  ``value`` and
    ``raw_value`` must already be Laplace-perturbed.

    Books are written in query order with per-entry records identical to
    one-at-a-time trading: the whole batch is journaled first (and, for
    streaming, every epoch charge is logged to the window log), then the
    policy settles, the accountant -- and each live epoch ledger -- is
    charged, and the ledger records one sale per row.
    """
    consumer, dataset = batch.consumer, broker.dataset
    replayed: Mapping[int, Union[_A, int]] = replays or {}
    if store_version is None:
        store_version = broker.base_station.store_version
    suffix = f"@{window.window_id}" if window is not None else ""
    prices: Dict[Tuple[float, float], float] = {}
    records: List[Dict[str, Any]] = []
    sales: List[Dict[str, Any]] = []
    settles: List[float] = []
    charges: List[float] = []
    charge_labels: List[str] = []
    fresh = 0
    for i, (query, spec) in enumerate(zip(batch.queries, batch.specs)):
        tier = (spec.alpha, spec.delta)
        price = prices.get(tier)
        if price is None:
            price = prices[tier] = broker.pricing.price(spec.alpha, spec.delta)
        label = _label(consumer, query) + suffix
        if i in replayed:
            kind, epsilon_prime = "replay", 0.0
        else:
            kind, epsilon_prime = "release", plans[fresh].epsilon_prime
            fresh += 1
            charges.append(epsilon_prime)
            charge_labels.append(label)
        settles.append(epsilon_prime)
        records.append(_trade(
            kind, broker, consumer, query, spec, epsilon_prime, price,
            store_version, label,
        ))
        sales.append(dict(
            consumer=consumer,
            dataset=dataset,
            alpha=spec.alpha,
            delta=spec.delta,
            price=price,
            epsilon_prime=epsilon_prime,
        ))

    # Last pre-commit checkpoint: past here the trade is journaled and
    # charged, so an expired deadline must abort now or not at all.
    check_deadline(f"{batch.prefix}.journal")
    _journal_trades(broker.journal, records)
    if window is not None and window.log is not None:
        for epsilon_prime, label in zip(charges, charge_labels):
            window.log.append_charge(dataset, window.epochs, epsilon_prime, label)
    policy = _policy(broker)
    for epsilon_prime in settles:
        policy.settle(consumer, epsilon_prime)
    broker.accountant.charge_many(dataset, charges, charge_labels)
    if window is not None:
        for epsilon_prime, label in zip(charges, charge_labels):
            window.accountant.charge_window(
                dataset, window.epochs, epsilon_prime, label
            )
    txns = broker.ledger.record_many(sales)

    telemetry = broker.telemetry
    if telemetry is not None:
        prefix = batch.prefix
        telemetry.inc(f"{prefix}.batches")
        telemetry.inc(f"{prefix}.answers", len(batch.queries))
        telemetry.inc(f"{prefix}.replays", len(replayed))
        telemetry.inc(f"{prefix}.epsilon_spent", sum(charges))
        telemetry.observe(f"{prefix}.batch_width", len(batch.queries))

    answers: List[_A] = []
    fresh = 0
    for i, (query, spec) in enumerate(zip(batch.queries, batch.specs)):
        txn = txns[i]
        source = replayed.get(i)
        if source is not None:
            cached = answers[source] if isinstance(source, int) else source
            answers.append(dataclasses.replace(
                cached,
                consumer=consumer,
                price=txn.price,
                transaction_id=txn.transaction_id,
            ))
            continue
        answers.append(answer_type(
            value=float(value[fresh]),
            raw_value=float(raw_value[fresh]),
            sample_estimate=float(sample_estimate[fresh]),
            query=query,
            spec=spec,
            plan=plans[fresh],
            price=txn.price,
            consumer=consumer,
            transaction_id=txn.transaction_id,
            **(extras[fresh] if extras is not None else {}),
        ))
        fresh += 1
    return answers


def replay(
    broker: Broker, prefix: str, cached: _A, consumer: str
) -> _A:
    """Re-release a previously purchased answer to ``consumer``.

    Re-releasing a released value is post-processing: it costs **zero**
    privacy budget (nothing is charged to any accountant and the policy
    settles ε′ = 0) and it starves averaging attacks, since m identical
    answers average to themselves.  The sale is still journaled, billed
    at list price and recorded with ``epsilon_prime=0``, so the books
    show every hand-over.
    """
    spec = cached.spec
    policy = _policy(broker)
    policy.admit(consumer, spec)
    price = broker.pricing.price(spec.alpha, spec.delta)
    _journal_trades(broker.journal, [_trade(
        "replay", broker, consumer, cached.query, spec, 0.0, price,
        broker.base_station.store_version, _label(consumer, cached.query),
    )])
    policy.settle(consumer, 0.0)
    txn = broker.ledger.record(
        consumer=consumer,
        dataset=broker.dataset,
        alpha=spec.alpha,
        delta=spec.delta,
        price=price,
        epsilon_prime=0.0,
    )
    if broker.telemetry is not None:
        broker.telemetry.inc(f"{prefix}.replays")
    return dataclasses.replace(
        cached,
        consumer=consumer,
        price=price,
        transaction_id=txn.transaction_id,
    )
