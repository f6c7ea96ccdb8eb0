"""The settlement kernel: the one release path every broker trades through.

The paper's trade runs plan → estimate → perturb → charge (Section II-A).
The first three steps are each broker's *estimate source*:

* :class:`~repro.core.broker.DataBroker` -- top-up, plan,
  ``estimate_many``, Laplace draw;
* :class:`~repro.streaming.broker.StreamingBroker` -- window snapshot,
  pooled estimates, Laplace draw;
* :class:`~repro.cluster.broker.ClusterBroker` -- route, top-up, plan
  once over the touched shards, pooled ``estimate_many`` over their
  samples, Laplace draw.

The charging half is identical for all three and lives only here:

1. :func:`open_batch` -- deadline checkpoint, spec broadcast, dataset
   check, and the policy's spec-band / purchase-cap admission;
2. :func:`admit` -- each consumer's fresh ε′ against every budget book
   (the policy's per-consumer cap, the lifetime accountant, and for
   streaming the per-epoch ledgers), atomically, before anything is
   released;
3. :func:`release_batch` -- journal every trade *before* any book
   mutates (journal-before-release), then settle the policy, charge the
   accountant(s), record the sales, and assemble the answers.

One call may serve many consumers: ``consumer`` is either one name for
every row (the *strict* form, which raises on the first refusal) or one
name per row, in which case each consumer's fresh rows are admitted
atomically, in first-arrival order, against the running totals of the
rows admitted before them, and a refusal fails only that consumer's
rows (the call returns one outcome per row: the answer, or the error).
Brokers run their estimate source inside :func:`drawing`, so that in a
per-row call an error there refuses the fresh rows and the replays
still settle.

Replay rows re-release an earlier answer at ε′ = 0: handing a released
noisy count to another buyer is post-processing, so it is journaled and
billed but charges no budget.  :func:`replay` is the one-row form.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
    cast,
)

import numpy as np
import numpy.typing as npt

from repro.core.policy import BrokerPolicy, PolicyViolationError
from repro.core.query import AccuracySpec, PrivateAnswer, RangeQuery
from repro.errors import DeadlineExceededError, PrivacyBudgetExceededError
from repro.pricing.functions import PricingFunction
from repro.pricing.ledger import BillingLedger
from repro.privacy.budget import BudgetAccountant
from repro.privacy.optimizer import PrivacyPlan
from repro.resilience.deadline import (
    Deadline,
    check_deadline,
    current_deadline,
    deadline_scope,
)

if TYPE_CHECKING:  # pragma: no cover - types only, avoids import cycles
    from repro.durability.journal import TradeJournal
    from repro.serving.telemetry import MetricsRegistry
    from repro.streaming.accounting import EpochBudgetAccountant
    from repro.streaming.journal import WindowLog

__all__ = [
    "Batch",
    "WindowBooks",
    "open_batch",
    "drawing",
    "admit",
    "release_batch",
    "replay",
]

_A = TypeVar("_A", bound=PrivateAnswer)

#: A per-row column of released numbers (a list or a float64 array).
Column = Union[Sequence[float], npt.NDArray[np.float64]]

#: What a replay row re-releases: a cached answer, or an earlier row.
Source = Union[PrivateAnswer, int]


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
    """One call's rows on their way through the kernel.

    A *strict* batch (one consumer for every row) raises on the first
    refusal, so it completes in full or charges nothing; a per-row batch
    records each refusal in ``failed`` and settles every other row.
    """

    #: Metric / deadline-stage prefix: ``broker``, ``cluster`` or ``streaming``.
    prefix: str
    consumers: List[str]
    queries: List[RangeQuery]
    specs: List[AccuracySpec]
    strict: bool
    #: Replay rows -> what they re-release at ε′ = 0.  The caller's
    #: replays come from :func:`open_batch`; a broker may add its own.
    replays: Dict[int, Source]
    #: The caller's replay rows, each admitted and deadline-checked on
    #: its own: a replay of a cached answer when the call opens, a
    #: replay of an earlier row at release, once its source is released.
    standalone: FrozenSet[int]
    #: Store version when the call opened; the caller's replays of
    #: cached answers are journaled at it.
    opened_at: int
    #: Earliest deadline of each consumer's purchase rows.
    deadlines: Dict[str, Deadline]
    #: Deadlines of the caller's replay rows.
    replay_deadlines: Dict[int, Deadline]
    #: Refused rows and why.
    failed: Dict[int, Exception]

    @property
    def fresh(self) -> List[int]:
        """Rows still to be estimated and noised, in order."""
        return [
            i for i in range(len(self.queries))
            if i not in self.replays and i not in self.failed
        ]

    def groups(self) -> Dict[str, List[int]]:
        """Each consumer's live purchase rows, in first-arrival order.

        A group is admitted, deadline-checked and refused as one unit:
        the consumer's fresh rows plus any replays the broker itself
        added (not the caller's replays, which stand alone).
        """
        groups: Dict[str, List[int]] = {}
        for i, consumer in enumerate(self.consumers):
            if i not in self.standalone and i not in self.failed:
                groups.setdefault(consumer, []).append(i)
        return groups

    def settlement_order(self) -> List[int]:
        """Live rows in the order the books record them.

        Row order, except that each consumer group settles as one block
        at its first row, so a group's charges are contiguous and are
        recorded exactly as :func:`admit` summed them.  A caller that
        lists each consumer's purchases together gets plain row order.
        """
        groups = self.groups()
        order: List[int] = []
        for i, consumer in enumerate(self.consumers):
            if i in self.standalone:
                if i not in self.failed:
                    order.append(i)
            elif groups.get(consumer, [-1])[0] == i:
                order.extend(groups[consumer])
        return order

    def refuse(self, rows: Sequence[int], exc: Exception) -> None:
        """Fail ``rows`` with ``exc``; a strict batch raises it instead."""
        if self.strict:
            raise exc
        for i in rows:
            self.failed.setdefault(i, exc)


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


def _check_deadlines(batch: Batch, stage: str) -> None:
    """Refuse every consumer group, and every caller replay, past its deadline.

    A group with no deadline of its own is checked against the deadline
    scope installed by the caller; a replay row only against its own.
    """
    if not (batch.deadlines or batch.replay_deadlines or current_deadline()):
        return
    checks: List[Tuple[List[int], Optional[Deadline]]] = [
        (rows, batch.deadlines.get(consumer))
        for consumer, rows in batch.groups().items()
    ]
    checks.extend(
        ([i], deadline) for i, deadline in batch.replay_deadlines.items()
        if i not in batch.failed
    )
    for rows, deadline in checks:
        try:
            with deadline_scope(deadline):
                check_deadline(stage)
        except DeadlineExceededError as exc:
            batch.refuse(rows, exc)


def open_batch(
    broker: Broker,
    prefix: str,
    queries: Sequence[RangeQuery],
    spec: "AccuracySpec | Sequence[AccuracySpec]",
    consumer: "str | Sequence[str]",
    *,
    replays: Optional[Mapping[int, Source]] = None,
    deadlines: "Optional[Sequence[Optional[Deadline]]]" = None,
) -> Batch:
    """Validate a batch and admit its rows against the policy.

    ``spec`` may be one shared tier or one :class:`AccuracySpec` per
    query; ``consumer`` one name for every row or one per row.
    ``replays`` marks rows that re-release a cached answer or an earlier
    row; each is admitted on its own.  ``deadlines`` (one per row, or
    ``None``) give each consumer group its own expiry, the earliest of
    its rows; an expired group is refused here, before anything is
    planned or drawn.
    """
    if not queries:
        raise ValueError("at least one query is required")
    size = len(queries)
    strict = isinstance(consumer, str)
    consumers = [consumer] * size if isinstance(consumer, str) else list(consumer)
    if isinstance(spec, AccuracySpec):
        specs = [spec] * size
    else:
        specs = list(spec)
    for name, got in (("spec", len(specs)), ("consumer", len(consumers))):
        if got != size:
            raise ValueError(
                f"got {got} {name}s for {size} queries; "
                f"pass one {name} per query or a single shared {name}"
            )
    replayed = dict(replays or {})
    for i, source in replayed.items():
        if isinstance(source, int) and not 0 <= source < i:
            raise ValueError(f"row {i} can only replay an earlier row")
    earliest: Dict[str, Deadline] = {}
    replay_deadlines: Dict[int, Deadline] = {}
    for i, deadline in enumerate(deadlines or ()):
        if deadline is None:
            continue
        if i in replayed:
            replay_deadlines[i] = deadline
            continue
        known = earliest.get(consumers[i])
        if known is None or deadline.expires_at < known.expires_at:
            earliest[consumers[i]] = deadline
    batch = Batch(
        prefix=prefix,
        consumers=consumers,
        queries=list(queries),
        specs=specs,
        strict=strict,
        replays=replayed,
        standalone=frozenset(replayed),
        opened_at=broker.base_station.store_version,
        deadlines=earliest,
        replay_deadlines=replay_deadlines,
        failed={},
    )
    _check_deadlines(batch, f"{prefix}.answer_batch")

    policy = _policy(broker)
    groups = batch.groups()
    bought: Dict[str, int] = {}
    for i, name in enumerate(consumers):
        if i in batch.failed or isinstance(replayed.get(i), int):
            continue
        pending = bought.get(name, 0)
        if i in replayed:
            try:
                policy.admit(name, specs[i], pending)
            except PolicyViolationError as exc:
                batch.refuse([i], exc)
                continue
            bought[name] = pending + 1
            continue
        rows = groups[name]
        if i != rows[0]:
            continue
        try:
            for row in rows:
                query = batch.queries[row]
                if query.dataset not in ("default", broker.dataset):
                    raise ValueError(
                        f"query targets dataset {query.dataset!r}, {prefix} "
                        f"serves {broker.dataset!r}"
                    )
            policy.admit_batch(name, [specs[row] for row in rows], pending)
        except (ValueError, PolicyViolationError) as exc:
            batch.refuse(rows, exc)
            continue
        bought[name] = pending + len(rows)
    return batch


@contextmanager
def drawing(batch: Batch) -> Iterator[None]:
    """Run a broker's estimate source over the batch's fresh rows.

    In a per-row batch an error there refuses every fresh row still
    live, and the call goes on to settle its replays; a strict batch
    raises it.
    """
    if batch.strict:
        yield
        return
    try:
        yield
    except Exception as exc:  # repro-lint: shed -- lands on the refused rows
        batch.refuse(batch.fresh, exc)


def admit(
    broker: Broker,
    batch: Batch,
    rows: Sequence[int],
    plans: Sequence[PrivacyPlan],
    window: Optional[WindowBooks] = None,
) -> Tuple[List[int], List[PrivacyPlan]]:
    """Refuse each consumer's rows unless they fit every budget book.

    ``rows`` are the rows that will be charged and ``plans`` their plans
    (replays cost nothing).  Consumers are admitted in the order their
    groups settle (:meth:`Batch.groups`), each as one sum against the
    totals of the consumers admitted before it, so a consumer's rows
    complete in full or charge nothing.  Returns the admitted rows and
    their plans.
    """
    positions: Dict[str, List[int]] = {name: [] for name in batch.groups()}
    for k, row in enumerate(rows):
        positions.setdefault(batch.consumers[row], []).append(k)
    policy, dataset = _policy(broker), broker.dataset
    charged: List[float] = []
    for consumer, ks in positions.items():
        if not ks:
            continue
        epsilons = [plans[k].epsilon_prime for k in ks]
        total = sum(epsilons)
        exc: Optional[Exception] = None
        if not policy.can_release(consumer, total):
            exc = PolicyViolationError(
                f"consumer {consumer!r} would exceed the per-consumer "
                "privacy cap"
            )
        elif not broker.accountant.can_afford(dataset, total, charged):
            exc = PrivacyBudgetExceededError(
                f"dataset {dataset!r}: batch of {len(ks)} releases "
                f"(ε′={total:.6g}) would exceed capacity "
                f"{broker.accountant.capacity:.6g}"
            )
        elif window is not None and not window.accountant.can_afford(
            dataset, window.epochs, total, charged
        ):
            exc = PrivacyBudgetExceededError(
                f"dataset {dataset!r}: batch ε′={total:.6g} would exceed "
                f"the per-epoch capacity {window.accountant.capacity:.6g} on "
                f"window epochs {window.epochs}"
            )
        if exc is None:
            charged.extend(epsilons)
        else:
            batch.refuse([rows[k] for k in ks], exc)
    kept = [k for k, row in enumerate(rows) if row not in batch.failed]
    return [rows[k] for k in kept], [plans[k] for k in kept]


def release_batch(
    broker: Broker,
    batch: Batch,
    *,
    answer_type: Type[_A],
    rows: Sequence[int],
    plans: Sequence[PrivacyPlan],
    value: Column,
    raw_value: Column,
    sample_estimate: Column,
    extras: Optional[Sequence[Mapping[str, Any]]] = None,
    store_version: Optional[int] = None,
    window: Optional[WindowBooks] = None,
) -> "List[Union[_A, Exception]]":
    """Journal, settle, charge, bill and assemble one admitted batch.

    ``rows`` are the fresh rows that were estimated and noised; ``plans``,
    ``value`` (released, clamped), ``raw_value`` (noisy, unclamped),
    ``sample_estimate`` and ``extras`` (extra answer fields) run over
    them in order, and rows refused since are skipped.  ``value`` and
    ``raw_value`` must already be Laplace-perturbed.  Every row in
    ``batch.replays`` re-releases its source at ε′ = 0; a replay of a
    refused row fails with its source's error.

    Books are written in :meth:`Batch.settlement_order` with per-entry
    records identical to one-at-a-time trading: the whole batch is
    journaled first (and, for streaming, every epoch charge is logged to
    the window log), then the policy settles, the accountant -- and each
    live epoch ledger -- is charged, and the ledger records one sale per
    row.  The accountant is charged once per consumer group, against
    the very sum :func:`admit` checked, so a group admitted there is
    never refused here, after its trades are journaled.  Returns one
    outcome per row, in row order: its answer, or the error that
    refused it.
    """
    dataset = broker.dataset
    if store_version is None:
        store_version = broker.base_station.store_version
    # Last pre-commit checkpoint: past here the trade is journaled and
    # charged, so an expired deadline must abort now or not at all.
    _check_deadlines(batch, f"{batch.prefix}.journal")
    column = {row: k for k, row in enumerate(rows)}
    policy = _policy(broker)
    failed, replays, standalone = batch.failed, batch.replays, batch.standalone
    suffix = f"@{window.window_id}" if window is not None else ""
    prices: Dict[Tuple[float, float], float] = {}
    bought: Dict[str, int] = {}  # rows settled so far, per consumer
    live: List[int] = []
    records: List[Dict[str, Any]] = []
    sales: List[Dict[str, Any]] = []
    settles: List[Tuple[str, float]] = []
    charges: List[float] = []
    charge_labels: List[str] = []
    runs: Dict[str, Tuple[List[float], List[str]]] = {}  # per consumer group
    for i in batch.settlement_order():
        if i in failed:
            continue
        consumer, query, spec = batch.consumers[i], batch.queries[i], batch.specs[i]
        source = replays.get(i)
        if isinstance(source, int):
            if source in failed:
                batch.refuse([i], failed[source])
                continue
            if i in standalone:
                try:
                    policy.admit(consumer, spec, bought.get(consumer, 0))
                except PolicyViolationError as exc:
                    batch.refuse([i], exc)
                    continue
        bought[consumer] = bought.get(consumer, 0) + 1
        tier = (spec.alpha, spec.delta)
        price = prices.get(tier)
        if price is None:
            price = prices[tier] = broker.pricing.price(spec.alpha, spec.delta)
        label = _label(consumer, query)
        if source is not None:
            kind, epsilon_prime = "replay", 0.0
            version = store_version
            if i in standalone and not isinstance(source, int):
                version = batch.opened_at
        else:
            kind = "release"
            epsilon_prime = plans[column[i]].epsilon_prime
            version = store_version
            label += suffix
            charges.append(epsilon_prime)
            charge_labels.append(label)
            epsilons, labels = runs.setdefault(consumer, ([], []))
            epsilons.append(epsilon_prime)
            labels.append(label)
        live.append(i)
        settles.append((consumer, epsilon_prime))
        records.append({
            "kind": kind,
            "consumer": consumer,
            "dataset": dataset,
            "low": query.low,
            "high": query.high,
            "alpha": spec.alpha,
            "delta": spec.delta,
            "epsilon_prime": epsilon_prime,
            "price": price,
            "store_version": version,
            "label": label,
        })
        sales.append({
            "consumer": consumer,
            "dataset": dataset,
            "alpha": spec.alpha,
            "delta": spec.delta,
            "price": price,
            "epsilon_prime": epsilon_prime,
        })

    _journal_trades(broker.journal, records)
    if window is not None and window.log is not None:
        for epsilon_prime, label in zip(charges, charge_labels):
            window.log.append_charge(dataset, window.epochs, epsilon_prime, label)
    for consumer, epsilon_prime in settles:
        policy.settle(consumer, epsilon_prime)
    # One charge per consumer group, each against the very sum admit()
    # checked it with, so an admitted group is never refused here.  The
    # first call (empty when every row is a replay) runs on every path.
    first, *rest = list(runs.values()) or [([], [])]
    broker.accountant.charge_many(dataset, *first)
    for epsilons, labels in rest:
        broker.accountant.charge_many(dataset, epsilons, labels)
    if window is not None:
        for epsilon_prime, label in zip(charges, charge_labels):
            window.accountant.charge_window(
                dataset, window.epochs, epsilon_prime, label
            )
    txns = dict(zip(live, broker.ledger.record_many(sales)))

    telemetry = broker.telemetry
    if telemetry is not None:
        prefix = batch.prefix
        if charges:
            telemetry.inc(f"{prefix}.batches")
            telemetry.inc(f"{prefix}.answers", len(charges))
            telemetry.inc(f"{prefix}.epsilon_spent", sum(charges))
            telemetry.observe(f"{prefix}.batch_width", len(live))
        if len(live) > len(charges):
            telemetry.inc(f"{prefix}.replays", len(live) - len(charges))

    outcomes: "List[Union[_A, Exception]]" = []
    for i, (consumer, query, spec) in enumerate(
        zip(batch.consumers, batch.queries, batch.specs)
    ):
        failure = batch.failed.get(i)
        if failure is not None:
            outcomes.append(failure)
            continue
        txn = txns[i]
        source = batch.replays.get(i)
        if source is not None:
            cached = outcomes[source] if isinstance(source, int) else source
            assert not isinstance(cached, Exception), "refused sources fail their replays"
            outcomes.append(cast(_A, dataclasses.replace(
                cached,
                consumer=consumer,
                price=txn.price,
                transaction_id=txn.transaction_id,
            )))
            continue
        k = column[i]
        outcomes.append(answer_type(
            value=float(value[k]),
            raw_value=float(raw_value[k]),
            sample_estimate=float(sample_estimate[k]),
            query=query,
            spec=spec,
            plan=plans[k],
            price=txn.price,
            consumer=consumer,
            transaction_id=txn.transaction_id,
            **(extras[k] if extras is not None else {}),
        ))
    return outcomes


def replay(
    broker: Broker, prefix: str, cached: _A, consumer: str
) -> _A:
    """Re-release a previously purchased answer to ``consumer``.

    Re-releasing a released value is post-processing: it costs **zero**
    privacy budget (nothing is charged to any accountant and the policy
    settles ε′ = 0) and it starves averaging attacks, since m identical
    answers average to themselves.  The sale is still journaled, billed
    at list price and recorded with ``epsilon_prime=0``, so the books
    show every hand-over.  A one-row call of the batch path.
    """
    batch = open_batch(
        broker, prefix, [cached.query], cached.spec, consumer,
        replays={0: cached},
    )
    outcome = release_batch(
        broker, batch, answer_type=type(cached), rows=[], plans=[],
        value=[], raw_value=[], sample_estimate=[],
    )[0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
