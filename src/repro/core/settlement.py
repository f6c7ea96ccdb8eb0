"""The settlement kernel: the one release path every broker trades through.

The paper's trade runs plan → estimate → perturb → charge (Section II-A).
The first three steps are the release pipeline,
:func:`~repro.core.broker.release_views`, run by every broker over the
sample views it supplies:

* :class:`~repro.core.broker.DataBroker` -- its committed round, after
  a top-up;
* :class:`~repro.streaming.broker.StreamingBroker` -- its window
  snapshot;
* :class:`~repro.cluster.broker.ClusterBroker` -- one view per touched
  shard set plus its exact totals, after routing and a fleet top-up.

The charging half lives here, and the pipeline calls it:

1. :func:`open_batch` -- deadline checkpoint, spec broadcast, dataset
   check, and the policy's spec-band / purchase-cap admission;
2. :func:`admit` -- each consumer's fresh ε′ against every budget book
   (the policy's per-consumer cap, the lifetime accountant, and for
   streaming the per-epoch ledgers), atomically, before anything is
   released;
3. :func:`release_batch` -- build the batch's one
   :class:`~repro.records.DispatchRecord` (numpy columns, no per-row
   object or label text), journal it *before* any book mutates
   (journal-before-release), then hand the same record to the policy,
   the accountant(s) and the ledger, and assemble the answers.

:func:`post_record` is the one write from a journaled record to the
policy, the accountant and the ledger: live settlement, a histogram or
quantile charge and crash recovery
(:func:`~repro.durability.recovery.recover_accounting`) all post
through it, so recovered books are the live books by construction.

One call may serve many consumers: ``consumer`` is either one name for
every row (the *strict* form, which raises on the first refusal) or one
name per row, in which case each consumer's fresh rows are admitted
atomically, in first-arrival order, against the running totals of the
rows admitted before them, and a refusal fails only that consumer's
rows (the call returns one outcome per row: the answer, or the error).
In a per-row call an error while the pipeline plans, estimates or
draws refuses the fresh rows, and the replays still settle.

Replay rows re-release an earlier answer at ε′ = 0: handing a released
noisy count to another buyer is post-processing, so it is journaled and
billed but charges no budget.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
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
from repro.errors import (
    DeadlineExceededError,
    LedgerError,
    PrivacyBudgetExceededError,
)
from repro.pricing.functions import PricingFunction
from repro.pricing.ledger import BillingLedger, Sales
from repro.privacy.budget import BudgetAccountant
from repro.privacy.optimizer import PrivacyPlan
from repro.records import (
    CHARGE,
    RELEASE,
    REPLAY,
    DispatchRecord,
    LabelColumn,
    codes_of,
    fold,
)
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
    "admit",
    "release_batch",
    "Books",
    "post_record",
]

_A = TypeVar("_A", bound=PrivateAnswer)

#: A per-row column of released numbers (a list or a float64 array).
Column = Union[Sequence[float], npt.NDArray[np.float64]]

#: What a replay row re-releases: a cached answer, or an earlier row.
Source = Union[PrivateAnswer, int]

_LOW, _HIGH = operator.attrgetter("low"), operator.attrgetter("high")
_ALPHA, _DELTA = operator.attrgetter("alpha"), operator.attrgetter("delta")
_DATASET = operator.attrgetter("dataset")
_EPSILON_PRIME = operator.attrgetter("epsilon_prime")


class _Versioned(Protocol):
    @property
    def store_version(self) -> int: ...


class Books(Protocol):
    """The three books a dispatch record is posted to (:func:`post_record`)."""

    @property
    def policy(self) -> Optional[BrokerPolicy]: ...
    @property
    def accountant(self) -> BudgetAccountant: ...
    @property
    def ledger(self) -> BillingLedger: ...


class Broker(Books, Protocol):
    """The books and metadata a broker hands the kernel."""

    @property
    def dataset(self) -> str: ...
    @property
    def pricing(self) -> PricingFunction: ...
    @property
    def journal(self) -> "TradeJournal": ...
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
    #: :meth:`groups` as of a refusal count (rows are refused, never
    #: un-refused, so the count tells whether it is still current).
    _groups: Dict[int, Dict[str, List[int]]] = dataclasses.field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def fresh(self) -> List[int]:
        """Rows still to be estimated and noised, in order."""
        if not (self.replays or self.failed):
            return list(range(len(self.queries)))
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
        cached = self._groups.get(len(self.failed))
        if cached is not None:
            return cached
        groups: Dict[str, List[int]] = {}
        skip = self.standalone | self.failed.keys()
        for i, consumer in enumerate(self.consumers):
            if i not in skip:
                groups.setdefault(consumer, []).append(i)
        self._groups.clear()
        self._groups[len(self.failed)] = groups
        return groups

    def settlement_order(self) -> List[int]:
        """Live rows in the order the books record them.

        Row order, except that each consumer group settles as one block
        at its first row, so a group's charges are contiguous and are
        recorded exactly as :func:`admit` summed them.  A caller that
        lists each consumer's purchases together gets plain row order.
        """
        groups = self.groups().values()
        alone = [i for i in self.standalone if i not in self.failed]
        if not alone:
            return [i for rows in groups for i in rows]
        # Groups are in first-row order; slot each lone row in between.
        starts = {rows[0]: rows for rows in groups}
        order: List[int] = []
        for i in sorted([*starts, *alone]):
            rows = starts.get(i)
            if rows is None:
                order.append(i)
            else:
                order.extend(rows)
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


def _policy(books: Books) -> BrokerPolicy:
    policy = books.policy
    assert policy is not None, "brokers install a policy at construction"
    return policy


def post_record(books: Books, record: DispatchRecord) -> Sales:
    """Write one journaled dispatch record into the books.

    The one write path from a record to the books: the kernel posts each
    dispatch's record here right after the journal append, a histogram
    or quantile spend posts its one ``charge`` row, and recovery posts
    every journaled record, oldest first.  The policy settles every row
    but a ``charge`` (a spend outside the trade path is no purchase),
    the accountant is charged once per run of ε′-spending rows
    (:meth:`~repro.records.DispatchRecord.charge_runs`) -- for the
    kernel's records once per consumer group, the very fold
    :func:`admit` checked, so an admitted group is never refused here --
    and the ledger bills every row but a ``charge``.  Returns the new
    sales.
    """
    record.check(LedgerError)
    billed = record
    if record.kind.any():
        sold = np.flatnonzero(record.kind != CHARGE)
        if len(sold) < len(record):
            billed = record.take(sold)
    _policy(books).settle_many(billed)
    for code, rows in record.charge_runs():
        books.accountant.charge_many(
            record.datasets[code], record.epsilon_prime[rows], LabelColumn(record, rows)
        )
    return books.ledger.record_many(billed)


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
        if not 0 <= i < size:
            raise ValueError(
                f"replay row {i} is outside the batch of {size} queries"
            )
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

    # One dataset check per call: only a call that names another
    # dataset looks its rows up.
    served = ("default", broker.dataset)
    foreign: Dict[int, str] = {}
    if not set(map(_DATASET, batch.queries)).issubset(served):
        foreign = {
            i: query.dataset for i, query in enumerate(batch.queries)
            if query.dataset not in served
        }
    # Each consumer group is admitted at its first row, and each replay
    # of a cached answer at its own row, in row order: the purchases
    # admitted before a row are its ``pending`` count.
    policy = _policy(broker)
    groups = batch.groups()
    cached = [
        i for i, source in replayed.items()
        if not isinstance(source, int) and i not in batch.failed
    ]
    starts: Dict[int, List[int]] = {rows[0]: rows for rows in groups.values()}
    bought: Dict[str, int] = {}
    for i in sorted([*starts, *cached]):
        name = consumers[i]
        pending = bought.get(name, 0)
        rows = starts.get(i, [i])
        try:
            if foreign:
                for row in rows:
                    if row in foreign and row not in replayed:
                        raise ValueError(
                            f"query targets dataset {foreign[row]!r}, "
                            f"{prefix} serves {broker.dataset!r}"
                        )
            policy.admit_batch(name, list(map(specs.__getitem__, rows)), pending)
        except (ValueError, PolicyViolationError) as exc:
            batch.refuse(rows, exc)
            continue
        bought[name] = pending + len(rows)
    return batch


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
    groups settle (:meth:`Batch.groups`), each as one ε′ column folded
    onto a provisional running total per book -- the consumer's, the
    dataset's and each live epoch's -- that already holds the groups
    admitted before it: exactly the sums :func:`release_batch` has the
    books record, so a group admitted here is never refused there.  A
    consumer's rows complete in full or charge nothing.  Returns the
    admitted rows and their plans.
    """
    # Each consumer's ε′ column, read off its group's rows.
    epsilon_of = dict(zip(rows, map(_EPSILON_PRIME, plans)))
    columns: Dict[str, List[int]] = {}
    for consumer, group in batch.groups().items():
        charged = [row for row in group if row in epsilon_of]
        if charged:
            columns[consumer] = charged
    policy, dataset, accountant = _policy(broker), broker.dataset, broker.accountant
    # Each consumer has one group, so its own total needs no provisional copy.
    spent = accountant.spent(dataset)
    epochs = [] if window is None else [
        window.accountant.spent(dataset, epoch) for epoch in window.epochs
    ]
    refused = False
    for consumer, charged in columns.items():
        epsilons = list(map(epsilon_of.__getitem__, charged))
        exc: Optional[Exception] = None
        if not policy.can_release(consumer, epsilons):
            exc = PolicyViolationError(
                f"consumer {consumer!r} would exceed the per-consumer "
                "privacy cap"
            )
        elif not accountant.can_afford(dataset, epsilons, spent):
            exc = PrivacyBudgetExceededError(
                f"dataset {dataset!r}: batch of {len(charged)} releases would "
                f"exceed capacity {accountant.capacity:.6g}"
            )
        elif window is not None and not window.accountant.can_afford(
            dataset, window.epochs, epsilons, epochs
        ):
            exc = PrivacyBudgetExceededError(
                f"dataset {dataset!r}: batch would exceed the per-epoch "
                f"capacity {window.accountant.capacity:.6g} on {window.epochs}"
            )
        if exc is None:
            spent = fold(epsilons, spent)
            epochs = [fold(epsilons, total) for total in epochs]
        else:
            batch.refuse(charged, exc)
            refused = True
    if not refused:
        return list(rows), list(plans)
    kept = [k for k, row in enumerate(rows) if row not in batch.failed]
    return [rows[k] for k in kept], [plans[k] for k in kept]


def _live_rows(batch: Batch, policy: BrokerPolicy) -> List[int]:
    """The rows to settle, in :meth:`Batch.settlement_order`.

    A replay of an earlier row fails with its source's error, and a
    caller's replay of an earlier row is admitted against the consumer's
    purchases settled before it; other rows pass as they are.
    """
    order = batch.settlement_order()
    replays = batch.replays
    if not any(isinstance(source, int) for source in replays.values()):
        return order
    failed, standalone = batch.failed, batch.standalone
    consumers, specs = batch.consumers, batch.specs
    bought: Dict[str, int] = {}  # rows settled so far, per consumer
    live: List[int] = []
    for i in order:
        if i in failed:
            continue
        consumer = consumers[i]
        source = replays.get(i)
        if isinstance(source, int):
            if source in failed:
                batch.refuse([i], failed[source])
                continue
            if i in standalone:
                try:
                    policy.admit(consumer, specs[i], bought.get(consumer, 0))
                except PolicyViolationError as exc:
                    batch.refuse([i], exc)
                    continue
        bought[consumer] = bought.get(consumer, 0) + 1
        live.append(i)
    return live


def _dispatch_record(
    broker: Broker,
    batch: Batch,
    live: List[int],
    rows: Sequence[int],
    plans: Sequence[PrivacyPlan],
    store_version: int,
    window: Optional[WindowBooks],
) -> DispatchRecord:
    """The one record of the ``live`` rows, in order: column by column,
    with no per-row object and no label text.

    A release is charged its plan's ε′ and journaled at ``store_version``;
    a replay costs ε′ = 0, and a caller's replay of a cached answer is
    journaled at the store version the call opened at.  Each distinct
    ``(α, δ)`` tier is priced once.
    """
    size = len(batch.queries)
    at = np.array(live, dtype=np.intp)
    queries = list(map(batch.queries.__getitem__, live))
    specs = list(map(batch.specs.__getitem__, live))
    consumer, consumers = codes_of(list(map(batch.consumers.__getitem__, live)))
    low, high = list(map(_LOW, queries)), list(map(_HIGH, queries))
    alpha, delta = list(map(_ALPHA, specs)), list(map(_DELTA, specs))
    tiers = np.array([alpha, delta], dtype=np.float64).reshape(2, len(live))
    price = np.empty(len(live), dtype=np.float64)
    for tier_alpha, tier_delta in set(zip(alpha, delta)):
        price[(tiers[0] == tier_alpha) & (tiers[1] == tier_delta)] = (
            broker.pricing.price(tier_alpha, tier_delta)
        )

    epsilon_prime = np.zeros(size, dtype=np.float64)
    if len(rows):
        epsilon_prime[list(rows)] = [plan.epsilon_prime for plan in plans]
    epsilon_prime = epsilon_prime[at]
    replays = batch.replays
    if replays:
        # Batch-wide columns, then picked in settlement order.
        kind = np.full(size, RELEASE, dtype=np.uint8)
        kind[list(replays)] = REPLAY
        version = np.full(size, store_version, dtype=np.int64)
        version[[
            i for i in batch.standalone if not isinstance(replays[i], int)
        ]] = batch.opened_at
        kind, version = kind[at], version[at]
    else:
        kind = np.zeros(len(live), dtype=np.uint8)
        version = np.full(len(live), store_version, dtype=np.int64)

    labels: "Optional[List[Optional[str]]]" = None
    window_id = window.window_id if window is not None else None
    if set(map(type, low)) | set(map(type, high)) != {float}:
        # A bound that is not a plain float (an int, say) prints
        # differently from the float the record holds: keep that label.
        suffix = "" if window_id is None else f"@{window_id}"
        labels = [
            None if type(lo) is float and type(hi) is float
            else f"{consumers[code]}:[{lo},{hi}]" + (suffix if released else "")
            for code, lo, hi, released in zip(
                consumer, low, high, (kind == RELEASE).tolist()
            )
        ]
    return DispatchRecord(
        kind=kind,
        consumer=consumer,
        consumers=consumers,
        dataset=np.zeros(len(live), dtype=np.intp),
        datasets=[broker.dataset],
        low=low,
        high=high,
        alpha=tiers[0],
        delta=tiers[1],
        epsilon_prime=epsilon_prime,
        price=price,
        store_version=version,
        labels=labels,
        window=window_id,
    )


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

    The live rows become one :class:`~repro.records.DispatchRecord`, in
    :meth:`Batch.settlement_order`, and every book takes that record
    whole, with per-entry contents identical to one-at-a-time trading:
    the journal appends it first (and, for streaming, every epoch charge
    is logged to the window log), :func:`post_record` writes it into the
    policy, the accountant and the ledger, and each live epoch ledger is
    charged.  The accountant and each live epoch ledger are charged once
    per consumer group, with the very fold :func:`admit` checked, so a
    group admitted there is never refused here, after its trades are
    journaled.  Returns one outcome per row, in row order: its answer, or
    the error that refused it.
    """
    dataset = broker.dataset
    if store_version is None:
        store_version = broker.base_station.store_version
    # Last pre-commit checkpoint: past here the trade is journaled and
    # charged, so an expired deadline must abort now or not at all.
    _check_deadlines(batch, f"{batch.prefix}.journal")
    policy = _policy(broker)
    live = _live_rows(batch, policy)
    records = _dispatch_record(
        broker, batch, live, rows, plans, store_version, window
    )
    broker.journal.append_many(records)
    if window is not None and window.log is not None:
        # One logged charge per release, so recovery rebuilds the
        # per-epoch books row by row.
        for _, positions in records.charge_runs():
            for epsilon_prime, label in zip(
                records.epsilon_prime[positions].tolist(),
                LabelColumn(records, positions),
            ):
                window.log.append_charge(dataset, window.epochs, epsilon_prime, label)
    sales = post_record(broker, records)
    if window is not None:
        # Each live epoch ledger, once per consumer group, as admit() checked.
        for _, positions in records.charge_runs():
            window.accountant.charge_many(
                dataset, window.epochs, records.epsilon_prime[positions],
                LabelColumn(records, positions),
            )

    telemetry = broker.telemetry
    if telemetry is not None:
        prefix = batch.prefix
        released = records.epsilon_prime[records.kind == RELEASE].tolist()
        if released:
            telemetry.inc(f"{prefix}.batches")
            telemetry.inc(f"{prefix}.answers", len(released))
            telemetry.inc(f"{prefix}.epsilon_spent", sum(released))
            telemetry.observe(f"{prefix}.batch_width", len(live))
        if len(live) > len(released):
            telemetry.inc(f"{prefix}.replays", len(live) - len(released))

    # Per-row columns indexed by batch row, read once as plain numbers.
    size = len(batch.queries)
    at = np.array(live, dtype=np.intp)
    txn_ids = np.zeros(size, dtype=np.int64)
    txn_ids[at] = np.arange(sales.first_id, sales.first_id + len(live))
    txn_prices = np.zeros(size, dtype=np.float64)
    txn_prices[at] = records.price
    column = np.full(size, -1, dtype=np.intp)
    column[list(rows)] = np.arange(len(rows))
    ids_of, price_of, column_of = (
        txn_ids.tolist(), txn_prices.tolist(), column.tolist()
    )
    values, raw_values, estimates = (
        np.asarray(c, dtype=np.float64).tolist()
        for c in (value, raw_value, sample_estimate)
    )
    failed, replays = batch.failed, batch.replays
    queries, specs = batch.queries, batch.specs
    new, tail = object.__new__, _tail_defaults(answer_type)
    outcomes: "List[Union[_A, Exception]]" = []
    for i, consumer in enumerate(batch.consumers):
        failure = failed.get(i)
        if failure is not None:
            outcomes.append(failure)
            continue
        source = replays.get(i)
        if source is not None:
            cached = outcomes[source] if isinstance(source, int) else source
            assert not isinstance(cached, Exception), "refused sources fail their replays"
            outcomes.append(
                _resold(cast(_A, cached), consumer, price_of[i], ids_of[i])
            )
            continue
        k = column_of[i]
        answer = new(answer_type)
        fields = answer.__dict__
        fields.update(zip(_LEADING, (
            values[k], raw_values[k], estimates[k], queries[i], specs[i],
            plans[k], price_of[i], consumer, ids_of[i],
        )))
        fields.update(tail)
        if extras is not None:  # a subclass's own fields
            fields.update(extras[k])
        outcomes.append(answer)
    return outcomes


@functools.cache
def _field_names(cls: Type[PrivateAnswer]) -> Tuple[str, ...]:
    """An answer class's field names, in definition order."""
    return tuple(f.name for f in dataclasses.fields(cls))


#: The answer fields the kernel fills for every fresh row, in order.
_LEADING = (
    "value", "raw_value", "sample_estimate", "query", "spec", "plan",
    "price", "consumer", "transaction_id",
)


@functools.cache
def _tail_defaults(cls: Type[PrivateAnswer]) -> Tuple[Tuple[str, Any], ...]:
    """``(name, default)`` of an answer class's fields after
    :data:`_LEADING`, in definition order.

    :func:`release_batch` fills each fresh answer's ``__dict__`` in one
    go -- the leading fields, these defaults, then a subclass's
    ``extras`` -- instead of through the frozen ``__init__``, which sets
    one field at a time through ``object.__setattr__``: about 1.8 µs an
    answer instead of 3.2 µs, for a ``__dict__`` that is 64 B larger
    while the answer is held.  Sound only for an answer class with no
    ``__post_init__`` and plain defaults, which this checks once per
    class.
    """
    fields = dataclasses.fields(cls)[len(_LEADING):]
    if hasattr(cls, "__post_init__") or any(
        f.default is dataclasses.MISSING for f in fields
    ):
        raise TypeError(f"{cls.__name__} is not a plain answer record")
    return tuple((f.name, f.default) for f in fields)


def _resold(cached: _A, consumer: str, price: float, transaction_id: int) -> _A:
    """``cached`` handed to ``consumer``: a copy with the new sale's price
    and transaction id.

    What ``dataclasses.replace`` returns, built field by field onto a
    bare instance instead of through the frozen ``__init__`` (an answer
    has no ``__post_init__`` to rerun).  Fields are set in definition
    order, so the copy shares its class's attribute layout and is no
    larger than a constructed answer.
    """
    cls = type(cached)
    answer = object.__new__(cls)
    for name in _field_names(cls):
        object.__setattr__(answer, name, getattr(cached, name))
    object.__setattr__(answer, "consumer", consumer)
    object.__setattr__(answer, "price", price)
    object.__setattr__(answer, "transaction_id", transaction_id)
    return answer
