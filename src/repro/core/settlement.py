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
from repro.pricing.ledger import BillingLedger
from repro.privacy.budget import BudgetAccountant
from repro.privacy.optimizer import PrivacyPlan
from repro.records import (
    RELEASE,
    REPLAY,
    DispatchRecord,
    LabelColumn,
    codes_of,
    group_rows,
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
    #: :meth:`groups` as of a refusal count (rows are refused, never
    #: un-refused, so the count tells whether it is still current).
    _groups: Dict[int, Dict[str, List[int]]] = dataclasses.field(
        default_factory=dict, repr=False, compare=False
    )

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
        cached = self._groups.get(len(self.failed))
        if cached is not None:
            return cached
        groups: Dict[str, List[int]] = {}
        for i, consumer in enumerate(self.consumers):
            if i not in self.standalone and i not in self.failed:
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
    journal: "Optional[TradeJournal]", record: DispatchRecord
) -> None:
    """Commit trades to the write-ahead journal, pre-release.

    Runs before any policy, accountant or ledger write and before an
    answer leaves the kernel: a crash after the append can only make
    recovery *over*-count ε, never under-count it.  No-op when no journal
    is attached.
    """
    if journal is not None:
        journal.append_many(record)


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


_LOW, _HIGH = operator.attrgetter("low"), operator.attrgetter("high")
_ALPHA, _DELTA = operator.attrgetter("alpha"), operator.attrgetter("delta")


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
    is logged to the window log), then the policy settles it, the
    accountant -- and each live epoch ledger -- is charged, and the
    ledger records one sale per row.  The accountant is charged once per
    consumer group, against the very sum :func:`admit` checked, so a
    group admitted there is never refused here, after its trades are
    journaled.  Returns one outcome per row, in row order: its answer,
    or the error that refused it.
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
    # Each consumer group's charges, in the order its first one settles.
    if records.kind.any():
        releases = np.flatnonzero(records.kind == RELEASE)
        runs = [
            releases[positions]
            for _, positions in group_rows(records.consumer[releases])
        ]
    else:
        releases = np.arange(len(records))
        runs = [positions for _, positions in records.groups()]

    _journal_trades(broker.journal, records)
    # Without a journal this is the first check of the records, still
    # before any book moves.
    records.check(LedgerError)
    # Streaming's per-epoch books take one labelled charge per release.
    epoch_charges = [] if window is None else list(zip(
        records.epsilon_prime[releases].tolist(), LabelColumn(records, releases)
    ))
    if window is not None and window.log is not None:
        for epsilon_prime, label in epoch_charges:
            window.log.append_charge(dataset, window.epochs, epsilon_prime, label)
    policy.settle_many(records)
    # One charge per consumer group, each against the very sum admit()
    # checked it with, so an admitted group is never refused here.  The
    # first call (empty when every row is a replay) runs on every path.
    first, *rest = [
        (records.epsilon_prime[positions], LabelColumn(records, positions))
        for positions in runs or [releases]
    ]
    broker.accountant.charge_many(dataset, *first)
    for epsilons, labels in rest:
        broker.accountant.charge_many(dataset, epsilons, labels)
    if window is not None:
        for epsilon_prime, label in epoch_charges:
            window.accountant.charge_window(
                dataset, window.epochs, epsilon_prime, label
            )
    sales = broker.ledger.record_many(records)

    telemetry = broker.telemetry
    if telemetry is not None:
        prefix = batch.prefix
        if len(releases):
            telemetry.inc(f"{prefix}.batches")
            telemetry.inc(f"{prefix}.answers", len(releases))
            telemetry.inc(
                f"{prefix}.epsilon_spent",
                sum(records.epsilon_prime[releases].tolist()),
            )
            telemetry.observe(f"{prefix}.batch_width", len(live))
        if len(live) > len(releases):
            telemetry.inc(f"{prefix}.replays", len(live) - len(releases))

    # Per-row columns indexed by batch row, read once as plain numbers.
    size = len(batch.queries)
    at = np.array(live, dtype=np.intp)
    txn_ids = np.zeros(size, dtype=np.int64)
    txn_ids[at] = sales.ids
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
