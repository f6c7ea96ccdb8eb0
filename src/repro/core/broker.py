"""The data broker, and the one release pipeline every broker runs.

The paper's trade runs plan → estimate → perturb → charge (Section II-A).
:func:`release_views` writes the middle once, over *sample views*
(:class:`SampleView`): each broker only supplies the views its fresh
rows are estimated from, and the settlement kernel
(:mod:`repro.core.settlement`) charges.  For each batch the pipeline

1. **plans** -- the broker's view source runs any top-up and gives each
   fresh row its view and ``(α, δ)`` target; each row is planned once
   per (view shape, tier) through the broker's :class:`PlanMemo`, and
   every consumer is admitted atomically against the budget books;
2. **estimates** -- one ``estimate_many`` per rank index of the batch's
   view, over all its rows, summed onto the view's offset when it has
   one (the cluster's gather estimates its rows itself);
3. **perturbs** -- one Laplace draw over the rows that have queried
   samples, at each plan's noise scale, so the noisy answer is still an
   ``(α, δ)``-range counting with the smallest amplified budget ε′
   (optimization problem (3)), clipped to ``[0, n]``;
4. **charges** -- hands the released answers to the settlement kernel,
   which journals the trade, prices it, records the sale in the billing
   ledger and the ε′ in the privacy accountant.

The stages are timed as ``<prefix>.plan_s`` / ``estimate_s`` /
``charge_s`` (``broker``, ``cluster`` or ``streaming``).  The plain
:class:`DataBroker`'s view is its base station's committed round, after
a top-up to every fresh tier.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import compress
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ContextManager,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
    overload,
)

import numpy as np
import numpy.typing as npt

from repro.core.planner import PlanMemo, QueryPlanner, zero_plan
from repro.core.policy import BrokerPolicy
from repro.core.query import AccuracySpec, PrivateAnswer, RangeQuery
from repro.core.settlement import (
    Batch,
    Broker,
    WindowBooks,
    admit,
    open_batch,
    release_batch,
)
from repro.durability.journal import TradeJournal
from repro.errors import InfeasiblePlanError
from repro.estimators.base import RangeCountingEstimator
from repro.estimators.rank import RankCountingEstimator, RankIndex
from repro.iot.base_station import BaseStation
from repro.pricing.functions import PricingFunction
from repro.pricing.ledger import BillingLedger
from repro.privacy.budget import BudgetAccountant
from repro.privacy.laplace import sample_laplace_many
from repro.privacy.optimizer import PrivacyPlan
from repro.resilience.deadline import Deadline

if TYPE_CHECKING:  # pragma: no cover - types only, avoids an import cycle
    from repro.serving.telemetry import MetricsRegistry

__all__ = [
    "DataBroker",
    "SampleView",
    "Trading",
    "release_views",
    "stage_timer",
]

_A = TypeVar("_A", bound=PrivateAnswer)

_SAMPLED, _TIER = attrgetter("sampled"), attrgetter("alpha", "delta")
_NOISE_SCALE = attrgetter("noise_scale")


@dataclass(frozen=True, eq=False)
class SampleView:
    """The sample a group of fresh rows is planned over and estimated from.

    ``k``/``n``/``p`` is the fleet shape the rows are planned at and
    ``bound`` the clip bound of their releases.  A row's estimate is its
    indexes' estimates summed in order (a streaming window's epochs
    oldest first), onto ``offset`` when there is one (``0.0`` where the
    sum starts at zero).  Without an offset it is the first index's own
    estimate plus the rest.  An unsampled view is public metadata: its
    rows draw no noise and are planned with a zero plan.  ``window``
    carries streaming's per-epoch books.
    """

    k: int
    n: int
    p: float
    bound: float
    indexes: Tuple[RankIndex, ...] = ()
    offset: Optional[float] = None
    sampled: bool = True
    window: Optional[WindowBooks] = None


#: A broker's view source: it runs any top-up, then gives each of the
#: batch's fresh ``rows`` its view and the ``(α, δ)`` it is planned at.
#: Without a gather every row gets one view; with one, the views only
#: plan (a cluster's differ per touched shard set) and share one bound.
ViewSource = Callable[
    [Batch, List[int]], Tuple[List[SampleView], List[AccuracySpec]]
]

#: The cluster's gather, run after admission over the admitted rows in
#: place of the views' estimation: each row's estimate, and its extra
#: answer fields.
Gather = Callable[
    [List[int]],
    Tuple["npt.NDArray[np.float64]", List[Mapping[str, Any]]],
]


class ReleasingBroker(Broker, Protocol):
    """What :func:`release_views` reads of a broker beyond its books."""

    @property
    def estimator(self) -> RangeCountingEstimator: ...
    @property
    def rng(self) -> np.random.Generator: ...
    @property
    def _plan_memo(self) -> PlanMemo: ...


def stage_timer(broker: Broker, name: str) -> "ContextManager[Any]":
    """A stage timer into the broker's telemetry, or a no-op."""
    telemetry = broker.telemetry
    return nullcontext() if telemetry is None else telemetry.timer(name)


def _plan_views(
    memo: PlanMemo, views: Sequence[SampleView], targets: Sequence[AccuracySpec]
) -> List[PrivacyPlan]:
    """Each row's plan: problem (3) over its view's shape at its target,
    or the zero plan of public metadata.

    Looked up once per distinct view object and ``(α, δ)`` value -- a
    cluster's routes carry equal targets as distinct objects -- and the
    memo solves once per shape and tier.
    """
    if not views:
        return []
    keys: Sequence[Hashable] = list(map(_TIER, targets))
    if views.count(views[0]) < len(views):
        keys = list(zip(map(id, views), keys))
    solved: Dict[Hashable, PrivacyPlan] = {}
    for key, i in dict(zip(keys, range(len(keys)))).items():
        view, target = views[i], targets[i]
        solved[key] = (
            memo.plan(target, view.p, view.k, view.n) if view.sampled
            else zero_plan(target, n=view.n, k=view.k)
        )
    return list(map(solved.__getitem__, keys))


def _estimate_many(
    estimator: RangeCountingEstimator,
    index: RankIndex,
    ranges: Sequence[Tuple[float, float]],
) -> "npt.NDArray[np.float64]":
    """``estimate_many`` over one rank index (bit-identical to scalar
    ``estimate``), or the scalar loop for an estimator without it."""
    estimate_many = getattr(estimator, "estimate_many", None)
    if estimate_many is not None:
        return np.asarray(estimate_many(index, ranges), dtype=np.float64)
    return np.asarray([
        estimator.estimate(index, low, high).estimate for low, high in ranges
    ], dtype=np.float64)


def _estimate(
    estimator: RangeCountingEstimator,
    batch: Batch,
    rows: Sequence[int],
    view: SampleView,
) -> "npt.NDArray[np.float64]":
    """Each row's estimate: the view's index estimates summed in order,
    onto its offset when it has one -- one ``estimate_many`` per index."""
    queries = batch.queries
    ranges = [(queries[row].low, queries[row].high) for row in rows]
    total: "Optional[npt.NDArray[np.float64]]" = None
    if view.offset is not None:
        total = np.full(len(rows), view.offset, dtype=np.float64)
    for index in view.indexes:
        part = _estimate_many(estimator, index, ranges)
        total = part if total is None else total + part
    assert total is not None, "a view has an index or an offset"
    return total


def _spread(
    noise: "npt.NDArray[np.float64]", sampled: Sequence[bool]
) -> "npt.NDArray[np.float64]":
    """The draws of the sampled rows in place, and 0.0 for the rest."""
    out = np.zeros(len(sampled), dtype=np.float64)
    out[np.asarray(sampled, dtype=bool)] = noise
    return out


def release_views(
    broker: ReleasingBroker,
    batch: Batch,
    source: ViewSource,
    *,
    answer_type: Type[_A],
    gather: Optional[Gather] = None,
    store_version: Optional[int] = None,
) -> "List[Union[_A, Exception]]":
    """Plan, admit, estimate, perturb and settle a batch's fresh rows.

    ``source`` supplies each fresh row's view and target (see
    :data:`ViewSource`); ``gather``, when given, estimates the admitted
    rows itself (the cluster's shard reads) and adds their extra answer
    fields.  The Laplace noise of every sampled row comes from one
    ``sample_laplace_many`` draw on the broker's ``rng``, in row order,
    which consumes the generator exactly like per-row draws.  An error
    in the view source, planning or estimation raises in a strict batch;
    in a per-row one it refuses the fresh rows and the replays still
    settle.  ``store_version`` is what the rows are journaled at (the
    broker's current one by default).
    """
    prefix = batch.prefix
    rows = batch.fresh
    views: List[SampleView] = []
    plans: List[PrivacyPlan] = []
    window: Optional[WindowBooks] = None
    extras: Optional[List[Mapping[str, Any]]] = None
    estimates = raw_values = released = np.zeros(0, dtype=np.float64)
    try:
        with stage_timer(broker, f"{prefix}.plan_s"):
            views, targets = source(batch, rows)
            plans = _plan_views(broker._plan_memo, views, targets)
        if views:
            window = views[0].window
        admitted, plans = admit(broker, batch, rows, plans, window)
        if len(admitted) < len(rows):
            view_of = dict(zip(rows, views))
            views = [view_of[row] for row in admitted]
        rows = admitted
        if rows:
            if gather is not None:
                estimates, extras = gather(rows)
            else:
                with stage_timer(broker, f"{prefix}.estimate_s"):
                    estimates = _estimate(broker.estimator, batch, rows, views[0])
            sampled = list(map(_SAMPLED, views))
            scales = list(map(_NOISE_SCALE, compress(plans, sampled)))
            noise = sample_laplace_many(scales, broker.rng)
            if len(scales) < len(rows):
                # Metadata-only rows draw nothing: they release their estimate.
                noise = _spread(noise, sampled)
            raw_values = estimates + noise
            released = np.clip(raw_values, 0.0, views[0].bound)
    except Exception as exc:  # repro-lint: shed -- lands on the refused rows
        if batch.strict:
            raise
        batch.refuse(batch.fresh, exc)

    with stage_timer(broker, f"{prefix}.charge_s"):
        return release_batch(
            broker,
            batch,
            answer_type=answer_type,
            rows=rows,
            plans=plans,
            value=released,
            raw_value=raw_values,
            sample_estimate=estimates,
            extras=extras,
            store_version=store_version,
            window=window,
        )


class _Batched(Protocol):
    def answer_batch(
        self, queries: Sequence[RangeQuery], spec: AccuracySpec, consumer: str
    ) -> Sequence[PrivateAnswer]: ...


class Trading:
    """The entry points every broker derives from its price sheet and its
    ``answer_batch``."""

    pricing: PricingFunction

    def quote(self, spec: AccuracySpec) -> float:
        """List price of an ``(α, δ)`` product (no data is touched)."""
        return self.pricing.price(spec.alpha, spec.delta)

    def answer(
        self: _Batched,
        query: RangeQuery,
        spec: AccuracySpec,
        consumer: str = "anonymous",
    ) -> PrivateAnswer:
        """Run the full trade for one query: a one-query ``answer_batch``.

        Returns the answer released to the consumer, or raises the error
        that refused it.  Cost of any triggered top-up round lands on the
        network meter; the privacy cost ε′ is charged to the accountant
        under the broker's dataset key.
        """
        return self.answer_batch([query], spec, consumer)[0]


@dataclass
class DataBroker(Trading):
    """Answers priced, differentially private ``(α, δ)``-range counting.

    Parameters
    ----------
    base_station:
        Source of per-node samples (and the handle for top-up rounds).
    pricing:
        The price sheet; its variance model must be built for the same
        ``n`` as the base station serves.
    dataset:
        Billing/budget key of the dataset this broker serves.
    estimator:
        The sampling estimator; RankCounting by default.
    ledger, accountant:
        Billing and privacy accounting; fresh unlimited instances by
        default.
    rng:
        Noise randomness (seeded for reproducible experiments).
    auto_top_up:
        When True (default) an infeasible request triggers an incremental
        collection round at the planner's recommended rate; when False the
        request fails with :class:`InfeasiblePlanError` instead.
    """

    base_station: BaseStation
    pricing: PricingFunction
    dataset: str = "default"
    estimator: RangeCountingEstimator = field(default_factory=RankCountingEstimator)
    ledger: BillingLedger = field(default_factory=BillingLedger)
    accountant: BudgetAccountant = field(default_factory=BudgetAccountant)
    # A broker is a process singleton; the fixed default seed is the
    # documented determinism contract (tests pin golden answers to it).
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(7))  # repro-lint: disable=RL002
    auto_top_up: bool = True
    planner_grid_points: int = 512
    policy: BrokerPolicy = field(default_factory=BrokerPolicy)
    #: Optional :class:`~repro.serving.telemetry.MetricsRegistry`; when
    #: set, the broker reports stage timings and release counters under
    #: ``broker.*``.  Duck-typed (no serving import) to keep the core
    #: layer dependency-free.
    telemetry: "Optional[MetricsRegistry]" = None
    #: The write-ahead :class:`~repro.durability.journal.TradeJournal`
    #: (in memory unless a file-backed one is assigned): every trade is
    #: journaled *before* the answer is released or any accounting state
    #: mutates (journal-before-release), so
    #: :func:`~repro.durability.recovery.recover_accounting` can rebuild
    #: the exact books after a crash.
    journal: TradeJournal = field(default_factory=TradeJournal)

    def __post_init__(self) -> None:
        # Memo of optimizer runs: the grid search is a pure function of
        # (α, δ, p) for this broker's fixed fleet shape.
        self._plan_memo = PlanMemo(grid_points=self.planner_grid_points)
        self._planner = self._plan_memo.planner(self.base_station.k, self.base_station.n)
        if self.pricing.variance_model.n != self.base_station.n:
            raise ValueError(
                "pricing variance model is calibrated for "
                f"n={self.pricing.variance_model.n}, but the base station "
                f"serves n={self.base_station.n}"
            )

    @property
    def planner(self) -> QueryPlanner:
        """The planner bound to this broker's fleet shape."""
        return self._planner

    def _plan(self, spec: AccuracySpec, p: float) -> PrivacyPlan:
        """Memoized problem-(3) solve (pure in ``(α, δ, p)``)."""
        return self._plan_memo.plan(spec, p, self._planner.k, self._planner.n)

    def replay(self, cached: PrivateAnswer, consumer: str) -> PrivateAnswer:
        """Re-release a previously purchased answer to ``consumer`` at ε′ = 0.

        A one-row :meth:`answer_batch` replay: journaled and billed at
        list price, no budget charged (re-releasing a released value is
        post-processing).
        """
        return self.answer_batch(
            [cached.query], cached.spec, consumer, replays={0: cached}
        )[0]

    def _views(
        self, batch: Batch, rows: List[int]
    ) -> Tuple[List[SampleView], List[AccuracySpec]]:
        """The committed round, topped up first to every fresh tier.

        Every tier is made feasible before the round is read, so all
        rows plan at the final post-top-up rate (tighter than planning
        earlier tiers at the sparser pre-top-up rate; both are valid).
        The fleet's ``n`` -- the plans' and the clip bound -- is the one
        the broker was built for (its pricing is checked against it).
        """
        if not rows:
            return [], []
        specs = list(map(batch.specs.__getitem__, rows))
        # Each distinct tier, in order of first appearance.
        tiers = {
            (spec.alpha, spec.delta): spec
            for spec in dict(zip(map(id, specs), specs)).values()
        }
        station = self.base_station
        for tier in tiers.values():
            p = station.sampling_rate
            if p > 0.0 and self._planner.supports(tier, p):
                continue
            if not self.auto_top_up:
                raise InfeasiblePlanError(
                    f"stored sample (p={p:.6g}) cannot support "
                    f"(alpha={tier.alpha}, delta={tier.delta}) and "
                    "auto_top_up is disabled"
                )
            target = self._planner.required_rate(tier)
            station.ensure_rate(max(target, p if p > 0 else target))
        view = SampleView(
            k=self._planner.k,
            n=self._planner.n,
            p=station.sampling_rate,
            bound=float(self._planner.n),
            indexes=(station.rank_index(),),
        )
        return [view] * len(rows), specs

    @overload
    def answer_batch(
        self,
        queries: "Sequence[RangeQuery]",
        spec: "AccuracySpec | Sequence[AccuracySpec]",
        consumer: str = "anonymous",
        *,
        replays: "Optional[Mapping[int, PrivateAnswer | int]]" = None,
        deadlines: "Optional[Sequence[Optional[Deadline]]]" = None,
    ) -> "list[PrivateAnswer]": ...

    @overload
    def answer_batch(
        self,
        queries: "Sequence[RangeQuery]",
        spec: "AccuracySpec | Sequence[AccuracySpec]",
        consumer: "Sequence[str]",
        *,
        replays: "Optional[Mapping[int, PrivateAnswer | int]]" = None,
        deadlines: "Optional[Sequence[Optional[Deadline]]]" = None,
    ) -> "Sequence[PrivateAnswer | Exception]": ...

    def answer_batch(
        self,
        queries: "Sequence[RangeQuery]",
        spec: "AccuracySpec | Sequence[AccuracySpec]",
        consumer: "str | Sequence[str]" = "anonymous",
        *,
        replays: "Optional[Mapping[int, PrivateAnswer | int]]" = None,
        deadlines: "Optional[Sequence[Optional[Deadline]]]" = None,
    ) -> "Sequence[PrivateAnswer | Exception]":
        """Plan, estimate, perturb and settle a batch of queries.

        Each release is separately noised and separately charged
        (different ranges overlap, so sequential composition applies),
        and the books match trading the queries one at a time -- but the
        work is amortized across the batch:

        * feasibility, privacy planning, and pricing run **once per
          distinct** ``(α, δ)`` tier instead of once per query;
        * the sample store is fetched once and all deterministic
          estimates come from the estimator's vectorized
          ``estimate_many`` (bit-identical to scalar ``estimate``);
        * Laplace noise is drawn in one vectorized call that consumes
          the generator's bitstream exactly like per-query draws;
        * the settlement kernel journals the batch once and appends
          ledger transactions and accountant entries in bulk, in query
          order, with per-entry records unchanged.

        ``spec`` may be a single shared tier or one
        :class:`AccuracySpec` per query.  Admission is **atomic** per
        consumer: a consumer's rows are checked against the policy's
        purchase and ε′ caps and the dataset budget before any noise is
        drawn, so they either complete in full or charge nothing.

        ``consumer`` is one name for the whole batch (a refusal raises)
        or one name per row (see :mod:`repro.core.settlement`: each
        consumer is admitted on its own and one outcome -- answer or
        error -- comes back per row).  ``replays`` marks rows that
        re-release a cached answer, or an earlier row, at ε′ = 0;
        ``deadlines`` give each row's expiry.
        """
        batch = open_batch(
            self, "broker", queries, spec, consumer,
            replays=replays, deadlines=deadlines,
        )
        return release_views(self, batch, self._views, answer_type=PrivateAnswer)
