"""The data broker: the trading pipeline's orchestrator (Section II-A).

For each purchased query the broker

1. **plans** -- checks the stored sample supports the ``(α, δ)`` target,
   triggering an incremental top-up collection when it does not;
2. **estimates** -- runs RankCounting over the per-node samples to get an
   ``(α', δ')``-range counting;
3. **perturbs** -- adds Laplace noise at the optimizer's ε so the noisy
   answer is still an ``(α, δ)``-range counting with the smallest amplified
   budget ε′ (optimization problem (3));
4. **charges** -- hands the noisy answers to the settlement kernel
   (:mod:`repro.core.settlement`), which journals the trade, prices it,
   records the sale in the billing ledger and the ε′ in the privacy
   accountant.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ContextManager, Optional, Sequence

import numpy as np
import numpy.typing as npt

from repro.core.planner import QueryPlanner
from repro.core.policy import BrokerPolicy
from repro.core.query import AccuracySpec, PrivateAnswer, RangeQuery
from repro.core.settlement import admit, open_batch, release_batch, replay
from repro.errors import InfeasiblePlanError
from repro.estimators.base import RangeCountingEstimator
from repro.estimators.rank import RankCountingEstimator
from repro.iot.base_station import BaseStation
from repro.pricing.functions import PricingFunction
from repro.pricing.ledger import BillingLedger
from repro.privacy.budget import BudgetAccountant
from repro.privacy.laplace import sample_laplace_many
from repro.privacy.optimizer import PrivacyPlan

if TYPE_CHECKING:  # pragma: no cover - types only, avoids an import cycle
    from repro.durability.journal import TradeJournal
    from repro.serving.telemetry import MetricsRegistry

__all__ = ["DataBroker"]


@dataclass
class DataBroker:
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
    memoize_answers: bool = False
    #: Optional :class:`~repro.serving.telemetry.MetricsRegistry`; when
    #: set, the broker reports stage timings and release counters under
    #: ``broker.*``.  Duck-typed (no serving import) to keep the core
    #: layer dependency-free.
    telemetry: "Optional[MetricsRegistry]" = None
    #: Optional :class:`~repro.durability.journal.TradeJournal`; when set,
    #: every trade is journaled *before* the answer is released or any
    #: accounting state mutates (journal-before-release), so
    #: :func:`~repro.durability.recovery.recover_accounting` can rebuild
    #: the exact books after a crash.
    journal: "Optional[TradeJournal]" = None

    def __post_init__(self) -> None:
        # Cache of released answers keyed by (range, tier); see
        # ``memoize_answers`` in :meth:`answer_batch`.
        self._answer_cache: "dict[tuple[float, float, float, float], PrivateAnswer]" = {}
        # Memo of optimizer runs: the grid search is a pure function of
        # (α, δ, p) for this broker's fixed fleet shape, and cluster
        # routing multiplies the distinct sub-specs each shard sees per
        # batch -- re-planning per batch would dominate latency.
        self._plan_memo: "dict[tuple[float, float, float], PrivacyPlan]" = {}
        self._planner = QueryPlanner(
            k=self.base_station.k,
            n=self.base_station.n,
            grid_points=self.planner_grid_points,
        )
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
        """Memoized :meth:`QueryPlanner.plan` (pure in ``(α, δ, p)``)."""
        key = (spec.alpha, spec.delta, p)
        plan = self._plan_memo.get(key)
        if plan is None:
            plan = self._planner.plan(spec, p)
            if len(self._plan_memo) > 2048:
                self._plan_memo.clear()
            self._plan_memo[key] = plan
        return plan

    def quote(self, spec: AccuracySpec) -> float:
        """List price of an ``(α, δ)`` product (no data is touched)."""
        return self.pricing.price(spec.alpha, spec.delta)

    def _timer(self, name: str) -> "ContextManager[None]":
        """A stage timer into the attached telemetry, or a no-op."""
        if self.telemetry is None:
            return nullcontext()
        return self.telemetry.timer(name)

    def replay(self, cached: PrivateAnswer, consumer: str) -> PrivateAnswer:
        """Re-release a previously purchased answer to ``consumer`` at ε′ = 0.

        The settlement kernel's :func:`~repro.core.settlement.replay`:
        journaled and billed at list price, no budget charged.  Shared by
        the broker's own memoized-answer cache and the serving layer's
        :class:`~repro.serving.answer_cache.AnswerCache`.
        """
        return replay(self, "broker", cached, consumer)

    def _ensure_feasible(self, spec: AccuracySpec) -> None:
        p = self.base_station.sampling_rate
        if p > 0.0 and self._planner.supports(spec, p):
            return
        if not self.auto_top_up:
            raise InfeasiblePlanError(
                f"stored sample (p={p:.6g}) cannot support "
                f"(alpha={spec.alpha}, delta={spec.delta}) and auto_top_up "
                "is disabled"
            )
        target = self._planner.required_rate(spec)
        self.base_station.ensure_rate(max(target, p if p > 0 else target))

    def _plan_each(self, specs: "Sequence[AccuracySpec]") -> "list[PrivacyPlan]":
        """One plan per spec, solved once per distinct ``(α, δ)`` tier.

        Every tier is topped up to feasibility first and then planned at
        the final post-top-up rate (tighter than planning earlier tiers at
        the sparser pre-top-up rate; both are valid).
        """
        tiers: "dict[tuple[float, float], AccuracySpec]" = {}
        for spec in specs:
            tiers.setdefault((spec.alpha, spec.delta), spec)
        for tier_spec in tiers.values():
            self._ensure_feasible(tier_spec)
        p = self.base_station.sampling_rate
        plans = {tier: self._plan(tier_spec, p) for tier, tier_spec in tiers.items()}
        return [plans[(spec.alpha, spec.delta)] for spec in specs]

    def _estimate(self, queries: "Sequence[RangeQuery]") -> "npt.NDArray[np.float64]":
        """Deterministic sample estimates: one store fetch, one vectorized
        ``estimate_many`` pass (bit-identical to scalar ``estimate``)."""
        samples = self.base_station.samples()
        ranges = [(query.low, query.high) for query in queries]
        estimate_many = getattr(self.estimator, "estimate_many", None)
        if estimate_many is not None:
            return np.asarray(estimate_many(samples, ranges), dtype=np.float64)
        return np.asarray([
            self.estimator.estimate(samples, low, high).estimate
            for low, high in ranges
        ], dtype=np.float64)

    def _perturb(
        self,
        estimates: "npt.NDArray[np.float64]",
        plans: "Sequence[PrivacyPlan]",
    ) -> "npt.NDArray[np.float64]":
        """Add each plan's Laplace noise in one vectorized draw.

        Consumes the generator's bitstream exactly like per-query draws,
        so batching never changes an answer.
        """
        scales = np.asarray([plan.noise_scale for plan in plans])
        noise = sample_laplace_many(scales, self.rng)
        return np.asarray(estimates + noise, dtype=np.float64)

    def draw_batch(
        self,
        queries: "Sequence[RangeQuery]",
        specs: "Sequence[AccuracySpec]",
        consumer: str,
    ) -> "list[PrivateAnswer]":
        """Plan, estimate and perturb a batch without touching any books.

        The cluster's shard lane: the same top-up, plans and noise draws
        (in the same RNG order) as :meth:`answer_batch`, but nothing is
        admitted, journaled, charged or billed -- the coordinator settles
        the merged answers once.  The lane's answers carry no price and
        no transaction id.
        """
        plans = self._plan_each(specs)
        estimates = self._estimate(queries)
        raw_values = self._perturb(estimates, plans)
        released = np.clip(raw_values, 0.0, float(self.base_station.n))
        return [
            PrivateAnswer(
                value=float(released[i]),
                raw_value=float(raw_values[i]),
                sample_estimate=float(estimates[i]),
                query=query,
                spec=spec,
                plan=plans[i],
                price=0.0,
                consumer=consumer,
            )
            for i, (query, spec) in enumerate(zip(queries, specs))
        ]

    def answer(
        self,
        query: RangeQuery,
        spec: AccuracySpec,
        consumer: str = "anonymous",
    ) -> PrivateAnswer:
        """Run the full trade for one query: a one-query :meth:`answer_batch`.

        Returns the :class:`PrivateAnswer` released to the consumer.  Cost
        of any triggered top-up round lands on the network meter; the
        privacy cost ε′ is charged to the accountant under this broker's
        dataset key.
        """
        return self.answer_batch([query], spec, consumer)[0]

    def answer_batch(
        self,
        queries: "Sequence[RangeQuery]",
        spec: "AccuracySpec | Sequence[AccuracySpec]",
        consumer: str = "anonymous",
    ) -> "list[PrivateAnswer]":
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
        :class:`AccuracySpec` per query.  Admission is **atomic**: the
        whole batch is checked against the policy's purchase and ε′ caps
        and the dataset budget before any noise is drawn, so a batch
        either completes in full or charges nothing.  With
        ``memoize_answers`` a query already answered -- earlier, or
        earlier in this batch -- is re-released at ε′ = 0.
        """
        batch = open_batch(self, "broker", queries, spec, consumer)
        keys = [
            (query.low, query.high, qspec.alpha, qspec.delta)
            for query, qspec in zip(batch.queries, batch.specs)
        ]
        replays: "dict[int, PrivateAnswer | int]" = {}
        fresh = list(range(len(keys)))
        if self.memoize_answers:
            fresh = []
            first_of: "dict[tuple[float, float, float, float], int]" = {}
            for i, key in enumerate(keys):
                if key in self._answer_cache:
                    replays[i] = self._answer_cache[key]
                elif key in first_of:
                    replays[i] = first_of[key]
                else:
                    first_of[key] = i
                    fresh.append(i)

        # Pure-replay tiers touch no data: only fresh rows are planned.
        with self._timer("broker.batch.plan_s"):
            plans = self._plan_each([batch.specs[i] for i in fresh])
        admit(self, batch, plans)

        estimates = raw_values = released = np.zeros(0, dtype=np.float64)
        if fresh:
            with self._timer("broker.batch.estimate_s"):
                estimates = self._estimate([batch.queries[i] for i in fresh])
            raw_values = self._perturb(estimates, plans)
            released = np.clip(raw_values, 0.0, float(self.base_station.n))

        with self._timer("broker.batch.charge_s"):
            answers = release_batch(
                self,
                batch,
                answer_type=PrivateAnswer,
                plans=plans,
                value=released,
                raw_value=raw_values,
                sample_estimate=estimates,
                replays=replays,
            )
        if self.memoize_answers:
            for i in fresh:
                self._answer_cache[keys[i]] = answers[i]
        return answers
