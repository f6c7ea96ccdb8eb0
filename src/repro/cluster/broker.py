"""The scatter-gather coordinator: one broker surface over many shards.

:class:`ClusterBroker` exposes the same duck-typed surface as
:class:`~repro.core.broker.DataBroker` (``quote`` / ``answer`` /
``answer_batch`` / ``replay`` / ``ledger`` / ``accountant`` /
``base_station`` / ``planner`` / ``telemetry``), so the serving gateway,
the marketplace, and the load generators route through it unchanged.

Per query it

1. **routes**: :meth:`ClusterBroker.route_for_range` classifies every
   shard against the query range by its value band
   (:func:`~repro.cluster.planning.route_query`) -- pruned shards are
   skipped outright, exactly-covered shards answer from cached totals,
   and only the ``t <= s`` straddling shards get fresh ``(α_j, δ^{1/t})``
   sub-targets (the legacy broadcast ``δ^{1/s}`` split when bands give
   nothing to exploit);
2. **scatters** per-shard *sub-batches* (queries grouped by their routed
   shard set, one batched call per shard, not per query) to each shard's
   estimate-plus-noise lane
   (:meth:`~repro.core.broker.DataBroker.draw_batch`: top-up, plan,
   estimate, Laplace draw -- no books) -- concurrently for ``s > 1`` --
   with replica failover per shard;
3. **gathers** and merges the per-shard estimates, noised counts, and
   exact-cover totals into one :class:`ClusterAnswer` (clamped sum;
   merged plan via :func:`~repro.cluster.planning.merge_plans`);
4. **settles** once, through the settlement kernel
   (:mod:`repro.core.settlement`): exactly one journal record, one
   :class:`~repro.pricing.ledger.BillingLedger` transaction and one
   :class:`~repro.privacy.budget.BudgetAccountant` entry per query, at
   the cluster list price and the parallel-composition ε′ (max over the
   shards the query actually touched; zero for metadata-only answers).
   Shards keep no books.

With one shard the whole path degenerates to the plain broker's
estimate source plus a pass-through merge, and is bit-identical to it
(tested); routing is disabled at ``s = 1`` so band coverage can never
shortcut the real release.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.cluster.health import ShardBreakerBoard, ShardHealthMonitor
from repro.cluster.planning import (
    RoutePlan,
    degraded_delta,
    merge_plans,
    route_query,
    split_spec,
    zero_plan,
)
from repro.cluster.shard import ShardRuntime, build_shards
from repro.core.policy import BrokerPolicy
from repro.core.query import AccuracySpec, PrivateAnswer, RangeQuery
from repro.core.settlement import (
    admit,
    drawing,
    open_batch,
    release_batch,
    replay,
)
from repro.errors import InfeasiblePlanError
from repro.pricing.functions import InverseVariancePricing, PricingFunction
from repro.pricing.ledger import BillingLedger
from repro.pricing.variance_model import VarianceModel
from repro.privacy.budget import BudgetAccountant
from repro.privacy.optimizer import PrivacyPlan
from repro.resilience.deadline import (
    Deadline,
    check_deadline,
    current_deadline,
    deadline_scope,
)
from repro.resilience.hedging import HedgeLostRace, HedgePolicy

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.durability.journal import TradeJournal
    from repro.serving.telemetry import MetricsRegistry

__all__ = ["ClusterAnswer", "ClusterBroker"]

#: Scatters at or below this many shards run inline on the calling
#: thread.  Per-shard gather work is GIL-bound (scalar numpy over a few
#: thousand samples), so a thread handoff costs more than it buys until
#: the scatter is genuinely wide.
_INLINE_SCATTER_MAX = 4


@dataclass(frozen=True)
class ClusterAnswer(PrivateAnswer):
    """A merged scatter-gather release.

    Extends :class:`~repro.core.query.PrivateAnswer` with the gather
    provenance: the per-shard releases it merges, which shards answered
    from a replica, and the confidence actually *reported* after
    degradation (``delta_reported == spec.delta`` on a healthy gather).
    """

    shard_answers: "Tuple[PrivateAnswer, ...]" = ()
    degraded_shards: "Tuple[int, ...]" = ()
    delta_reported: float = 0.0
    #: Routing provenance: which shards the planner pruned (band cannot
    #: intersect the range) and which it answered from cached totals
    #: (band fully contained).  Empty on broadcast gathers.
    pruned_shards: "Tuple[int, ...]" = ()
    exact_shards: "Tuple[int, ...]" = ()
    #: The route's stable fingerprint (``"b"`` for broadcast); part of
    #: the serving cache key so routed releases replay correctly.
    route_signature: str = "b"

    @property
    def degraded(self) -> bool:
        """Whether any shard answered from its replica."""
        return bool(self.degraded_shards)


class _ClusterMeterView:
    """Read-only aggregate over every shard network's cost meter."""

    def __init__(self, broker: "ClusterBroker") -> None:
        self._broker = broker

    def _meters(self):
        for shard in self._broker.shards:
            yield shard.primary_station.network.meter
            if shard.replica_station is not None:
                yield shard.replica_station.network.meter

    def snapshot(self) -> "Dict[str, int]":
        total: "Dict[str, int]" = {}
        for meter in self._meters():
            for key, value in meter.snapshot().items():
                total[key] = total.get(key, 0) + value
        return total


class _ClusterNetworkView:
    """The ``.network`` shape the service facade expects: just a meter."""

    def __init__(self, broker: "ClusterBroker") -> None:
        self.meter = _ClusterMeterView(broker)


class _ClusterStationView:
    """Duck-typed :class:`~repro.iot.base_station.BaseStation` aggregate.

    The gateway keys its answer cache on ``store_version`` and
    subscribes to commits; the load generator reads ``sampling_rate``
    and calls ``ensure_rate``; the facade merges ``samples()`` for
    histogram/quantile releases.  This view answers all of that over
    the shard set.
    """

    def __init__(self, broker: "ClusterBroker") -> None:
        self._broker = broker
        self.network = _ClusterNetworkView(broker)
        self._listeners: "List" = []
        for shard in broker.shards:
            shard.primary_station.subscribe_commits(self._on_commit)
            if shard.replica_station is not None:
                shard.replica_station.subscribe_commits(self._on_commit)

    @property
    def k(self) -> int:
        return sum(s.k for s in self._broker.shards)

    @property
    def n(self) -> int:
        return sum(s.n for s in self._broker.shards)

    @property
    def sampling_rate(self) -> float:
        """The weakest shard's stored rate (what a merged answer rests on)."""
        return min(s.sampling_rate for s in self._broker.shards)

    @property
    def store_version(self) -> int:
        """Monotone sum of every station's version (bumps on any commit)."""
        total = 0
        for shard in self._broker.shards:
            total += shard.primary_station.store_version
            if shard.replica_station is not None:
                total += shard.replica_station.store_version
        return total

    def subscribe_commits(self, callback) -> None:
        self._listeners.append(callback)

    def _on_commit(self, _version: int) -> None:
        version = self.store_version
        for callback in self._listeners:
            callback(version)

    def ensure_rate(self, p: float) -> None:
        self._broker.ensure_rate(p)

    def samples(self):
        merged = []
        for shard in self._broker.shards:
            merged.extend(shard.samples())
        merged.sort(key=lambda s: s.node_id)
        return merged


class _ClusterPlannerView:
    """Duck-typed :class:`~repro.core.planner.QueryPlanner` aggregate.

    ``plan`` returns the *merged* plan a scatter at rate ``p`` would
    yield, so the load generator's serial accounting expectation (which
    reads ``plan(spec, p).epsilon_prime``) prices the cluster exactly.
    """

    def __init__(self, broker: "ClusterBroker") -> None:
        self._broker = broker

    def supports(self, spec: AccuracySpec, p: float) -> bool:
        sub = split_spec(spec, len(self._broker.shards))
        return all(
            shard.primary.planner.supports(sub, p)
            for shard in self._broker.shards
        )

    def required_rate(self, spec: AccuracySpec) -> float:
        sub = split_spec(spec, len(self._broker.shards))
        return max(
            shard.primary.planner.required_rate(sub)
            for shard in self._broker.shards
        )

    def plan(self, spec: AccuracySpec, p: float) -> PrivacyPlan:
        sub = split_spec(spec, len(self._broker.shards))
        return merge_plans(
            spec,
            [shard.primary._plan(sub, p) for shard in self._broker.shards],
        )

    def plan_for_range(
        self, low: float, high: float, spec: AccuracySpec, p: float
    ) -> PrivacyPlan:
        """The merged plan a *routed* scatter of ``[low, high]`` yields.

        Duck-typed hook for the load generator's serial accounting
        expectation: with range-aware routing the spent ε′ depends on the
        query range (pruned and exactly-covered shards spend nothing), so
        pricing the cluster needs the route, not just the tier.  Falls
        back to :meth:`plan` for broadcast routes -- identical books to
        the pre-routing cluster.
        """
        broker = self._broker
        route = broker.route_for_range(low, high, spec)
        if not route.routed:
            return self.plan(spec, p)
        exact_n = sum(broker.shards[j].n for j in route.exact)
        exact_k = sum(broker.shards[j].k for j in route.exact)
        plans = [
            broker.shards[j].primary._plan(route.spec_for(j), p)
            for j in route.queried
        ]
        if not plans and exact_n == 0:
            return zero_plan(spec)
        return merge_plans(spec, plans, exact_n=exact_n, exact_k=exact_k)


@dataclass
class ClusterBroker:
    """Scatter-gather ``(α, δ)``-range counting over shard runtimes.

    Parameters
    ----------
    shards:
        The shard runtimes (see :func:`~repro.cluster.shard.build_shards`).
    pricing:
        Cluster-level price sheet, calibrated to the *total* ``n``; the
        consumer pays one list price per query regardless of ``s``.
    replica_confidence:
        Per-degraded-shard multiplier applied to the reported δ when a
        replica serves part of a gather.
    monitor:
        Optional :class:`~repro.cluster.health.ShardHealthMonitor`;
        when set, shards it has failed route straight to replicas.
    """

    shards: "List[ShardRuntime]"
    pricing: PricingFunction
    dataset: str = "default"
    ledger: BillingLedger = field(default_factory=BillingLedger)
    accountant: BudgetAccountant = field(default_factory=BudgetAccountant)
    # Mirrors DataBroker's fixed default seed: the scalar/cluster
    # equivalence tests require both brokers to draw the same stream.
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(7))  # repro-lint: disable=RL002
    policy: BrokerPolicy = field(default_factory=BrokerPolicy)
    replica_confidence: float = 0.9
    monitor: Optional[ShardHealthMonitor] = None
    telemetry: "Optional[MetricsRegistry]" = None
    #: Optional :class:`~repro.durability.journal.TradeJournal`; when set,
    #: every consolidated trade is journaled *before* the merged answer is
    #: released or the cluster books mutate (journal-before-release).
    journal: "Optional[TradeJournal]" = None
    #: Optional per-shard circuit breakers
    #: (:class:`~repro.cluster.health.ShardBreakerBoard`).  An open
    #: breaker routes that shard's sub-queries through the bypass lane
    #: (skipping its congested ingress path); answers and books are
    #: bit-identical either way.
    breakers: "Optional[ShardBreakerBoard]" = None
    #: Optional :class:`~repro.resilience.hedging.HedgePolicy`.  When
    #: set, a straggling gated sub-query is re-issued on the bypass lane
    #: after the lane's rolling-p95 trigger; an exactly-once claim
    #: guarantees only the winning lane ever touches the shard broker.
    hedging: "Optional[HedgePolicy]" = None

    def __post_init__(self) -> None:
        if not self.shards:
            raise ValueError("at least one shard is required")
        if not 0.0 < self.replica_confidence <= 1.0:
            raise ValueError("replica_confidence must be in (0, 1]")
        if self.pricing.variance_model.n != sum(s.n for s in self.shards):
            raise ValueError(
                "cluster pricing variance model is calibrated for "
                f"n={self.pricing.variance_model.n}, but the shards hold "
                f"n={sum(s.n for s in self.shards)}"
            )
        self._station_view = _ClusterStationView(self)
        self._planner_view = _ClusterPlannerView(self)
        self._lock = threading.Lock()
        self._executor: "Optional[ThreadPoolExecutor]" = None  # guarded-by: _lock
        self._first_degraded_wall: "Optional[float]" = None  # guarded-by: _lock
        # Route + predicted-ε′ memos.  Keys embed the sampling rate, so a
        # top-up naturally invalidates; bands are immutable post-build.
        self._route_cache: "Dict[Tuple[float, float, float, float, float], RoutePlan]" = {}  # guarded-by: _lock
        self._cost_cache: "Dict[Tuple[int, float, float, float], float]" = {}  # guarded-by: _lock
        # Lazy executor for hedged gated lanes; separate from the scatter
        # pool so a wide scatter can never starve its own hedges.
        self._hedge_executor: "Optional[ThreadPoolExecutor]" = None  # guarded-by: _lock

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_values(
        cls,
        values: np.ndarray,
        k: int = 16,
        shards: int = 4,
        dataset: str = "default",
        seed: int = 7,
        base_price: float = 1.0,
        loss_probability: float = 0.0,
        partition: str = "even",
        replicas: bool = True,
        replica_confidence: float = 0.9,
        monitor: Optional[ShardHealthMonitor] = None,
    ) -> "ClusterBroker":
        """Build the whole federation over a raw value column.

        Seeded so that ``shards=1`` with loss-free channels reproduces
        :meth:`PrivateRangeCountingService.from_values` bit-for-bit.
        """
        values = np.asarray(values, dtype=np.float64)
        runtimes = build_shards(
            values,
            k=k,
            shards=shards,
            dataset=dataset,
            seed=seed,
            base_price=base_price,
            loss_probability=loss_probability,
            partition=partition,
            replicas=replicas,
        )
        pricing = InverseVariancePricing(
            VarianceModel(n=len(values)), base_price=base_price
        )
        broker = cls(
            shards=runtimes,
            pricing=pricing,
            dataset=dataset,
            rng=np.random.default_rng(seed + 1),
            replica_confidence=replica_confidence,
            monitor=monitor,
        )
        if monitor is not None:
            for runtime in runtimes:
                monitor.attach(runtime)
        return broker

    # ------------------------------------------------------------------
    # DataBroker-compatible surface
    # ------------------------------------------------------------------
    @property
    def base_station(self) -> _ClusterStationView:
        """Aggregate station view (versions, rates, merged samples)."""
        return self._station_view

    @property
    def planner(self) -> _ClusterPlannerView:
        """Aggregate planner view (merged plans, max required rate)."""
        return self._planner_view

    @property
    def n(self) -> int:
        return self._station_view.n

    @property
    def k(self) -> int:
        return self._station_view.k

    @property
    def first_degraded_wall(self) -> "Optional[float]":
        """``time.perf_counter()`` of the first degraded gather, if any.

        Benchmarks subtract the fault-injection timestamp from this to
        report failover latency.
        """
        with self._lock:
            return self._first_degraded_wall

    def quote(self, spec: AccuracySpec) -> float:
        """Cluster list price of an ``(α, δ)`` product."""
        return self.pricing.price(spec.alpha, spec.delta)

    # ------------------------------------------------------------------
    # range-aware routing
    # ------------------------------------------------------------------
    def route_for_range(
        self, low: float, high: float, spec: AccuracySpec
    ) -> RoutePlan:
        """The (routing, δ-split) plan for one range at the current rate.

        Deterministic and memoized per ``(range, tier, rate)``.  A
        single-shard cluster always broadcasts -- routing could otherwise
        answer a band-covering query from the cached total and break the
        bit-identity contract with the plain :class:`DataBroker`.
        """
        if len(self.shards) == 1:
            return route_query(
                spec,
                low,
                high,
                bands=[self.shards[0].band.full_domain()],
                sizes=[self.shards[0].n],
            )
        rate = self._station_view.sampling_rate
        key = (low, high, spec.alpha, spec.delta, rate)
        # Lock-free read: dict.get is atomic under the GIL, entries are
        # immutable RoutePlans, and this sits on the per-request path of
        # the gateway's (locked) dispatch -- taking the broker lock here
        # serializes cache hits behind in-flight scatters.  Writes (and
        # the size-capped clear) still happen under ``_lock`` below.
        cached = self._route_cache.get(key)  # repro-lint: disable=RL003
        if cached is not None:
            return cached
        cost = self._shard_cost(rate) if rate > 0.0 else None
        route = route_query(
            spec,
            low,
            high,
            bands=[shard.band for shard in self.shards],
            sizes=[shard.n for shard in self.shards],
            cost=cost,
        )
        with self._lock:
            if len(self._route_cache) > 4096:
                self._route_cache.clear()
            self._route_cache[key] = route
        return route

    def routing_signature(self, query: RangeQuery, spec: AccuracySpec) -> str:
        """Stable fingerprint of how this query would route right now.

        The serving cache appends it to the reuse key so answers derived
        from different routes (e.g. before/after a rate change flips a
        candidate) never alias.
        """
        return self.route_for_range(query.low, query.high, spec).signature

    def _shard_cost(self, rate: float):
        """Memoized ``(shard_index, sub_spec) -> predicted ε′`` at a rate.

        Infeasible sub-specs (the stored sample cannot support them
        without a top-up) price at ``+inf`` so the candidate search
        avoids them; the broadcast fallback tops up as before.
        """

        def cost(index: int, sub: AccuracySpec) -> float:
            key = (index, sub.alpha, sub.delta, rate)
            # Lock-free read; see route_for_range for the rationale.
            cached = self._cost_cache.get(key)  # repro-lint: disable=RL003
            if cached is not None:
                return cached
            try:
                value = self.shards[index].primary._plan(sub, rate).epsilon_prime
            except InfeasiblePlanError:
                value = math.inf
            with self._lock:
                if len(self._cost_cache) > 8192:
                    self._cost_cache.clear()
                self._cost_cache[key] = value
            return value

        return cost

    def ensure_rate(self, p: float) -> None:
        """Run (or top up to) collection rounds on all shards, concurrently."""
        self._fan_out(lambda shard: shard.ensure_rate(p))

    def answer(
        self,
        query: RangeQuery,
        spec: AccuracySpec,
        consumer: str = "anonymous",
    ) -> ClusterAnswer:
        """Scatter-gather one query (see :meth:`answer_batch`)."""
        return self.answer_batch([query], spec, consumer=consumer)[0]

    def answer_batch(
        self,
        queries: "Sequence[RangeQuery]",
        spec: "AccuracySpec | Sequence[AccuracySpec]",
        consumer: "str | Sequence[str]" = "anonymous",
        *,
        replays: "Optional[Mapping[int, PrivateAnswer | int]]" = None,
        deadlines: "Optional[Sequence[Optional[Deadline]]]" = None,
    ) -> "List[Any]":
        """Scatter a batch to the shard lanes, gather, merge, and settle once.

        Each shard lane plans, estimates and noises its sub-batch
        (:meth:`~repro.core.broker.DataBroker.draw_batch`); shards run
        concurrently for ``s > 1``.  A shard whose primary dies
        mid-gather retries on its replica and only marks the merged
        answers degraded.  Admission and the books come *after* the
        gather, in query order: one ledger transaction per query at
        cluster list price and one accountant entry at the
        parallel-composition ε′ (max over shards) -- so a failed gather
        or a refused consumer charges nothing.  ``consumer``,
        ``replays`` and ``deadlines`` work as for
        :meth:`DataBroker.answer_batch <repro.core.broker.DataBroker.answer_batch>`.
        """
        batch = open_batch(
            self, "cluster", queries, spec, consumer,
            replays=replays, deadlines=deadlines,
        )
        fresh = batch.fresh
        queries = [batch.queries[i] for i in fresh]
        specs = [batch.specs[i] for i in fresh]
        consumers = [batch.consumers[i] for i in fresh]
        s = len(self.shards)
        routes: "List[RoutePlan]" = []
        answer_of: "Dict[Tuple[int, int], PrivateAnswer]" = {}
        degraded_by_shard: "Dict[int, bool]" = {}
        with drawing(batch):
            routes = [
                self.route_for_range(query.low, query.high, q_spec)
                for query, q_spec in zip(queries, specs)
            ]

            # Per-shard sub-batches: shard j answers exactly the queries
            # whose route queries it, in query order.  On a pure-broadcast
            # batch (s = 1, or no band gave the planner anything to prune)
            # every shard sees the full batch -- the legacy scatter,
            # bit-identical.
            shard_batches: "List[List[int]]" = [
                [i for i, route in enumerate(routes) if j in route.queried]
                for j in range(s)
            ]
            tasks = [
                (j, self.shards[j], shard_batches[j])
                for j in range(s)
                if shard_batches[j]
            ]

            # The fan-out may hop to pool threads; re-enter the caller's
            # deadline scope there so shard-level checkpoints keep working.
            request_deadline = current_deadline()

            def scoped_shard_draw(task):
                with deadline_scope(request_deadline):
                    return self._shard_draw(
                        task[1],
                        [queries[i] for i in task[2]],
                        [routes[i].spec_for(task[0]) for i in task[2]],
                        [consumers[i] for i in task[2]],
                    )

            with self._timer("cluster.scatter_s"):
                results = self._fan_out_over(tasks, scoped_shard_draw)
            for (j, _, indices), (answers, degraded) in zip(tasks, results):
                degraded_by_shard[j] = degraded
                for i, answer in zip(indices, answers):
                    answer_of[(j, i)] = answer

        if any(degraded_by_shard.values()):
            with self._lock:
                if self._first_degraded_wall is None:
                    self._first_degraded_wall = time.perf_counter()

        # Gather + merge per query over the shards its route touched, then
        # admit and settle the consolidated trades through the kernel.  A
        # failed scatter refused every fresh row: nothing to merge.
        scattered = not any(i in batch.failed for i in fresh)
        drawn = list(zip(fresh, routes)) if scattered else []
        with self._timer("cluster.gather_s"):
            n_total = float(self.n)
            plans: "List[PrivacyPlan]" = []
            values: "List[float]" = []
            raw_values: "List[float]" = []
            estimates: "List[float]" = []
            extras: "List[Dict[str, Any]]" = []
            degraded_answers = 0
            for i, (row, route) in enumerate(drawn):
                q_spec = batch.specs[row]
                shard_answers = tuple(answer_of[(j, i)] for j in route.queried)
                # Exactly-covered shards contribute their cached totals:
                # every record is in range, zero error, zero ε.  Shard
                # sizes are public partition metadata (they already
                # calibrate pricing and appear in every merged plan).
                exact_n = sum(self.shards[j].n for j in route.exact)
                exact_k = sum(self.shards[j].k for j in route.exact)
                if shard_answers or exact_n:
                    plans.append(merge_plans(
                        q_spec,
                        [a.plan for a in shard_answers],
                        exact_n=exact_n,
                        exact_k=exact_k,
                    ))
                else:
                    # Every shard pruned: the range provably holds no
                    # records, released from metadata alone.
                    plans.append(zero_plan(q_spec))
                raw = float(exact_n) + float(
                    sum(a.raw_value for a in shard_answers)
                )
                raw_values.append(raw)
                estimates.append(
                    float(exact_n)
                    + float(sum(a.sample_estimate for a in shard_answers))
                )
                values.append(float(min(max(raw, 0.0), n_total)))
                answer_degraded = tuple(
                    j for j in route.queried if degraded_by_shard.get(j, False)
                )
                if answer_degraded:
                    degraded_answers += 1
                extras.append(dict(
                    shard_answers=shard_answers,
                    degraded_shards=answer_degraded,
                    delta_reported=degraded_delta(
                        q_spec.delta,
                        len(answer_degraded),
                        self.replica_confidence,
                    ),
                    pruned_shards=route.pruned,
                    exact_shards=route.exact,
                    route_signature=route.signature,
                ))
            rows = [row for row, _ in drawn]
            admit(self, batch, rows, plans)
            merged = release_batch(
                self,
                batch,
                answer_type=ClusterAnswer,
                rows=rows,
                plans=plans,
                value=values,
                raw_value=raw_values,
                sample_estimate=estimates,
                extras=extras,
            )

        if degraded_answers:
            self._emit("cluster.degraded_answers", degraded_answers)
        if self.telemetry is not None:
            for route in routes:
                self.telemetry.observe(
                    "cluster.shards_pruned", float(len(route.pruned))
                )
                self.telemetry.observe(
                    "cluster.shards_touched", float(route.touched)
                )
                for sub in route.sub_specs:
                    self.telemetry.observe("cluster.delta_split", sub.delta)
            routed_count = sum(1 for route in routes if route.routed)
            if routed_count:
                self.telemetry.inc("cluster.routed_queries", routed_count)
            covered = sum(
                1 for route in routes if route.routed and not route.queried
            )
            if covered:
                self.telemetry.inc("cluster.metadata_answers", covered)
            self.telemetry.set_gauge(
                "cluster.shards_healthy",
                float(sum(1 for shard in self.shards if shard.primary_alive)),
            )
        return merged

    def replay(self, cached: PrivateAnswer, consumer: str) -> PrivateAnswer:
        """Re-release a previously merged answer at ε′ = 0.

        The settlement kernel's :func:`~repro.core.settlement.replay`, as
        for :meth:`DataBroker.replay`: list price, zero budget, one
        consolidated ledger entry showing the hand-over.
        """
        return replay(self, "cluster", cached, consumer)

    def breaker_open_fraction(self) -> float:
        """Share of shard lanes with a non-closed breaker (0.0 unwired).

        Duck-typed overload signal for the serving gateway's brownout
        ladder.
        """
        if self.breakers is None:
            return 0.0
        return self.breakers.open_fraction()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _shard_draw(
        self,
        shard: ShardRuntime,
        queries: "List[RangeQuery]",
        shard_specs: "List[AccuracySpec]",
        consumers: "List[str]",
    ) -> "Tuple[List[PrivateAnswer], bool]":
        check_deadline(f"cluster.shard{shard.shard_id}.scatter")
        breaker = (
            self.breakers.for_shard(shard.shard_id)
            if self.breakers is not None
            else None
        )
        # Open breaker: cut the limping lane out — serve through the
        # bypass (relief) lane, skipping the shard's congested ingress
        # path.  Same broker, same RNG stream, bit-identical answer.
        bypass = breaker is not None and not breaker.allow()
        if bypass:
            self._emit(f"cluster.shard{shard.shard_id}.breaker_bypasses")
        hedge_after: "Optional[float]" = None
        if self.hedging is not None and not bypass:
            hedge_after = self.hedging.hedge_after(f"shard{shard.shard_id}")
        start = time.perf_counter()
        try:
            if hedge_after is not None:
                answers, degraded = self._hedged_answer(
                    shard, queries, shard_specs, consumers, hedge_after
                )
            else:
                with self._timer(f"cluster.shard{shard.shard_id}.answer_s"):
                    answers, degraded = shard.draw_batch(
                        queries, shard_specs, consumers, gate=not bypass
                    )
        except Exception:
            if breaker is not None:
                breaker.record_failure()
            raise
        latency = time.perf_counter() - start
        if breaker is not None:
            breaker.record_success(latency)
            if self.breakers is not None:
                self.breakers.publish()
        if self.hedging is not None:
            self.hedging.observe(f"shard{shard.shard_id}", latency)
        if degraded:
            self._emit(f"cluster.shard{shard.shard_id}.failover_batches")
        return answers, degraded

    def _hedged_answer(
        self,
        shard: ShardRuntime,
        queries: "List[RangeQuery]",
        shard_specs: "List[AccuracySpec]",
        consumers: "List[str]",
        hedge_after: float,
    ) -> "Tuple[List[PrivateAnswer], bool]":
        """Race the gated lane against a bypass retry, exactly once.

        Both lanes draw through the *same* shard broker, so whichever
        wins produces the bit-identical result; the single ``claim``
        token (taken before any broker work) guarantees the loser has no
        side effects — no RNG double-draw, no double top-up.
        """
        request_deadline = current_deadline()
        cancel = threading.Event()
        claim = threading.Lock()

        def gated_lane() -> "Tuple[List[PrivateAnswer], bool]":
            with deadline_scope(request_deadline):
                with self._timer(f"cluster.shard{shard.shard_id}.answer_s"):
                    return shard.draw_batch(
                        queries, shard_specs, consumers,
                        cancel=cancel, claim=claim,
                    )

        future = self._hedge_pool().submit(gated_lane)
        try:
            return future.result(timeout=hedge_after)
        except FuturesTimeoutError:
            pass
        # Straggler: fire the hedge on the bypass lane.
        self._emit(f"cluster.shard{shard.shard_id}.hedges")
        try:
            with self._timer(f"cluster.shard{shard.shard_id}.hedge_s"):
                result = shard.draw_batch(
                    queries, shard_specs, consumers, gate=False, claim=claim
                )
        except HedgeLostRace:
            # The gated lane claimed first while the hedge spun up; its
            # result is the only one that exists.
            if self.hedging is not None:
                self.hedging.record_hedge(won=False)
            return future.result()
        # Hedge won: wake the gated lane out of its ingress wait (it
        # raises HedgeLostRace into its own future, which nobody reads).
        cancel.set()
        if self.hedging is not None:
            self.hedging.record_hedge(won=True)
        return result

    def _hedge_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._hedge_executor is None:
                self._hedge_executor = ThreadPoolExecutor(
                    max_workers=max(2, len(self.shards)),
                    thread_name_prefix="repro-hedge",
                )
            return self._hedge_executor

    def _fan_out(self, fn):
        """Apply ``fn`` to every shard, concurrently when ``s > 1``."""
        return self._fan_out_over(self.shards, fn)

    def _fan_out_over(self, items, fn):
        """Apply ``fn`` to each item, concurrently when there are several.

        Results come back in item order.  Determinism is preserved
        under concurrency because every shard owns independent rng
        streams (devices, channel, broker noise) and each item's
        sub-batch composition is fixed before the scatter.

        Small scatters (routing typically touches one or two shards)
        run inline: per-shard work is GIL-bound and far cheaper than a
        thread handoff, so the pool only pays off for wide broadcasts.
        """
        if not items:
            return []
        if len(items) <= _INLINE_SCATTER_MAX:
            return [fn(item) for item in items]
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=len(self.shards),
                    thread_name_prefix="repro-cluster",
                )
            executor = self._executor
        futures = [executor.submit(fn, item) for item in items]
        return [f.result() for f in futures]

    def _timer(self, name: str):
        if self.telemetry is None:
            return nullcontext()
        return self.telemetry.timer(name)

    def _emit(self, name: str, amount: float = 1.0) -> None:
        if self.telemetry is not None:
            self.telemetry.inc(name, amount)
