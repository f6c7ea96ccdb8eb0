"""The scatter-gather coordinator: one broker surface over many shards.

:class:`ClusterBroker` exposes the same duck-typed surface as
:class:`~repro.core.broker.DataBroker` (``quote`` / ``answer`` /
``answer_batch`` / ``replay`` / ``ledger`` / ``accountant`` /
``base_station`` / ``planner`` / ``telemetry``), so the serving gateway,
the marketplace, and the load generators route through it unchanged.

The shards are groups of the fleet's own base stations, and the
RankCounting estimate is a sum of per-node terms, so the coordinator
pools the touched shards' samples and releases each answer with **one**
plan and **one** Laplace draw.  Per batch it

1. **routes** each query: :meth:`ClusterBroker.route_for_range`
   classifies every shard against the range by its value band
   (:func:`~repro.cluster.planning.route_query`) -- pruned shards are
   skipped, exactly-covered shards answer from cached totals, and the
   ``t <= s`` straddling shards are *queried* at the boosted tolerance
   ``α_t`` and the consumer's own ``δ``;
2. **plans** once per ``(touched set, α_t, δ)`` over the touched fleet
   shape ``(k_t, n_t)`` at the fleet's sampling rate, topping up the
   whole fleet to its provisioning rate first when the stored sample
   cannot support the target (so every shard keeps one rate), and
   admits atomically;
3. **gathers** the queried shards' samples (concurrently for wide
   scatters, with replica failover, breaker bypass and hedging per
   shard -- a lane only reads, so it has no side effects to undo), runs
   one ``estimate_many`` per touched set over those samples in global
   node order, and adds the exact-cover totals;
4. **draws** the batch's noise in one ``sample_laplace_many`` from its
   own ``rng``, clips, and **settles** through the settlement kernel
   (:mod:`repro.core.settlement`): one journal record, one
   :class:`~repro.pricing.ledger.BillingLedger` transaction and one
   :class:`~repro.privacy.budget.BudgetAccountant` entry per query at
   the cluster list price.  Shards keep no books and draw no noise.

A route that touches every shard pools the whole fleet at the consumer's
own target, which is exactly what the plain broker computes over the
same sample: at a common sampling rate a 1-shard cluster and an even 2-
or 4-shard cluster are bit-identical to it (tested).  A 1-shard cluster
also provisions and tops up exactly as the plain broker does; with
``s >= 2`` the cluster provisions denser (see
``_ClusterPlannerView.required_rate``).  Routing is disabled at
``s = 1`` so band coverage can never shortcut the real release.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
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
    route_query,
    zero_plan,
)
from repro.cluster.shard import SampleRead, ShardRuntime, build_shards
from repro.core.planner import PlanMemo, QueryPlanner
from repro.core.policy import BrokerPolicy
from repro.core.query import AccuracySpec, PrivateAnswer, RangeQuery
from repro.core.settlement import (
    admit,
    drawing,
    open_batch,
    release_batch,
    replay,
)
from repro.datasets.partition import ShardBand
from repro.estimators.rank import RankCountingEstimator, RankIndex
from repro.pricing.functions import InverseVariancePricing, PricingFunction
from repro.pricing.ledger import BillingLedger
from repro.pricing.variance_model import VarianceModel
from repro.privacy.budget import BudgetAccountant
from repro.privacy.laplace import sample_laplace_many
from repro.privacy.optimizer import PrivacyPlan
from repro.resilience.deadline import (
    Deadline,
    check_deadline,
    current_deadline,
    deadline_scope,
)
from repro.resilience.hedging import HedgePolicy

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.durability.journal import TradeJournal
    from repro.serving.telemetry import MetricsRegistry

__all__ = ["ClusterAnswer", "ClusterBroker"]

#: Scatters at or below this many shards run inline on the calling
#: thread.  Per-shard work (a sample read, a collection round) is
#: GIL-bound, so a thread handoff costs more than it buys until the
#: scatter is genuinely wide.
_INLINE_SCATTER_MAX = 4

#: The pooled estimator: one ``estimate_many`` over the touched shards'
#: samples concatenated in global node order, the plain broker's
#: summation order.
_ESTIMATOR = RankCountingEstimator()


@dataclass(frozen=True)
class ClusterAnswer(PrivateAnswer):
    """A pooled scatter-gather release.

    Extends :class:`~repro.core.query.PrivateAnswer` with the gather
    provenance: which shards answered from a replica, and the confidence
    actually *reported* after degradation (``delta_reported ==
    spec.delta`` on a healthy gather).
    """

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
        self._lock = threading.Lock()
        self._version = 0  # guarded-by: _lock
        self._open_rounds = 0  # guarded-by: _lock
        self._round_committed = False  # guarded-by: _lock
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
        """The fleet's monotone commit counter.

        One fleet-wide collection round (:meth:`fleet_round`: every
        shard's commit and its replica's mirror) bumps it once, as one
        round bumps a single station's; any other station commit bumps
        it on its own.
        """
        with self._lock:
            return self._version

    def subscribe_commits(self, callback) -> None:
        self._listeners.append(callback)

    @contextmanager
    def fleet_round(self) -> "Iterator[None]":
        """Fold every station commit inside the block into one bump."""
        with self._lock:
            self._open_rounds += 1
        try:
            yield
        finally:
            with self._lock:
                self._open_rounds -= 1
                bump = not self._open_rounds and self._round_committed
                if bump:
                    self._round_committed = False
                    self._version += 1
                version = self._version
            if bump:
                self._notify(version)

    def _on_commit(self, _version: int) -> None:
        with self._lock:
            if self._open_rounds:
                self._round_committed = True
                return
            self._version += 1
            version = self._version
        self._notify(version)

    def _notify(self, version: int) -> None:
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

    ``supports`` / ``plan`` are the whole fleet's, as for the plain
    broker over the same fleet; ``required_rate`` is the cluster's one
    provisioning and top-up rate; ``plan_for_range`` returns the pooled
    plan a *routed* query gets, so the load generator's serial accounting
    expectation prices the cluster exactly.
    """

    def __init__(self, broker: "ClusterBroker") -> None:
        self._broker = broker

    def _fleet(self) -> QueryPlanner:
        broker = self._broker
        return broker._plan_memo.planner(broker.k, broker.n)

    def supports(self, spec: AccuracySpec, p: float) -> bool:
        return self._fleet().supports(spec, p)

    def required_rate(self, spec: AccuracySpec) -> float:
        """The rate the fleet is provisioned and topped up at for ``spec``.

        Dense enough that every shard could certify the tier on its own
        share ``(α, δ^(1/s))`` of the confidence, so a pooled release
        over any touched set is feasible there.  A routed release pools
        only the few shards it touches; this density is what keeps its
        ε′ at the per-shard lane's.  With one shard it is the plain
        broker's rate; with ``s >= 2`` it is denser (more samples per
        collection round, a lower ε′ per release).
        """
        broker = self._broker
        share = spec
        if len(broker.shards) > 1:
            share = AccuracySpec(
                alpha=spec.alpha, delta=spec.delta ** (1.0 / len(broker.shards))
            )
        return max(
            broker._plan_memo.planner(k, n).required_rate(share)
            for k, n in zip(broker._shard_k, broker._shard_n)
        )

    def plan(self, spec: AccuracySpec, p: float) -> PrivacyPlan:
        broker = self._broker
        return broker._plan_memo.plan(spec, p, broker.k, broker.n)

    def plan_for_range(
        self, low: float, high: float, spec: AccuracySpec, p: float
    ) -> PrivacyPlan:
        """The pooled plan a release of ``[low, high]`` gets at rate ``p``.

        With range-aware routing the spent ε′ depends on the query range
        (pruned and exactly-covered shards spend nothing, and the queried
        ones plan at the boosted tolerance), so pricing the cluster needs
        the route, not just the tier.
        """
        broker = self._broker
        return broker._route_plan(broker.route_for_range(low, high, spec), p)


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
    # The one noise stream of every cluster release.  Mirrors
    # DataBroker's fixed default seed: the cluster/plain-broker identity
    # tests require both brokers to draw the same stream.
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(7))  # repro-lint: disable=RL002
    policy: BrokerPolicy = field(default_factory=BrokerPolicy)
    replica_confidence: float = 0.9
    monitor: Optional[ShardHealthMonitor] = None
    telemetry: "Optional[MetricsRegistry]" = None
    #: Optional :class:`~repro.durability.journal.TradeJournal`; when set,
    #: every trade is journaled *before* the pooled answer is
    #: released or the cluster books mutate (journal-before-release).
    journal: "Optional[TradeJournal]" = None
    #: Optional per-shard circuit breakers
    #: (:class:`~repro.cluster.health.ShardBreakerBoard`).  An open
    #: breaker routes that shard's sample reads through the bypass lane
    #: (skipping its congested ingress path); answers and books are
    #: bit-identical either way.
    breakers: "Optional[ShardBreakerBoard]" = None
    #: Optional :class:`~repro.resilience.hedging.HedgePolicy`.  When
    #: set, a straggling gated sample read is re-issued on the bypass
    #: lane after the lane's rolling-p95 trigger.  Lanes only read, so
    #: whichever finishes first returns the identical samples.
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
        # Fleet shape and band metadata are fixed at build time.  A
        # single-shard cluster routes over the full domain, so it always
        # broadcasts (see route_for_range).
        self._shard_k = [shard.k for shard in self.shards]
        self._shard_n = [shard.n for shard in self.shards]
        self._bands: "List[ShardBand]" = (
            [shard.band for shard in self.shards]
            if len(self.shards) > 1
            else [ShardBand.full_domain()]
        )
        self._plan_memo = PlanMemo()
        # Route memo keyed on (low, high, α, δ): routing is pure interval
        # classification over the immutable bands.
        self._route_cache: "Dict[Tuple[float, float, float, float], RoutePlan]" = {}  # guarded-by: _lock
        # Lazy executor for hedged gated lanes; separate from the scatter
        # pool so a wide scatter can never starve its own hedges.
        self._hedge_executor: "Optional[ThreadPoolExecutor]" = None  # guarded-by: _lock
        # One rank index per touched shard set, with the reads it was
        # built from; see _pooled_index.
        self._indexes: "Dict[Tuple[int, ...], Tuple[Tuple[Tuple[int, bool, int], ...], RankIndex]]" = {}

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
        """Aggregate planner view (fleet and pooled route plans)."""
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
        """The routing plan for one range (memoized per range and tier).

        A single-shard cluster always broadcasts -- routing could otherwise
        answer a band-covering query from the cached total and break the
        bit-identity contract with the plain :class:`DataBroker`.
        """
        key = (low, high, spec.alpha, spec.delta)
        # Lock-free read: dict.get is atomic under the GIL, entries are
        # immutable RoutePlans, and this sits on the per-request path of
        # the gateway's (locked) dispatch -- taking the broker lock here
        # serializes cache hits behind in-flight scatters.  Writes (and
        # the size-capped clear) still happen under ``_lock`` below.
        cached = self._route_cache.get(key)  # repro-lint: disable=RL003
        if cached is not None:
            return cached
        route = route_query(spec, low, high, self._bands, self._shard_n)
        with self._lock:
            if len(self._route_cache) > 4096:
                self._route_cache.clear()
            self._route_cache[key] = route
        return route

    def routing_signature(self, query: RangeQuery, spec: AccuracySpec) -> str:
        """Stable fingerprint of how this query routes.

        The serving cache appends it to the reuse key so answers derived
        from different routes never alias.
        """
        return self.route_for_range(query.low, query.high, spec).signature

    def _shape(self, shards: "Tuple[int, ...]") -> "Tuple[int, int]":
        """``(k, n)`` of a group of shards."""
        return (
            sum(self._shard_k[j] for j in shards),
            sum(self._shard_n[j] for j in shards),
        )

    def _route_plan(self, route: RoutePlan, p: float) -> PrivacyPlan:
        """The pooled plan of one route at rate ``p``.

        Problem (3) over the queried shards' shape ``(k_t, n_t)`` at
        ``(α_t, δ)``; a metadata-only route (every shard pruned or
        exactly covered) spends nothing.
        """
        if not route.queried:
            k = sum(self._shard_k[j] for j in route.exact)
            return zero_plan(route.spec, n=route.exact_n, k=k)
        k, n = self._shape(route.queried)
        return self._plan_memo.plan(route.spec, p, k, n)

    def _plan_routes(
        self, routes: "Sequence[RoutePlan]", specs: "Sequence[AccuracySpec]"
    ) -> "List[PrivacyPlan]":
        """One pooled plan per route, solved once per distinct shape and target.

        As :meth:`DataBroker._plan_each <repro.core.broker.DataBroker>`:
        a target the stored sample cannot support first tops the whole
        fleet up (so every shard keeps one rate) to the provisioning rate
        of its consumer tier ``specs[i]``; every route is then planned at
        the final post-top-up rate.
        """
        targets: "Dict[Tuple[Tuple[int, ...], float, float], Tuple[RoutePlan, AccuracySpec]]" = {}
        for route, spec in zip(routes, specs):
            if route.queried:
                targets.setdefault(
                    (route.queried, route.spec.alpha, route.spec.delta),
                    (route, spec),
                )
        for route, spec in targets.values():
            planner = self._plan_memo.planner(*self._shape(route.queried))
            p = self._station_view.sampling_rate
            if p > 0.0 and planner.supports(route.spec, p):
                continue
            target = self._planner_view.required_rate(spec)
            self.ensure_rate(max(target, p if p > 0 else target))
        p = self._station_view.sampling_rate
        plans = {
            key: self._route_plan(route, p)
            for key, (route, _) in targets.items()
        }
        return [
            plans[(route.queried, route.spec.alpha, route.spec.delta)]
            if route.queried
            else self._route_plan(route, p)
            for route in routes
        ]

    def ensure_rate(self, p: float) -> None:
        """Run (or top up to) one fleet-wide collection round, concurrently."""
        with self._station_view.fleet_round():
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
        """Route, plan, gather, pool, noise once per query, and settle.

        Routes and plans every fresh row, admits each consumer atomically
        (a refused consumer draws no noise and charges nothing), gathers
        the queried shards' samples -- concurrently for wide scatters --
        and pools them: one ``estimate_many`` per touched shard set, plus
        the exact-cover totals, then one Laplace draw per query from the
        coordinator's ``rng``.  A shard whose primary is down answers
        from its replica and only marks the answers degraded.  The books
        get one ledger transaction per query at cluster list price and
        one accountant entry at the pooled plan's ε′.  ``consumer``,
        ``replays`` and ``deadlines`` work as for
        :meth:`DataBroker.answer_batch <repro.core.broker.DataBroker.answer_batch>`.
        """
        batch = open_batch(
            self, "cluster", queries, spec, consumer,
            replays=replays, deadlines=deadlines,
        )
        fresh = batch.fresh
        route_of: "Dict[int, RoutePlan]" = {}
        routes: "List[RoutePlan]" = []
        plans: "List[PrivacyPlan]" = []
        estimates = raw_values = released = np.zeros(0, dtype=np.float64)
        extras: "List[Dict[str, Any]]" = []
        with drawing(batch):
            route_of = {
                i: self.route_for_range(
                    batch.queries[i].low, batch.queries[i].high, batch.specs[i]
                )
                for i in fresh
            }
            plans = self._plan_routes(
                list(route_of.values()), [batch.specs[i] for i in fresh]
            )
            fresh, plans = admit(self, batch, fresh, plans)
            routes = [route_of[i] for i in fresh]
            with self._timer("cluster.scatter_s"):
                reads = self._gather(routes)
            with self._timer("cluster.gather_s"):
                # Each touched shard set is one pooled estimate_many over
                # its shards' rank index (samples in global node order --
                # the plain broker's summation order) plus the exact-cover
                # totals.
                estimates = np.asarray(
                    [float(route.exact_n) for route in routes], dtype=np.float64
                )
                groups: "Dict[Tuple[int, ...], List[int]]" = {}
                for k, route in enumerate(routes):
                    if route.queried:
                        groups.setdefault(route.queried, []).append(k)
                for queried, ks in groups.items():
                    estimates[ks] += _ESTIMATOR.estimate_many(
                        self._pooled_index(queried, reads),
                        [(routes[k].low, routes[k].high) for k in ks],
                    )
                # One draw per row with queried shards; a metadata-only
                # row releases its public totals.
                drawn = [k for k, route in enumerate(routes) if route.queried]
                noise = np.zeros(len(routes), dtype=np.float64)
                noise[drawn] = sample_laplace_many(
                    [plans[k].noise_scale for k in drawn], self.rng
                )
                raw_values = estimates + noise
                released = np.clip(raw_values, 0.0, float(self.n))
            degraded_answers = 0
            for route in routes:
                answer_degraded = tuple(
                    j for j in route.queried if reads[j].replica
                )
                degraded_answers += bool(answer_degraded)
                extras.append(dict(
                    degraded_shards=answer_degraded,
                    delta_reported=degraded_delta(
                        route.spec.delta,
                        len(answer_degraded),
                        self.replica_confidence,
                    ),
                    pruned_shards=route.pruned,
                    exact_shards=route.exact,
                    route_signature=route.signature,
                ))
            if degraded_answers:
                self._emit("cluster.degraded_answers", degraded_answers)

        outcomes = release_batch(
            self,
            batch,
            answer_type=ClusterAnswer,
            rows=fresh,
            plans=plans,
            value=released,
            raw_value=raw_values,
            sample_estimate=estimates,
            extras=extras,
        )
        self._observe_routes(route_of.values())
        return outcomes

    def replay(self, cached: PrivateAnswer, consumer: str) -> PrivateAnswer:
        """Re-release a previously pooled answer at ε′ = 0.

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
    def _observe_routes(self, routes: "Iterable[RoutePlan]") -> None:
        """Routing telemetry of a batch's fresh rows."""
        if self.telemetry is None:
            return
        routes = list(routes)
        self.telemetry.observe_many(
            "cluster.shards_pruned", [len(route.pruned) for route in routes]
        )
        self.telemetry.observe_many(
            "cluster.shards_touched", [route.touched for route in routes]
        )
        routed = covered = 0
        for route in routes:
            routed += route.routed
            covered += route.routed and not route.queried
        if routed:
            self.telemetry.inc("cluster.routed_queries", routed)
        if covered:
            self.telemetry.inc("cluster.metadata_answers", covered)
        self.telemetry.set_gauge(
            "cluster.shards_healthy",
            float(sum(1 for shard in self.shards if shard.primary_alive)),
        )

    def _pooled_index(
        self, queried: "Tuple[int, ...]", reads: "Dict[int, SampleRead]"
    ) -> RankIndex:
        """The rank index over ``queried``'s samples, in global node order.

        Kept per touched shard set and rebuilt when any of its shards is
        read from another station or store version, so at most one index
        per set is alive.  A racing rebuild only builds the same index
        twice.
        """
        sources = tuple(
            (j, reads[j].replica, reads[j].store_version) for j in queried
        )
        cached = self._indexes.get(queried)
        if cached is None or cached[0] != sources:
            index = RankIndex([s for j in queried for s in reads[j].samples])
            cached = self._indexes[queried] = (sources, index)
        return cached[1]

    def _gather(self, routes: "Sequence[RoutePlan]") -> "Dict[int, SampleRead]":
        """Read every queried shard's samples once, per shard index,
        concurrently for wide scatters."""
        needed = sorted({j for route in routes for j in route.queried})
        # The fan-out may hop to pool threads; re-enter the caller's
        # deadline scope there so shard-level checkpoints keep working.
        request_deadline = current_deadline()

        def scoped_read(j: int) -> SampleRead:
            with deadline_scope(request_deadline):
                return self._read_shard(self.shards[j])

        results = self._fan_out_over(needed, scoped_read)
        if any(read.replica for read in results):
            with self._lock:
                if self._first_degraded_wall is None:
                    self._first_degraded_wall = time.perf_counter()
        return dict(zip(needed, results))

    def _read_shard(self, shard: ShardRuntime) -> SampleRead:
        check_deadline(f"cluster.shard{shard.shard_id}.scatter")
        breaker = (
            self.breakers.for_shard(shard.shard_id)
            if self.breakers is not None
            else None
        )
        # Open breaker: cut the limping lane out — read through the
        # bypass (relief) lane, skipping the shard's congested ingress
        # path.  Same store, bit-identical samples.
        bypass = breaker is not None and not breaker.allow()
        if bypass:
            self._emit(f"cluster.shard{shard.shard_id}.breaker_bypasses")
        hedge_after: "Optional[float]" = None
        if self.hedging is not None and not bypass:
            hedge_after = self.hedging.hedge_after(f"shard{shard.shard_id}")
        start = time.perf_counter()
        try:
            if hedge_after is not None:
                read = self._hedged_read(shard, hedge_after)
            else:
                with self._timer(f"cluster.shard{shard.shard_id}.answer_s"):
                    read = shard.read_samples(gate=not bypass)
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
        if read.replica:
            self._emit(f"cluster.shard{shard.shard_id}.failover_batches")
        return read

    def _hedged_read(self, shard: ShardRuntime, hedge_after: float) -> SampleRead:
        """Race the gated lane against a bypass retry.

        Both lanes read the same shard store, so whichever finishes
        first returns the identical samples and the other has no side
        effects: no noise is drawn and no book is touched on a lane.
        """
        request_deadline = current_deadline()
        cancel = threading.Event()

        def gated_lane() -> SampleRead:
            with deadline_scope(request_deadline):
                with self._timer(f"cluster.shard{shard.shard_id}.answer_s"):
                    return shard.read_samples(cancel=cancel)

        future = self._hedge_pool().submit(gated_lane)
        try:
            return future.result(timeout=hedge_after)
        except FuturesTimeoutError:
            pass
        # Straggler: fire the hedge on the bypass lane, then wake the
        # gated lane out of its ingress wait (it raises HedgeLostRace into
        # its own future, which nobody reads).
        self._emit(f"cluster.shard{shard.shard_id}.hedges")
        with self._timer(f"cluster.shard{shard.shard_id}.hedge_s"):
            result = shard.read_samples(gate=False)
        won = not future.done()
        cancel.set()
        if self.hedging is not None:
            self.hedging.record_hedge(won=won)
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
        streams (devices, channel) and a sample read draws none.

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
