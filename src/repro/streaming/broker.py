"""The streaming broker: windowed ``(α, δ)`` answers over live epochs.

Same duck-typed trading surface as :class:`~repro.core.broker.DataBroker`
and :class:`~repro.cluster.broker.ClusterBroker` (``quote`` /
``answer`` / ``answer_batch`` / ``replay`` / ``routing_signature`` plus a
``base_station`` exposing ``store_version`` and ``subscribe_commits``),
so the serving gateway, answer cache, and admission controller all wire
up unchanged.  The differences are what streaming forces:

* the sample store is the **merged window** -- the last ``W`` sealed
  epochs folded across shards (:class:`StreamingStation`) -- and its
  fleet shape ``(k_eff, n, p)`` changes on every roll, so plans are
  memoized on the full ``(α, δ, p, k, n)`` key rather than a fixed-fleet
  ``(α, δ, p)``;
* there is **no top-up**: sealed epochs are immutable, so feasibility is
  guaranteed by policy -- the admission bands pin every sellable tier at
  or above the calibration floor the epoch rates were provisioned for
  (``min_alpha = floor.α``, ``max_delta = floor.δ``; feasibility is
  monotone in both), and a window too young to support the floor fails
  loudly with :class:`~repro.errors.InfeasiblePlanError`;
* every release charges the lifetime accountant (audit trail, as
  always) **and** the per-epoch
  :class:`~repro.streaming.accounting.EpochBudgetAccountant`, journaling
  the epoch charge to the window log pre-release so recovery rebuilds
  both books.

Trades settle through the shared kernel (:mod:`repro.core.settlement`),
which journals them to the standard
:class:`~repro.durability.journal.TradeJournal` before any release
(journal-before-release), with ``store_version`` = the window snapshot
the answer was computed against.
A roll that lands mid-batch cannot tear an answer: the batch runs
entirely against the immutable epoch snapshot taken at entry, and the
cache key (window id + store version, via :meth:`routing_signature`)
ensures post-roll lookups miss.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import partial
from typing import (
    TYPE_CHECKING,
    Callable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    overload,
)

import numpy as np

from repro.core.broker import SampleView, Trading, release_views
from repro.core.planner import PlanMemo
from repro.core.policy import BrokerPolicy
from repro.core.query import AccuracySpec, PrivateAnswer, RangeQuery
from repro.core.settlement import Batch, WindowBooks, open_batch
from repro.durability.journal import TradeJournal
from repro.errors import StreamingError
from repro.estimators.base import RangeCountingEstimator
from repro.estimators.rank import RankCountingEstimator
from repro.pricing.functions import PricingFunction
from repro.pricing.ledger import BillingLedger
from repro.privacy.budget import BudgetAccountant
# Unused here: kept only as the attribute perfbench's tracer wraps.
from repro.privacy.laplace import sample_laplace_many
from repro.resilience.deadline import Deadline
from repro.streaming.accounting import EpochBudgetAccountant
from repro.streaming.journal import WindowLog
from repro.streaming.window import (
    EpochSummary,
    WindowSummary,
    merge_epoch_summaries,
    pooled_rate,
)

if TYPE_CHECKING:  # pragma: no cover - types only, avoids an import cycle
    from repro.serving.telemetry import MetricsRegistry

__all__ = ["StreamingBroker", "StreamingStation", "WindowSnapshot"]


@dataclass(frozen=True)
class WindowSnapshot:
    """An immutable view of the merged window at one store version.

    Everything an answer needs: the live epochs (already merged across
    shards), the monotone ``store_version`` the snapshot was taken at,
    and the derived fleet shape.  Epoch summaries are immutable, so a
    snapshot stays valid -- and keeps answering consistently -- even
    while the station commits further rolls.
    """

    epochs: Tuple[EpochSummary, ...]
    store_version: int

    @property
    def window_id(self) -> str:
        """``w<floor>:<latest>`` -- the cache routing key of this window."""
        if not self.epochs:
            return "w-empty"
        return f"w{self.epochs[0].epoch}:{self.epochs[-1].epoch}"

    @property
    def live_epochs(self) -> Tuple[int, ...]:
        return tuple(s.epoch for s in self.epochs)

    @property
    def record_count(self) -> int:
        return sum(s.record_count for s in self.epochs)

    @property
    def node_count(self) -> int:
        return sum(s.node_count for s in self.epochs)


class StreamingStation:
    """The merged-window store: the streaming analogue of a base station.

    Holds the cross-shard merged ring of live epochs, a monotone
    ``store_version`` bumped on every committed roll, and the
    ``subscribe_commits`` push channel the serving
    :class:`~repro.serving.answer_cache.AnswerCache` binds to -- so every
    window roll push-invalidates cached answers keyed on the previous
    ``(window_id, store_version)``.
    """

    def __init__(self, window_epochs: int) -> None:
        self._window = WindowSummary(window_epochs=window_epochs)
        self._store_version = 0
        self._lock = threading.Lock()
        self._listeners: "List[Callable[[int], None]]" = []

    @property
    def window_epochs(self) -> int:
        return self._window.window_epochs

    @property
    def store_version(self) -> int:
        """Monotone commit counter; bumps once per committed roll."""
        with self._lock:
            return self._store_version

    def subscribe_commits(self, callback: "Callable[[int], None]") -> None:
        """Call ``callback(new_store_version)`` after every committed roll."""
        with self._lock:
            self._listeners.append(callback)

    def commit_roll(
        self, shard_summaries: "Sequence[EpochSummary]"
    ) -> WindowSnapshot:
        """Fold one epoch's per-shard summaries into the merged window.

        All summaries must seal the *same* epoch; the merge is
        order-independent (associative + commutative), the ring evicts
        epochs leaving the window, the store version bumps, and commit
        listeners fire with the new version (the cache-invalidation
        push).  Returns the post-commit snapshot.
        """
        if not shard_summaries:
            raise StreamingError("a roll needs at least one shard summary")
        merged = shard_summaries[0]
        for summary in shard_summaries[1:]:
            merged = merge_epoch_summaries(merged, summary)
        with self._lock:
            self._window.add(merged)
            self._store_version += 1
            version = self._store_version
            snapshot = WindowSnapshot(
                epochs=self._window.epochs(), store_version=version
            )
            listeners = tuple(self._listeners)
        for callback in listeners:
            callback(version)
        return snapshot

    def snapshot(self) -> WindowSnapshot:
        """The current merged window at its store version (atomic)."""
        with self._lock:
            return WindowSnapshot(
                epochs=self._window.epochs(),
                store_version=self._store_version,
            )

    def restore(
        self, epochs: "Sequence[EpochSummary]", store_version: int
    ) -> None:
        """Adopt recovered window state (crash recovery path)."""
        with self._lock:
            self._window.clear()
            for summary in sorted(epochs, key=lambda s: s.epoch):
                self._window.add(summary)
            self._store_version = store_version


@dataclass
class StreamingBroker(Trading):
    """Answers priced, private range counting over the live window.

    Parameters
    ----------
    station:
        The merged-window store (also the cache-binding surface).
    pricing:
        Price sheet.  Streaming windows change ``n`` every roll, so the
        sheet is calibrated against a *nominal* fleet size chosen at
        provisioning time; prices are a market artifact, not an accuracy
        certificate, and stay stable across rolls by design.
    floor:
        The accuracy floor epoch rates are provisioned for.  Admission
        pins sellable tiers to ``α ≥ floor.α`` and ``δ ≤ floor.δ``
        (feasibility is monotone in both), replacing the one-shot
        broker's top-up escape hatch.
    epoch_accountant:
        Per-epoch ε ledgers with expiry (steady-state bound).
    accountant:
        Lifetime audit ledger (capacity ∞ by default) -- the books the
        trade journal recovers, kept identical to the one-shot path.
    window_log:
        When set, every release's per-epoch charge is journaled for
        bit-exact accountant recovery.
    """

    station: StreamingStation
    pricing: PricingFunction
    floor: AccuracySpec
    dataset: str = "stream"
    estimator: RangeCountingEstimator = field(default_factory=RankCountingEstimator)
    ledger: BillingLedger = field(default_factory=BillingLedger)
    accountant: BudgetAccountant = field(default_factory=BudgetAccountant)
    epoch_accountant: EpochBudgetAccountant = field(
        default_factory=EpochBudgetAccountant
    )
    # A broker is a process singleton; the fixed default seed is the
    # documented determinism contract (tests pin golden answers to it).
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(7))  # repro-lint: disable=RL002
    policy: Optional[BrokerPolicy] = None
    planner_grid_points: int = 512
    telemetry: "Optional[MetricsRegistry]" = None
    journal: TradeJournal = field(default_factory=TradeJournal)
    window_log: Optional[WindowLog] = None

    def __post_init__(self) -> None:
        if self.policy is None:
            # The admission bands double as the feasibility certificate:
            # every tier inside them is answerable from any window whose
            # epochs were sealed at the floor-calibrated rate.
            self.policy = BrokerPolicy(
                min_alpha=self.floor.alpha,
                max_delta=self.floor.delta,
            )
        # Window shape (k, n, p) changes across rolls, so plans memoize
        # on the full shape key.
        self._plan_memo = PlanMemo(grid_points=self.planner_grid_points)

    # ------------------------------------------------------------------
    # duck-typed broker surface
    # ------------------------------------------------------------------
    @property
    def base_station(self) -> StreamingStation:
        """Cache/gateway binding surface (store_version + subscribe_commits)."""
        return self.station

    def routing_signature(self, query: RangeQuery, spec: AccuracySpec) -> str:
        """The window id answers are currently derived from.

        Folded into the serving cache key next to ``store_version``, so a
        cached answer can only ever replay against the exact
        ``(window_id, store_version)`` it was computed at -- the
        invalidation contract the gateway relies on across rolls.
        """
        return self.station.snapshot().window_id

    # ------------------------------------------------------------------
    # answering
    # ------------------------------------------------------------------
    def replay(self, cached: PrivateAnswer, consumer: str) -> PrivateAnswer:
        """Re-release a previously purchased answer to ``consumer``.

        A one-row :meth:`answer_batch` replay: zero privacy cost (no
        accountant charge, no epoch-ledger charge), billed at list price,
        journaled with ε′ = 0 -- the same replay contract as the one-shot
        broker, so the serving cache and gateway work unchanged.
        """
        return self.answer_batch(
            [cached.query], cached.spec, consumer, replays={0: cached}
        )[0]

    @overload
    def answer_batch(
        self,
        queries: "Sequence[RangeQuery]",
        spec: "AccuracySpec | Sequence[AccuracySpec]",
        consumer: str = "anonymous",
        *,
        replays: "Optional[Mapping[int, PrivateAnswer | int]]" = None,
        deadlines: "Optional[Sequence[Optional[Deadline]]]" = None,
    ) -> "List[PrivateAnswer]": ...

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
        """Answer a batch of window queries in one vectorized pass.

        The batch runs against one atomic :class:`WindowSnapshot`: plans,
        estimates, the journaled ``store_version`` and the per-epoch
        charges all describe the same set of live epochs, even if a roll
        commits while the batch is in flight (the snapshot's summaries
        are immutable).  Admission is atomic per consumer across the
        policy's caps, the lifetime accountant, *and* every covered epoch
        ledger -- a consumer's rows complete in full or charge nothing.
        ``consumer``, ``replays`` and ``deadlines`` work as for
        :meth:`DataBroker.answer_batch <repro.core.broker.DataBroker.answer_batch>`.
        """
        batch = open_batch(
            self, "streaming", queries, spec, consumer,
            replays=replays, deadlines=deadlines,
        )
        snapshot = self.station.snapshot()
        return release_views(
            self,
            batch,
            partial(self._views, snapshot),
            answer_type=PrivateAnswer,
            store_version=snapshot.store_version,
        )

    def _views(
        self, snapshot: WindowSnapshot, batch: Batch, rows: List[int]
    ) -> Tuple[List[SampleView], List[AccuracySpec]]:
        """The window snapshot: its live epochs' indexes, oldest first.

        No top-up: a window without samples raises
        :class:`~repro.errors.InsufficientSamplesError`, and an infeasible
        tier :class:`~repro.errors.InfeasiblePlanError` when it is planned.
        """
        if not rows:
            return [], []
        n = snapshot.record_count
        view = SampleView(
            k=snapshot.node_count,
            n=n,
            p=pooled_rate(snapshot.epochs),
            bound=float(n),
            indexes=tuple(
                summary.rank_index for summary in snapshot.epochs if summary.samples
            ),
            offset=0.0,
            window=WindowBooks(
                accountant=self.epoch_accountant,
                log=self.window_log,
                epochs=list(snapshot.live_epochs),
                window_id=snapshot.window_id,
            ),
        )
        return [view] * len(rows), [batch.specs[i] for i in rows]
