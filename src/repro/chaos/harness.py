"""The chaos harness: seeded faults over a live trading stack, audited.

:class:`ChaosHarness` drives a deterministic request stream through a
:class:`~repro.serving.gateway.ServingGateway` while a
:class:`~repro.chaos.schedule.FaultSchedule` kills workers, crashes the
broker's books (recovering them from the write-ahead journal), partitions
shards, and flips channels into burst loss.  After the run it checks the
three crash-safety invariants machine-checkably:

1. **No under-accounting.**  The ε′ billed on every *released* answer is
   covered by the accountant's recorded spend, and the journal's release
   total matches the accountant exactly.
2. **Zero drift + exact recovery.**  Ledger revenue and accountant spend
   equal the serial expectation for the resolved request multiset, every
   mid-run journal recovery was bit-identical to the live books, and a
   final from-scratch :func:`~repro.durability.recovery.recover_accounting`
   reproduces the books bit-for-bit.
3. **Every accepted request resolves** -- with an answer or a typed
   :class:`~repro.errors.ReproError`; no future is left dangling.

Determinism contract: the gateway must run **one worker**, a **zero
batching window**, and **no cache** -- then batches are width-1, dispatch
order equals submission order, and the whole run (values, prices, books,
journal) is a pure function of the seeds.  The harness additionally
never lets two workers live at once (a replacement is spawned only after
the killed worker has drained up to its kill sentinel and exited) and
drains in-flight futures before any stream-affecting fault, so every
injection lands at a reproducible stream position.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.injectors import FaultInjector, books_equal
from repro.chaos.schedule import STREAM_AFFECTING, FaultSchedule
from repro.core.query import PrivateAnswer
from repro.durability.journal import TradeJournal
from repro.durability.recovery import recover_accounting
from repro.errors import ReproError
from repro.serving.gateway import ServingGateway
from repro.serving.loadgen import (
    Workload,
    _ensure_feasible,
    booked_accounting,
    expected_accounting,
)

__all__ = ["ChaosConfig", "ChaosReport", "ChaosHarness"]

#: Tolerance for sum-of-floats comparisons (drift, coverage).  Books and
#: recovery equivalence are compared *exactly*; only independently-ordered
#: float summations get this slack.
_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ChaosConfig:
    """Tuning of one chaos run.

    ``drain_every`` bounds the in-flight future window (the harness waits
    for outstanding answers whenever that many are pending and a worker
    is logically alive); ``timeout`` bounds every individual wait.
    """

    trades: int = 200
    consumers: int = 4
    drain_every: int = 16
    timeout: float = 60.0

    def __post_init__(self) -> None:
        if self.trades < 1:
            raise ValueError("trades must be positive")
        if self.consumers < 1:
            raise ValueError("consumers must be positive")
        if self.drain_every < 1:
            raise ValueError("drain_every must be positive")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")


class _Pending:
    """One submitted request awaiting its future."""

    __slots__ = ("step", "consumer", "low", "high", "spec", "future",
                 "kills_at_submit")

    def __init__(self, step, consumer, low, high, spec, future,
                 kills_at_submit) -> None:
        self.step = step
        self.consumer = consumer
        self.low = low
        self.high = high
        self.spec = spec
        self.future = future
        #: Total worker kills applied before this request was submitted.
        #: One worker (re)spawn is needed per sentinel ahead of it in the
        #: queue, so it cannot resolve until the total number of restarts
        #: has caught up with this count.
        self.kills_at_submit = kills_at_submit


@dataclass(frozen=True)
class ChaosReport:
    """Audited outcome of one chaos run (JSON-ready via ``to_payload``)."""

    trades: int
    seed: int
    schedule_checksum: str
    resolved: int
    failed: int
    unresolved: int
    degraded_answers: int
    released_epsilon: float
    journal_release_epsilon: float
    journal_entries: int
    epsilon_spent: float
    expected_epsilon: float
    revenue: float
    expected_revenue: float
    worker_kills: int
    worker_restarts: int
    auto_respawns: int
    broker_recoveries: int
    recoveries_exact: Tuple[bool, ...]
    final_recovery_exact: bool
    invariant_no_underaccounting: bool
    invariant_zero_drift: bool
    invariant_all_resolved: bool
    failures: Tuple[str, ...]
    checksum: str
    duration_s: float

    @property
    def epsilon_drift(self) -> float:
        return self.epsilon_spent - self.expected_epsilon

    @property
    def revenue_drift(self) -> float:
        return self.revenue - self.expected_revenue

    @property
    def all_passed(self) -> bool:
        """Whether all three chaos invariants held."""
        return (
            self.invariant_no_underaccounting
            and self.invariant_zero_drift
            and self.invariant_all_resolved
        )

    def to_payload(self) -> Dict[str, Any]:
        return {
            "trades": self.trades,
            "seed": self.seed,
            "schedule_checksum": self.schedule_checksum,
            "resolved": self.resolved,
            "failed": self.failed,
            "unresolved": self.unresolved,
            "degraded_answers": self.degraded_answers,
            "released_epsilon": self.released_epsilon,
            "journal_release_epsilon": self.journal_release_epsilon,
            "journal_entries": self.journal_entries,
            "epsilon_spent": self.epsilon_spent,
            "expected_epsilon": self.expected_epsilon,
            "epsilon_drift": self.epsilon_drift,
            "revenue": self.revenue,
            "expected_revenue": self.expected_revenue,
            "revenue_drift": self.revenue_drift,
            "worker_kills": self.worker_kills,
            "worker_restarts": self.worker_restarts,
            "auto_respawns": self.auto_respawns,
            "broker_recoveries": self.broker_recoveries,
            "recoveries_exact": list(self.recoveries_exact),
            "final_recovery_exact": self.final_recovery_exact,
            "invariants": {
                "no_underaccounting": self.invariant_no_underaccounting,
                "zero_drift": self.invariant_zero_drift,
                "all_resolved": self.invariant_all_resolved,
            },
            "all_passed": self.all_passed,
            "failures": list(self.failures),
            "checksum": self.checksum,
            "duration_s": self.duration_s,
        }


class ChaosHarness:
    """Drive one seeded fault schedule through a gateway and audit it.

    The gateway must satisfy the determinism contract: ``workers == 1``,
    ``batch_window == 0`` and no answer cache (see module docstring), and
    its broker must carry the same :class:`TradeJournal` handed here.
    """

    def __init__(
        self,
        gateway: ServingGateway,
        journal: TradeJournal,
        schedule: FaultSchedule,
        workload: Workload,
        config: Optional[ChaosConfig] = None,
    ) -> None:
        if gateway.config.workers != 1:
            raise ValueError(
                "chaos determinism requires exactly one gateway worker "
                f"(got {gateway.config.workers})"
            )
        if gateway.config.batch_window != 0:
            raise ValueError(
                "chaos determinism requires batch_window=0 (width-1 "
                "batches dispatch in submission order)"
            )
        if gateway.cache is not None:
            raise ValueError(
                "chaos determinism requires the answer cache disabled "
                "(replays would depend on store-version timing)"
            )
        if gateway.broker.journal is not journal:
            raise ValueError(
                "the broker must journal into the same TradeJournal the "
                "harness audits"
            )
        self.gateway = gateway
        self.journal = journal
        self.schedule = schedule
        self.workload = workload
        self.config = config or ChaosConfig(trades=schedule.trades)
        if self.config.trades != schedule.trades:
            raise ValueError(
                f"config.trades={self.config.trades} disagrees with "
                f"schedule.trades={schedule.trades}"
            )
        self.injector = FaultInjector(gateway, journal)
        # Raw outcome of the last run (filled by _audit; lets subclasses
        # layer further per-answer invariants on the same evidence).
        self._last_resolved: "List[Tuple[_Pending, PrivateAnswer]]" = []
        self._last_failed: "List[Tuple[_Pending, BaseException]]" = []

    # ------------------------------------------------------------------ #
    # run                                                                #
    # ------------------------------------------------------------------ #
    def run(self) -> ChaosReport:
        """Execute the schedule over the request stream; audit; report."""
        gateway, config = self.gateway, self.config
        # Pre-collect so no mid-run top-up perturbs plans or the audit.
        _ensure_feasible(gateway, self.workload)
        if not gateway.running:
            gateway.start()

        pending: "List[_Pending]" = []
        resolved: "List[Tuple[_Pending, PrivateAnswer]]" = []
        failed: "List[Tuple[_Pending, BaseException]]" = []
        unresolved: "List[_Pending]" = []
        kills_applied = 0
        restarts_applied = 0
        auto_respawns = 0
        started = time.perf_counter()

        def resolvable(entry: "_Pending") -> bool:
            # A request queued behind m kill sentinels needs m (re)spawned
            # workers before anything can reach it.
            return restarts_applied >= entry.kills_at_submit

        def drain(entries: "List[_Pending]") -> None:
            for entry in entries:
                try:
                    answer = entry.future.result(timeout=config.timeout)
                except BaseException as exc:  # repro-lint: shed -- collected into failed[] and audited
                    failed.append((entry, exc))
                else:
                    resolved.append((entry, answer))
            del entries[:]

        def drain_resolvable() -> None:
            ready = [entry for entry in pending if resolvable(entry)]
            blocked = [entry for entry in pending if not resolvable(entry)]
            drain(ready)
            pending[:] = blocked

        def wait_workers_dead() -> None:
            deadline = time.monotonic() + config.timeout
            while gateway.alive_workers > 0:
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        "killed gateway worker failed to exit within "
                        f"{config.timeout}s"
                    )
                time.sleep(0.0005)

        for step in range(config.trades):
            for event in self.schedule.at(step):
                if event.kind in STREAM_AFFECTING:
                    # Land the fault at a deterministic stream position:
                    # nothing in flight while the stack mutates.
                    drain_resolvable()
                if event.kind == "restart_worker":
                    # Single-live-worker invariant: the killed worker must
                    # drain up to its sentinel and exit before a
                    # replacement spawns (two concurrent workers would
                    # race dispatch order).
                    if kills_applied > restarts_applied:
                        drain_resolvable()
                        wait_workers_dead()
                    restarts_applied += 1
                elif event.kind == "kill_worker":
                    kills_applied += 1
                self.injector.apply(event)

            (low, high), spec = self.workload.request(step)
            future = self._submit_one(
                step, low, high, spec,
                consumer=f"chaos-{step % config.consumers}",
            )
            pending.append(_Pending(
                step, f"chaos-{step % config.consumers}", low, high, spec,
                future, kills_applied,
            ))
            live = sum(
                1 for entry in pending if resolvable(entry)
            )
            if kills_applied <= restarts_applied and live >= config.drain_every:
                drain_resolvable()

        # End of stream: bring a worker back if the schedule left the
        # gateway logically dead, then settle every outstanding future.
        if kills_applied > restarts_applied:
            while kills_applied > restarts_applied:
                drain_resolvable()
                wait_workers_dead()
                gateway.spawn_worker()
                restarts_applied += 1
                auto_respawns += 1
        drain_resolvable()
        for entry in pending:
            if not entry.future.done():
                unresolved.append(entry)
            else:
                try:
                    resolved.append((entry, entry.future.result(timeout=0)))
                except BaseException as exc:  # repro-lint: shed -- collected into failed[] and audited
                    failed.append((entry, exc))
        duration = time.perf_counter() - started
        report = self._audit(
            resolved, failed, unresolved, auto_respawns, duration
        )
        gateway.stop()
        return report

    def _submit_one(
        self,
        step: int,
        low: float,
        high: float,
        spec: Any,
        consumer: str,
    ) -> "Future[PrivateAnswer]":
        """Submit one trade; a synchronous typed shed becomes a failed future.

        A gateway under brownout level 4 sheds at ``submit`` (typed
        :class:`~repro.errors.BrownoutShedError` with a retry-after)
        before anything is queued or billed; the audit counts it like
        any other typed failure, at the deterministic stream position it
        happened.

        An armed ``clock_jump`` is consumed here: the submit and the
        manual-clock advance happen under one ``gateway.quiesce()``, so
        exactly this step's trade sits queued when time moves -- the
        deadline miss (or survival) is a pure function of the schedule
        and the configured ``request_ttl``.
        """
        jump = getattr(self.injector, "pending_clock_jump", 0.0)
        if jump > 0.0:
            self.injector.pending_clock_jump = 0.0
            with self.gateway.quiesce():
                try:
                    return self.gateway.submit_range(
                        low, high, spec.alpha, spec.delta, consumer=consumer
                    )
                except ReproError as exc:
                    future: "Future[PrivateAnswer]" = Future()
                    future.set_exception(exc)
                    return future
                finally:
                    # The jump lands even when the submit itself sheds:
                    # armed time always passes at this stream position.
                    self.gateway.clock.advance(jump)
        try:
            return self.gateway.submit_range(
                low, high, spec.alpha, spec.delta, consumer=consumer
            )
        except ReproError as exc:
            future = Future()
            future.set_exception(exc)
            return future

    # ------------------------------------------------------------------ #
    # audit                                                              #
    # ------------------------------------------------------------------ #
    def _audit(
        self,
        resolved: "List[Tuple[_Pending, PrivateAnswer]]",
        failed: "List[Tuple[_Pending, BaseException]]",
        unresolved: "List[_Pending]",
        auto_respawns: int,
        duration: float,
    ) -> ChaosReport:
        broker = self.gateway.broker
        failures: "List[str]" = []

        txn_epsilon: "Dict[int, float]" = {}
        txn_price: "Dict[int, float]" = {}
        for txn in broker.ledger.transactions:
            txn_epsilon[txn.transaction_id] = txn.epsilon_prime
            txn_price[txn.transaction_id] = txn.price

        resolved.sort(key=lambda pair: pair[0].step)
        released_epsilon = sum(
            txn_epsilon.get(answer.transaction_id, answer.plan.epsilon_prime)
            for _, answer in resolved
        )
        journal_release_epsilon = sum(
            entry.epsilon_prime
            for entry in self.journal.entries()
            if entry.kind == "release"
        )
        # Summed like the expectation (``math.fsum``), so the drift below
        # does not depend on the order the trades settled in.
        revenue, epsilon_spent = booked_accounting(broker)

        # Invariant 1: every released answer's ε′ is accounted for.
        inv_account = released_epsilon <= epsilon_spent + _SUM_TOL
        if not inv_account:
            failures.append(
                f"under-accounting: released ε={released_epsilon!r} exceeds "
                f"accounted ε={epsilon_spent!r}"
            )
        if abs(journal_release_epsilon - epsilon_spent) > _SUM_TOL:
            inv_account = False
            failures.append(
                f"journal/accountant mismatch: journal releases total "
                f"ε={journal_release_epsilon!r}, accountant recorded "
                f"ε={epsilon_spent!r}"
            )

        # Invariant 2: zero drift against the serial expectation, and the
        # journal alone reproduces the books bit-for-bit.  The expectation
        # is priced at each answer's *delivered* spec (``answer.spec``):
        # identical to the requested spec on a healthy run, and the
        # honestly-billed weaker contract on a brownout-repriced one.
        expected_revenue, expected_epsilon = expected_accounting(
            self.gateway,
            [
                ((entry.low, entry.high), answer.spec)
                for entry, answer in resolved
            ],
        )
        inv_drift = (
            abs(epsilon_spent - expected_epsilon) <= _SUM_TOL
            and abs(revenue - expected_revenue) <= _SUM_TOL
        )
        if not inv_drift:
            failures.append(
                f"accounting drift: ε {epsilon_spent!r} vs expected "
                f"{expected_epsilon!r}; revenue {revenue!r} vs expected "
                f"{expected_revenue!r}"
            )
        final_exact = books_equal(recover_accounting(self.journal, broker), broker)
        if not final_exact:
            inv_drift = False
            failures.append(
                "final journal replay did not reproduce the live books "
                "bit-for-bit"
            )
        if not all(self.injector.recoveries_exact):
            inv_drift = False
            failures.append(
                f"mid-run recovery inexact: {self.injector.recoveries_exact}"
            )

        # Invariant 3: every accepted request resolved, failures typed.
        inv_resolved = not unresolved
        if unresolved:
            failures.append(
                f"{len(unresolved)} request(s) never resolved "
                f"(steps {[entry.step for entry in unresolved][:8]})"
            )
        untyped = [
            (entry.step, type(exc).__name__)
            for entry, exc in failed
            if not isinstance(exc, ReproError)
        ]
        if untyped:
            inv_resolved = False
            failures.append(f"untyped request failures: {untyped[:8]}")

        telemetry = self.gateway.telemetry.snapshot()
        counters = telemetry.get("counters", {})
        report = ChaosReport(
            trades=self.config.trades,
            seed=self.schedule.seed,
            schedule_checksum=self.schedule.checksum(),
            resolved=len(resolved),
            failed=len(failed),
            unresolved=len(unresolved),
            degraded_answers=sum(
                1 for _, answer in resolved
                if getattr(answer, "degraded", False)
            ),
            released_epsilon=released_epsilon,
            journal_release_epsilon=journal_release_epsilon,
            journal_entries=len(self.journal),
            epsilon_spent=epsilon_spent,
            expected_epsilon=expected_epsilon,
            revenue=revenue,
            expected_revenue=expected_revenue,
            worker_kills=int(counters.get("gateway.worker_kills", 0)),
            worker_restarts=int(counters.get("gateway.worker_restarts", 0)),
            auto_respawns=auto_respawns,
            broker_recoveries=len(self.injector.recoveries_exact),
            recoveries_exact=tuple(self.injector.recoveries_exact),
            final_recovery_exact=final_exact,
            invariant_no_underaccounting=inv_account,
            invariant_zero_drift=inv_drift,
            invariant_all_resolved=inv_resolved,
            failures=tuple(failures),
            checksum=self._checksum(resolved),
            duration_s=duration,
        )
        # Stash the raw outcome for harness subclasses (the overload
        # drill audits per-answer rung honesty on top of this report).
        self._last_resolved = list(resolved)
        self._last_failed = list(failed)
        return report

    def _checksum(
        self, resolved: "List[Tuple[_Pending, PrivateAnswer]]"
    ) -> str:
        """SHA-256 of the full observable outcome: answers + books + journal.

        Two same-seed runs over identical stacks must agree on this --
        ``repr`` keeps full float precision, so any value, price, ε′, or
        transaction-id divergence changes the digest.
        """
        broker = self.gateway.broker
        digest = hashlib.sha256()
        for entry, answer in resolved:
            digest.update(repr((
                entry.step,
                entry.consumer,
                entry.low,
                entry.high,
                entry.spec.alpha,
                entry.spec.delta,
                # Delivered contract + rung: a brownout rung divergence
                # between same-seed runs must change the digest even when
                # it happens to price identically.
                answer.spec.alpha,
                answer.spec.delta,
                answer.brownout_rung,
                answer.value,
                answer.price,
                answer.plan.epsilon_prime,
                answer.transaction_id,
            )).encode())
        digest.update(repr(broker.ledger.total_revenue()).encode())
        digest.update(repr(broker.accountant.spent(broker.dataset)).encode())
        digest.update(self.journal.checksum().encode())
        return digest.hexdigest()
