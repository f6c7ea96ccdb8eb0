"""Fault injectors: map schedule events onto live runtime actions.

:class:`FaultInjector` owns the mutable side of a chaos run: it kills and
restarts gateway workers, crashes the broker's books and recovers them
from the write-ahead journal (verifying the rebuild is bit-identical),
cuts and heals shard primaries, and flips station channels into
Gilbert–Elliott burst-loss mode.  Every action is counted in telemetry
(``chaos.*``) and recovery latency lands in a histogram, so operators can
read a chaos run the way they read a serving run.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.chaos.schedule import FaultEvent
from repro.durability.journal import TradeJournal
from repro.durability.recovery import recover_accounting
from repro.iot.channel import BurstChannel, Channel
from repro.pricing.ledger import BillingLedger
from repro.privacy.budget import BudgetAccountant
from repro.serving.gateway import ServingGateway

__all__ = ["FaultInjector", "books_equal"]

#: Injected ingress latency for ``slow_shard`` -- roughly 10x a healthy
#: sub-query on the drill's stack sizes, so breakers/hedging have a real
#: straggler to route around while the drill still finishes quickly.
SLOW_SHARD_LATENCY_S = 0.05


def books_equal(
    ledger_a: BillingLedger,
    accountant_a: BudgetAccountant,
    ledger_b: BillingLedger,
    accountant_b: BudgetAccountant,
) -> bool:
    """Whether two (ledger, accountant) pairs hold bit-identical accounting.

    Compares the transaction logs (ids included), the next transaction
    id, and the accountant's per-dataset spend history.  Exact float
    equality is intentional: recovery promises *bit-identical* books, not
    approximately-equal ones.  Journal high-water marks are bookkeeping
    of the recovery machinery itself and are excluded.
    """
    snap_a, snap_b = ledger_a.snapshot(), ledger_b.snapshot()
    if snap_a["transactions"] != snap_b["transactions"]:
        return False
    if snap_a["next_transaction_id"] != snap_b["next_transaction_id"]:
        return False
    return accountant_a.snapshot()["spent"] == accountant_b.snapshot()["spent"]


class FaultInjector:
    """Applies :class:`FaultEvent`\\ s to a gateway-fronted broker stack."""

    def __init__(self, gateway: ServingGateway, journal: TradeJournal) -> None:
        self.gateway = gateway
        self.journal = journal
        self.telemetry = gateway.telemetry
        #: Exactness verdict of each mid-run broker recovery, in order.
        self.recoveries_exact: "List[bool]" = []
        # Original channels stashed while a burst fault is active,
        # keyed by shard target.
        self._saved_channels: "Dict[int, List[Tuple[Any, Channel]]]" = {}
        #: Seconds of armed-but-unapplied manual-clock jump; the harness
        #: consumes this under ``gateway.quiesce()`` around the step's
        #: submit (see :meth:`_clock_jump`).
        self.pending_clock_jump: float = 0.0

    # ------------------------------------------------------------------ #
    # dispatch                                                           #
    # ------------------------------------------------------------------ #
    def apply(self, event: FaultEvent) -> None:
        """Apply one scheduled fault (or recovery) to the live stack."""
        handler = {
            "kill_worker": self._kill_worker,
            "restart_worker": self._restart_worker,
            "crash_broker": self._crash_broker,
            "partition_shard": self._partition_shard,
            "heal_shard": self._heal_shard,
            "burst_loss": self._burst_loss,
            "heal_channel": self._heal_channel,
            "slow_shard": self._slow_shard,
            "heal_slow_shard": self._heal_slow_shard,
            "clock_jump": self._clock_jump,
            "brownout_level": self._brownout_level,
        }[event.kind]
        handler(event)
        self.telemetry.inc(f"chaos.{event.kind}")

    # ------------------------------------------------------------------ #
    # gateway workers                                                    #
    # ------------------------------------------------------------------ #
    def _kill_worker(self, event: FaultEvent) -> None:
        self.gateway.kill_worker()

    def _restart_worker(self, event: FaultEvent) -> None:
        self.gateway.spawn_worker()

    # ------------------------------------------------------------------ #
    # shard latency + overload controls                                  #
    # ------------------------------------------------------------------ #
    def _slow_shard(self, event: FaultEvent) -> None:
        self._shards()[event.target].injected_latency = SLOW_SHARD_LATENCY_S

    def _heal_slow_shard(self, event: FaultEvent) -> None:
        self._shards()[event.target].injected_latency = 0.0

    def _clock_jump(self, event: FaultEvent) -> None:
        """Arm a jump of the gateway's manual clock (``target`` = ms).

        The advance itself is *deferred*: the harness applies it under
        ``gateway.quiesce()`` around the step's own submit, so the jump
        lands with a known queue (exactly this step's trade enqueued,
        nothing mid-dispatch).  That is what makes a deadline storm
        deterministic -- which requests expire is a pure function of the
        schedule, not of how fast the dispatcher thread was running.
        """
        clock = self.gateway.clock
        if getattr(clock, "advance", None) is None:
            raise ValueError(
                "clock_jump needs the gateway built on a ManualClock "
                "(gateway.clock must expose advance())"
            )
        self.pending_clock_jump += event.target / 1000.0

    def _brownout_level(self, event: FaultEvent) -> None:
        """Pin the ladder at rung ``target`` (0 = back to normal service).

        Every transition — descent included — stays *pinned*: handing
        control back to ``observe`` mid-drill would let the rung depend
        on breaker state, which follows measured wall-clock latency, and
        same-seed checksums would then diverge on a loaded host.  (The
        shed rung also refuses at submit, so no dispatch would ever feed
        ``observe`` anyway.)  Organic hysteresis is covered by the
        resilience unit tests, not the drill.
        """
        brownout = self.gateway.brownout
        if brownout is None:
            raise ValueError(
                "brownout_level needs a gateway with a BrownoutController"
            )
        brownout.force(event.target)

    # ------------------------------------------------------------------ #
    # broker crash + journal recovery                                    #
    # ------------------------------------------------------------------ #
    def _crash_broker(self, event: FaultEvent) -> None:
        """Crash the broker's books and rebuild them from the journal.

        Under ``gateway.quiesce()`` (no trade mid-charge): recover a
        fresh (ledger, accountant) pair from the journal, verify it is
        bit-identical to the live pair, then *swap it in* — the broker
        continues on the recovered books, so any recovery inexactness
        surfaces as drift in the end-of-run audit as well as in the
        ``recoveries_exact`` verdicts.
        """
        broker = self.gateway.broker
        started = time.perf_counter()
        with self.gateway.quiesce():
            ledger, accountant = recover_accounting(
                self.journal, capacity=broker.accountant.capacity
            )
            exact = books_equal(
                ledger, accountant, broker.ledger, broker.accountant
            )
            self.recoveries_exact.append(exact)
            old_ledger = broker.ledger
            broker.ledger = ledger
            broker.accountant = accountant
            if (
                self.gateway.admission is not None
                and self.gateway.admission.ledger is old_ledger
            ):
                self.gateway.admission.ledger = ledger
        self.telemetry.observe(
            "chaos.recovery_latency_s", time.perf_counter() - started
        )
        self.telemetry.inc("chaos.broker_recoveries")

    # ------------------------------------------------------------------ #
    # shard partitions                                                   #
    # ------------------------------------------------------------------ #
    def _shards(self) -> "List[Any]":
        shards = getattr(self.gateway.broker, "shards", None)
        if not shards:
            raise ValueError(
                "shard fault events need a cluster broker (got a "
                "single-station broker)"
            )
        return list(shards)

    def _partition_shard(self, event: FaultEvent) -> None:
        self._shards()[event.target].fail_primary()

    def _heal_shard(self, event: FaultEvent) -> None:
        self._shards()[event.target].revive_primary()

    # ------------------------------------------------------------------ #
    # channel bursts                                                     #
    # ------------------------------------------------------------------ #
    def _stations(self, target: int) -> "List[Any]":
        shards = getattr(self.gateway.broker, "shards", None)
        if shards:
            shard = list(shards)[target]
            stations = [shard.primary_station]
            if shard.replica_station is not None:
                stations.append(shard.replica_station)
            return stations
        return [self.gateway.broker.base_station]

    def _burst_loss(self, event: FaultEvent) -> None:
        if event.target in self._saved_channels:
            return  # already bursting; idempotent
        saved: "List[Tuple[Any, Channel]]" = []
        for index, station in enumerate(self._stations(event.target)):
            network = station.network
            saved.append((network, network.channel))
            network.channel = BurstChannel(
                loss_probability=0.05,
                bad_loss_probability=0.95,
                base_latency=network.channel.base_latency,
                jitter=network.channel.jitter,
                # Seed derived from the schedule position so the burst
                # pattern is itself reproducible.
                rng=np.random.default_rng(
                    1_000_003 * (event.target + 1) + 101 * index + event.step
                ),
            )
        self._saved_channels[event.target] = saved

    def _heal_channel(self, event: FaultEvent) -> None:
        for network, channel in self._saved_channels.pop(event.target, []):
            network.channel = channel
