"""Deterministic fault schedules: seed-driven, step-indexed injections.

A :class:`FaultSchedule` is a sorted list of :class:`FaultEvent`\\ s, each
pinned to a *trade step* of the harness's deterministic request stream
(not to wall-clock time — wall clocks are not reproducible).  The same
seed always generates the same schedule, and the harness applies events
at the same stream positions, which is what makes a whole chaos run —
faults, recoveries, answers, and books — bit-reproducible.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

__all__ = ["FaultEvent", "FaultSchedule", "EVENT_KINDS"]

#: Supported injection kinds.
EVENT_KINDS = (
    "kill_worker",      # crash one gateway worker (finishes batch in hand)
    "restart_worker",   # spawn a replacement worker
    "crash_broker",     # rebuild broker books from the journal, verify, swap
    "partition_shard",  # cut a shard's primary (routes fail over to replica)
    "heal_shard",       # revive + re-sync that primary
    "burst_loss",       # flip a station channel into Gilbert-Elliott burst loss
    "heal_channel",     # restore the original channel
    # --- overload faults (drawn last in ``generate`` so earlier
    # same-seed schedules keep their exact events and checksums) ---
    "slow_shard",       # inject ingress latency on a shard's gated lane
    "heal_slow_shard",  # clear that injected latency
    "clock_jump",       # advance the gateway's manual clock (target = ms)
    "brownout_level",   # pin the brownout ladder at rung ``target`` (0 = normal)
)

#: Kinds that change which rng streams / routes serve subsequent trades;
#: the harness drains in-flight work before applying these so the switch
#: happens at a deterministic stream position.
STREAM_AFFECTING = (
    "crash_broker",
    "partition_shard",
    "heal_shard",
    "burst_loss",
    "heal_channel",
    # A clock jump expires queued deadlines and a brownout pin changes
    # which rung serves every later trade; both must land with nothing
    # in flight to stay at a reproducible stream position.
    "clock_jump",
    "brownout_level",
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled injection, applied just before trade ``step`` submits."""

    step: int
    kind: str
    target: int = 0

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {EVENT_KINDS}"
            )
        if self.step < 0:
            raise ValueError("step must be non-negative")
        if self.target < 0:
            raise ValueError("target must be non-negative")

    def to_payload(self) -> Dict[str, Any]:
        return {"step": self.step, "kind": self.kind, "target": self.target}


@dataclass(frozen=True)
class FaultSchedule:
    """A seed's worth of faults over a ``trades``-step run.

    Events are stored sorted by step (stable on generation order within a
    step).  ``shards`` records the cluster width the schedule was built
    for so shard-targeted events can be validated against the runtime.
    """

    events: Tuple[FaultEvent, ...]
    seed: int
    trades: int
    shards: int = 1

    def __post_init__(self) -> None:
        if self.trades < 1:
            raise ValueError("trades must be positive")
        if self.shards < 1:
            raise ValueError("shards must be positive")
        steps = [event.step for event in self.events]
        if steps != sorted(steps):
            raise ValueError("events must be sorted by step")
        kills = sum(1 for e in self.events if e.kind == "kill_worker")
        restarts = sum(1 for e in self.events if e.kind == "restart_worker")
        if restarts < kills:
            raise ValueError(
                f"unmatched worker kills: {kills} kills but {restarts} restarts"
            )
        for event in self.events:
            if event.step >= self.trades:
                raise ValueError(
                    f"event {event.kind} at step {event.step} is past the "
                    f"{self.trades}-trade horizon"
                )
            if (
                event.kind in (
                    "partition_shard", "heal_shard",
                    "slow_shard", "heal_slow_shard",
                )
                and event.target >= self.shards
            ):
                raise ValueError(
                    f"{event.kind} targets shard {event.target} but the "
                    f"schedule is built for {self.shards} shard(s)"
                )
            if event.kind == "brownout_level" and event.target > 4:
                raise ValueError(
                    f"brownout_level targets rung {event.target}; the "
                    "ladder tops out at 4 (shed)"
                )

    def at(self, step: int) -> Tuple[FaultEvent, ...]:
        """Events to apply just before submitting trade ``step``."""
        return tuple(event for event in self.events if event.step == step)

    def count(self, kind: str) -> int:
        """How many events of ``kind`` the schedule contains."""
        return sum(1 for event in self.events if event.kind == kind)

    def checksum(self) -> str:
        """SHA-256 over the canonical schedule payload."""
        digest = hashlib.sha256()
        digest.update(json.dumps(self.to_payload(), sort_keys=True).encode())
        return digest.hexdigest()

    def to_payload(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "trades": self.trades,
            "shards": self.shards,
            "events": [event.to_payload() for event in self.events],
        }

    @classmethod
    def generate(
        cls,
        seed: int,
        trades: int,
        shards: int = 1,
        kill_restart_pairs: int = 2,
        broker_crashes: int = 1,
        shard_partitions: int = 1,
        channel_bursts: int = 1,
        slow_shards: int = 0,
        clock_jumps: int = 0,
        brownout_pins: int = 0,
    ) -> "FaultSchedule":
        """Build the canonical seeded schedule for a ``trades``-step run.

        Guarantees, matching the acceptance scenario: every worker kill is
        paired with a later restart (a few steps after), broker crashes
        land mid-run, and — when ``shards > 1`` — each partition gets a
        later heal on the same shard.  Channel bursts are paired with
        heals likewise.  All positions are drawn from
        ``np.random.default_rng(seed)``, so the schedule is a pure
        function of its arguments.
        """
        if trades < 20:
            raise ValueError("a fault schedule needs at least 20 trades")
        rng = np.random.default_rng(seed)
        events: List[FaultEvent] = []

        def draw_step(lo_frac: float, hi_frac: float) -> int:
            lo = max(1, int(trades * lo_frac))
            hi = max(lo + 1, int(trades * hi_frac))
            return int(rng.integers(lo, min(hi, trades - 1)))

        for _ in range(kill_restart_pairs):
            kill = draw_step(0.05, 0.85)
            gap = int(rng.integers(2, 7))
            restart = min(kill + gap, trades - 1)
            events.append(FaultEvent(step=kill, kind="kill_worker"))
            events.append(FaultEvent(step=restart, kind="restart_worker"))

        for _ in range(broker_crashes):
            events.append(
                FaultEvent(step=draw_step(0.4, 0.8), kind="crash_broker")
            )

        if shards > 1:
            for _ in range(shard_partitions):
                cut = draw_step(0.2, 0.6)
                gap = int(rng.integers(5, 15))
                heal = min(cut + gap, trades - 1)
                target = int(rng.integers(0, shards))
                events.append(
                    FaultEvent(step=cut, kind="partition_shard", target=target)
                )
                events.append(
                    FaultEvent(step=heal, kind="heal_shard", target=target)
                )

        for _ in range(channel_bursts):
            on = draw_step(0.1, 0.7)
            gap = int(rng.integers(5, 15))
            off = min(on + gap, trades - 1)
            target = int(rng.integers(0, shards))
            events.append(FaultEvent(step=on, kind="burst_loss", target=target))
            events.append(
                FaultEvent(step=off, kind="heal_channel", target=target)
            )

        # Overload faults: drawn after every earlier draw, so their
        # zero-default arguments leave same-seed schedules (and their
        # checksums) untouched.
        for _ in range(slow_shards):
            on = draw_step(0.05, 0.6)
            heal = min(on + int(rng.integers(10, 30)), trades - 1)
            target = int(rng.integers(0, shards))
            events.append(
                FaultEvent(step=on, kind="slow_shard", target=target)
            )
            events.append(
                FaultEvent(step=heal, kind="heal_slow_shard", target=target)
            )
        for _ in range(clock_jumps):
            events.append(FaultEvent(
                step=draw_step(0.1, 0.9),
                kind="clock_jump",
                target=int(rng.integers(50, 500)),  # milliseconds
            ))
        for _ in range(brownout_pins):
            on = draw_step(0.3, 0.8)
            off = min(on + int(rng.integers(5, 15)), trades - 1)
            level = int(rng.integers(1, 5))
            events.append(
                FaultEvent(step=on, kind="brownout_level", target=level)
            )
            events.append(
                FaultEvent(step=off, kind="brownout_level", target=0)
            )

        ordered = tuple(
            sorted(enumerate(events), key=lambda pair: (pair[1].step, pair[0]))
        )
        return cls(
            events=tuple(event for _, event in ordered),
            seed=seed,
            trades=trades,
            shards=shards,
        )
