"""Shared fixtures for the chaos / durability tests.

Stacks are small (3 000 records, 8 devices) so seeded chaos runs stay
fast in tier-1; the acceptance-scale schedule (200 trades, 2 shards)
lives in ``benchmarks/test_chaos.py`` and the CI ``chaos-smoke`` job.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.query import AccuracySpec
from repro.core.service import PrivateRangeCountingService
from repro.durability.journal import TradeJournal
from repro.serving import ServingConfig, Workload
from repro.serving.gateway import ServingGateway

RECORDS = 3_000
DEVICES = 8

TIERS = (
    AccuracySpec(alpha=0.1, delta=0.5),
    AccuracySpec(alpha=0.15, delta=0.4),
)
RANGES = (
    (10.0, 70.0),
    (40.0, 160.0),
    (5.0, 195.0),
    (80.0, 120.0),
)


def build_chaos_stack(shards: int = 1, seed: int = 11, journal_path=None):
    """A fresh seeded service + journal + determinism-contract gateway.

    Twin stacks (same arguments) are bit-identical, which is what the
    two-run determinism tests rely on.
    """
    values = np.random.default_rng(0).uniform(0.0, 200.0, RECORDS)
    service = PrivateRangeCountingService.from_values(
        values, k=DEVICES, seed=seed, shards=shards
    )
    journal = TradeJournal(path=journal_path)
    service.broker.journal = journal
    gateway = service.serve(
        ServingConfig(
            batch_window=0.0,
            max_batch=64,
            queue_depth=2048,
            workers=1,
            enable_cache=False,
        )
    )
    return service, journal, gateway


def build_overload_stack(shards: int = 2, seed: int = 11, journal_path=None,
                         request_ttl: float = 0.25):
    """A resilience-wired stack for the overload drill.

    Same determinism contract as :func:`build_chaos_stack`, plus: a
    :class:`ManualClock` shared by deadlines and breakers (time moves
    only at ``clock_jump`` events), a ``request_ttl``, per-shard circuit
    breakers, hedged sub-queries, and a brownout ladder.
    """
    from repro.cluster.health import ShardBreakerBoard
    from repro.resilience import (
        BrownoutController,
        HedgePolicy,
        ManualClock,
    )

    values = np.random.default_rng(0).uniform(0.0, 200.0, RECORDS)
    service = PrivateRangeCountingService.from_values(
        values, k=DEVICES, seed=seed, shards=shards
    )
    journal = TradeJournal(path=journal_path)
    broker = service.broker
    broker.journal = journal
    clock = ManualClock()
    broker.breakers = ShardBreakerBoard(clock=clock)
    broker.hedging = HedgePolicy()
    gateway = ServingGateway(
        broker=broker,
        config=ServingConfig(
            batch_window=0.0,
            max_batch=64,
            queue_depth=2048,
            workers=1,
            enable_cache=False,
            request_ttl=request_ttl,
        ),
        brownout=BrownoutController(),
        clock=clock,
    )
    return service, journal, gateway


@pytest.fixture
def workload() -> Workload:
    return Workload(ranges=RANGES, tiers=TIERS)


def journal_record(**overrides):
    """A valid journal record dict; override any field."""
    base = dict(
        kind="release",
        consumer="c1",
        dataset="default",
        low=0.0,
        high=10.0,
        alpha=0.1,
        delta=0.5,
        epsilon_prime=0.02,
        price=1.5,
        store_version=3,
        label="c1:[0.0,10.0]",
    )
    base.update(overrides)
    return base
